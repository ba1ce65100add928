"""Exact-arithmetic toolkit for the rank-9 lattice of the Barlow surface.

Intersection theory on the unimodular lattice 1 + (-E8), enumeration and
classification of its 240 roots, reconstruction of the genus-3 curve classes,
verification of the length-11 numerically exceptional sequence, forward-Ext
degree bookkeeping, and the anticanonical height of the extended collection.

The public names below are looked up in their submodule on every access
(PEP 562): `import barlowlat` loads no submodule, and a name patched in its
submodule is the one the package returns.
"""

__version__ = "0.1.0"

#: each public name and the submodule that defines it
_EXPORTS = {
    name: module
    for module, names in {
        "errors": "ToolkitError",
        "lattice": "DivisorClass PicardLattice make_lattice",
        "fixtures": "FixtureSet load_fixtures",
        "roots": "RootSet enumerate_roots partition_roots vanishing_classification",
        "exceptional": "ABConfiguration DecompositionProblem decompose_effective"
                       " is_num_exceptional search_configs sequence_from_config",
        "homledger": "CohomDatum LedgerMatrix StarChoice formality_report"
                     " min_chain_degree validate_ledger",
        "heights": "Arc ExtBoundMatrix arc_height extend_anticanonical"
                   " fullness_verdict height single_segment_bound",
    }.items()
    for name in names.split()
}
__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(__import__(f"{__name__}.{_EXPORTS[name]}", fromlist=[name]), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
