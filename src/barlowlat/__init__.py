"""Exact-arithmetic toolkit for the rank-9 lattice of the Barlow surface.

Intersection theory on the unimodular lattice 1 + (-E8), enumeration and
classification of its 240 roots, reconstruction of the genus-3 curve classes,
verification of the length-11 numerically exceptional sequence, forward-Ext
degree bookkeeping, and the anticanonical height of the extended collection.
"""

__version__ = "0.1.0"

from .errors import ToolkitError
from .lattice import DivisorClass, PicardLattice, make_lattice
from .fixtures import FixtureSet, load_fixtures
from .roots import (
    RootSet,
    borel_siebenthal,
    enumerate_roots,
    partition_roots,
    vanishing_classification,
)
from .exceptional import (
    ABConfiguration,
    DecompositionProblem,
    decompose_effective,
    is_num_exceptional,
    search_configs,
    sequence_from_config,
)
from .homledger import (
    CohomDatum,
    LedgerMatrix,
    StarChoice,
    formality_report,
    min_chain_degree,
    validate_ledger,
)
from .heights import (
    Arc,
    ExtBoundMatrix,
    arc_height,
    extend_anticanonical,
    fullness_verdict,
    height,
    single_segment_bound,
)

__all__ = [
    "ABConfiguration",
    "Arc",
    "CohomDatum",
    "DecompositionProblem",
    "DivisorClass",
    "ExtBoundMatrix",
    "FixtureSet",
    "LedgerMatrix",
    "PicardLattice",
    "RootSet",
    "StarChoice",
    "ToolkitError",
    "arc_height",
    "borel_siebenthal",
    "decompose_effective",
    "enumerate_roots",
    "extend_anticanonical",
    "formality_report",
    "fullness_verdict",
    "height",
    "is_num_exceptional",
    "load_fixtures",
    "make_lattice",
    "min_chain_degree",
    "partition_roots",
    "search_configs",
    "sequence_from_config",
    "single_segment_bound",
    "validate_ledger",
    "vanishing_classification",
]
