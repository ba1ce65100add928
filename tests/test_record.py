import os
import subprocess
import sys
from pathlib import Path

import pytest

import barlowlat
from barlowlat.errors import SchemaError, ToolkitError
from barlowlat.exceptional import ABConfiguration
from barlowlat.fixtures import load_fixtures
from barlowlat.heights import Arc
from barlowlat.homledger import CohomDatum
from barlowlat.lattice import DivisorClass
from barlowlat.record import Record


def test_fields_cannot_be_assigned_or_deleted():
    for obj, name in (
        (CohomDatum(1, 0, 0), "h0"),
        (DivisorClass((1, 2)), "coords"),
        (Arc((1, 2), 11), "n"),
    ):
        with pytest.raises(AttributeError, match="cannot assign"):
            setattr(obj, name, 0)
        with pytest.raises(AttributeError, match="cannot delete"):
            delattr(obj, name)
        with pytest.raises(AttributeError, match="cannot assign"):
            obj.other = 0


def test_equality_and_hash_are_by_value():
    a, b = CohomDatum(0, 1, 1), CohomDatum(0, 1, 1)
    assert a == b and a is not b and hash(a) == hash(b)
    assert a != CohomDatum(0, 1, 2)
    assert a != (0, 1, 1)

    class Twin(Record):
        h0: int
        h1: int
        h2: int

    assert Twin(0, 1, 1) != a and Twin(0, 1, 1) == Twin(0, 1, 1)
    assert len({a, b, CohomDatum(1, 0, 0)}) == 2
    assert DivisorClass((1, -1)) == DivisorClass([1, -1])
    assert DivisorClass((1, -1)) != DivisorClass((1, 1))
    assert DivisorClass((1, -1)) != (1, -1)
    # the hash is that of the field tuple, which fixes the order of sets of records
    assert hash(DivisorClass((1, -1))) == hash(((1, -1),))
    assert hash(a) == hash((0, 1, 1))
    assert Arc((1, 3), 11) == Arc((1, 3), 11) != Arc((1, 3), 12)


def test_repr_is_the_dataclass_format():
    assert repr(DivisorClass((1, 0, -2))) == "DivisorClass(coords=(1, 0, -2))"
    assert repr(CohomDatum(1, 0, 0)) == "CohomDatum(h0=1, h1=0, h2=0)"
    assert repr(Arc((1, 12), 11)) == "Arc(indices=(1, 12), n=11)"


def test_positional_and_keyword_construction():
    assert CohomDatum(1, 0, 2) == CohomDatum(1, h2=2, h1=0) == CohomDatum(h2=2, h1=0, h0=1)
    assert DivisorClass(coords=(3,)) == DivisorClass((3,))
    for args, kwargs in (
        ((1, 0), {}),                      # missing
        ((1, 0, 0, 0), {}),                # extra positional
        ((1, 0, 0), {"h0": 1}),            # given twice
        ((1, 0), {"h3": 0}),               # unknown keyword
        ((), {}),
    ):
        with pytest.raises(TypeError):
            CohomDatum(*args, **kwargs)
    with pytest.raises(TypeError):
        DivisorClass()
    with pytest.raises(TypeError):
        DivisorClass((1,), (2,))


def test_post_init_runs():
    with pytest.raises(SchemaError):
        CohomDatum(-1, 0, 0)
    with pytest.raises(ValueError):
        Arc((2, 1), 11)
    with pytest.raises(ToolkitError, match="need eight chain roots and two extra roots"):
        ABConfiguration(a=(), b=(), k=DivisorClass((1,)))


def test_cached_stages_still_cache():
    fix = load_fixtures(validate=False)
    assert "canonical" not in vars(fix)
    canonical = fix.canonical
    assert vars(fix)["canonical"] is canonical and fix.canonical is canonical
    roots = fix.roots
    assert fix.roots is roots and len(roots) == 240
    assert roots.roots[0] in roots
    assert vars(roots)["_index"] is roots._index
    with pytest.raises(AttributeError):
        fix.canonical = None
    # a field holds a dict, so the fixture set is unhashable
    with pytest.raises(TypeError):
        hash(fix)


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    # -S: without site, only the interpreter and the package load modules
    code = "import sys, barlowlat.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=str(Path(barlowlat.__file__).parent.parent))
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, check=True, env=env,
    )
    assert proc.stdout.strip() == "[]"
