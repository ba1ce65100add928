import importlib
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path
from types import MappingProxyType

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import barlowlat
from barlowlat.errors import SchemaError, ToolkitError
from barlowlat.exceptional import ABConfiguration, DecompositionProblem, search_configs
from barlowlat.fixtures import load_fixtures
from barlowlat.heights import Arc, ExtBoundMatrix
from barlowlat.homledger import INF, STAR, CohomDatum, LedgerMatrix, StarChoice, formality_report
from barlowlat.lattice import DivisorClass, PicardLattice, make_lattice
from barlowlat.record import Record, freeze
from barlowlat.roots import partition_roots

#: one instance of every Record subclass of the package, built from the shipped fixture
SAMPLES = {
    "ABConfiguration": lambda fix: search_configs(fix.roots, fix.lattice.k, limit=1)[0],
    "Arc": lambda fix: Arc((1, 12), 11),
    "BTable": lambda fix: fix.b_table,
    "Canonical": lambda fix: fix.canonical,
    "CohomDatum": lambda fix: CohomDatum(0, 1, 1),
    "DecompositionProblem": lambda fix: DecompositionProblem.create(
        fix.lattice.k, [("D1", fix.curve_class("D1"))], caps=[2]),
    "DivisorClass": lambda fix: fix.curve_class("D1"),
    "ExtBoundMatrix": lambda fix: fix.ext_bounds,
    "FixtureSet": lambda fix: fix,
    "FormalityVerdict": lambda fix: formality_report(fix.ledger, StarChoice.ZERO)[2],
    "LedgerMatrix": lambda fix: fix.ledger,
    "PicardLattice": lambda fix: fix.lattice,
    "RootPartition": lambda fix: partition_roots(
        fix.roots, fix.degree1_elliptic_classes(), list(fix.b_classes().values()),
        fix.minus_two_classes()),
    "RootSet": lambda fix: fix.roots,
}


def _package_records():
    for info in pkgutil.iter_modules(barlowlat.__path__):
        importlib.import_module(f"barlowlat.{info.name}")
    found, todo = set(), [Record]
    while todo:
        for cls in todo.pop().__subclasses__():
            if cls.__module__.startswith("barlowlat."):
                found.add(cls)
            todo.append(cls)
    return found


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


def test_every_package_record_has_a_sample():
    assert {cls.__name__ for cls in _package_records()} == set(SAMPLES)


@pytest.mark.parametrize("name", sorted(SAMPLES))
def test_one_constructor_for_every_record(fix, name):
    obj = SAMPLES[name](fix)
    cls, fields, values = type(obj), obj._fields, obj._values()
    assert cls.__name__ == name
    # positional and keyword construction give equal records
    assert cls(*values) == obj == cls(**dict(zip(fields, values)))
    # a wrong arity is one TypeError naming the fields
    message = re.escape(f"{name} takes the fields {fields}")
    for args in (values[:-1], (*values, None)):
        with pytest.raises(TypeError, match=message):
            cls(*args)
    # the fields stay read-only
    for field in fields:
        with pytest.raises(AttributeError, match="cannot assign"):
            setattr(obj, field, None)


@pytest.mark.parametrize("build", [DivisorClass, lambda coords: DivisorClass(coords=coords)],
                         ids=["positional", "keyword"])
def test_divisor_class_normalises_its_coordinates(build):
    v = build((True, 0, -2))
    assert v == build(c for c in (1, 0, -2)) == DivisorClass((1, 0, -2))
    assert [type(c) for c in v.coords] == [int] * 3
    with pytest.raises(TypeError, match="coordinates must be integers"):
        build((1.0, 0))


def test_ab_configuration_checks_its_chain_on_both_paths(lat):
    k = lat.k
    with pytest.raises(ToolkitError, match="need eight chain roots"):
        ABConfiguration((k,) * 7, (k, k), k)
    with pytest.raises(ToolkitError, match="need eight chain roots"):
        ABConfiguration(a=(k,) * 7, b=(k, k), k=k)


# ------------------------------------------------------------ shape rules

#: tables built directly, not through a parser, each breaking its record's
#: shape rule; the record refuses each one when it is built
DIRECT_DEFECTS = {
    "empty-bound-table": (lambda: ExtBoundMatrix(()), "n must be a positive integer, got 0"),
    "five-row-bound-table": (lambda: ExtBoundMatrix(((None,) * 4,) * 5),
                             "expected 4 rows, got 5"),
    "ragged-bound-table": (lambda: ExtBoundMatrix(((None,) * 4,) * 3 + ((None,) * 3,)),
                           "row 4 has 3 entries, expected 4"),
    "ledger-without-cell-1-1": (lambda: LedgerMatrix({(2, 1): STAR}),
                                "ledger entry 1,1 is missing"),
    "ragged-gram": (lambda: PicardLattice(gram=((1, 0), (0,)), k=DivisorClass((1, 0))),
                    "gram is not 2x2"),
    # keys are (int, int) pairs: a string key failed to unpack with a bare
    # ValueError, a float key compared with a bare TypeError
    "ledger-string-key": (lambda: LedgerMatrix({"1,1": CohomDatum(1, 0, 0)}),
                          "bad ledger key '1,1'"),
    "ledger-float-key": (lambda: LedgerMatrix({(1.0, 1): CohomDatum(1, 0, 0)}),
                         "bad ledger key (1.0, 1)"),
    # a plain tuple k was accepted and failed at its first pairing
    "lattice-tuple-k": (lambda: PicardLattice(((1,),), (1,)),
                        "k (1,) is not a DivisorClass"),
    # a record stores a frozen copy of its table, so it must be of the right kind
    "ledger-list": (lambda: LedgerMatrix([((1, 1), CohomDatum(1, 0, 0))]),
                    "ledger.entries must be an object"),
    "bound-table-string": (lambda: ExtBoundMatrix("ab"), "rows must be an array"),
    "bound-row-string": (lambda: ExtBoundMatrix([[None, None], "ab"]), "rows[1] must be an array"),
}


@pytest.mark.parametrize("name", sorted(DIRECT_DEFECTS))
def test_a_record_built_directly_checks_its_shape(name):
    build, message = DIRECT_DEFECTS[name]
    with pytest.raises(SchemaError) as exc:
        build()
    assert type(exc.value) is SchemaError and str(exc.value) == message


def test_a_ledger_cell_is_a_datum_or_the_star():
    one = CohomDatum(1, 0, 0)
    with pytest.raises(SchemaError, match=r"^ledger entry 1,1 is not a CohomDatum or the star$"):
        LedgerMatrix({(1, 1): (1, 0, 0)})
    with pytest.raises(SchemaError, match=r"^ledger key '1,2' outside the lower triangle$"):
        LedgerMatrix({(1, 1): one, (1, 2): one})
    with pytest.raises(SchemaError, match=r"^diagonal entry 1,1 must be \[1,0,0\]$"):
        LedgerMatrix({(1, 1): STAR})


# ------------------------------------------------------------ the integer rule

M, T = MappingProxyType, tuple

#: (value, its containers, the message naming its first bad cell or container
#: under the path "t")
INTEGER_FAULTS = (
    (M({"a": ((1, 2), (3, 4.0))}), (M, T, T), "t.a[1][1]: 4.0 is not an integer"),
    ((1, True), (T,), "t[1]: True is not an integer"),
    (M({"x": "1", "y": 1.5}), (M,), "t.x: '1' is not an integer"),
    (None, (), "t: None is not an integer"),
    # below the last container everything is a cell, printed as the parser prints it
    ((M({"a": {"b": 1}}),), (T, M), "t[0].a: {'b': 1} is not an integer"),
    (((1, (2,)),), (T, T), "t[0][1]: (2,) is not an integer"),
)


@pytest.mark.parametrize("value, levels, message", INTEGER_FAULTS)
def test_the_integer_rule_names_the_first_bad_cell(value, levels, message):
    with pytest.raises(SchemaError) as exc:
        freeze(value, "t", levels)
    assert str(exc.value) == message


#: (value, its containers, the message naming its first container of the wrong
#: kind under the path "t"): named, not printed, at every level
KIND_FAULTS = (
    (M({"D1": 5}), (M, M), "t.D1 must be an object"),
    ((M({"a": 1}),), (T, T), "t[0] must be an array"),
    # a set has no order for a path to name, so no table is one
    (frozenset({(1, 2)}), (T, T), "t must be an array"),
    # a size is an array level and a key set an object level
    ({"0": 1, "1": 2}, (2,), "t must be an array"),
    ([1, 2], (("a", "b"),), "t must be an object"),
)


@pytest.mark.parametrize("value, levels, message", KIND_FAULTS)
def test_the_table_rule_names_a_container_of_the_wrong_kind(value, levels, message):
    # before, the rule took only tuples and read-only mappings and named the
    # type: "t.D1 is of type int, not mappingproxy"
    with pytest.raises(SchemaError) as exc:
        freeze(value, "t", levels)
    assert str(exc.value) == message


#: (value, its containers, the message naming its first container of the wrong
#: size or keys under the path "t"): an outer level is checked before its cells
SIZE_FAULTS = (
    ([[1, 2], [3]], (2, 2), "t[1] must have 2 entries"),
    ([[1, 2, 3], [4]], (T, 2), "t[0] must have 2 entries"),
    ([[1, 2.0]], (2, 2), "t must have 2 entries"),
    ({"plus": 1}, (("plus", "minus"),), "t must have the keys plus, minus"),
    ({"plus": 1, "minus": 2, "zero": 0}, (("plus", "minus"),), "t must have the keys plus, minus"),
    (M({"a": M({"0": (), "2": ()})}), (M, ("0", "1"), T), "t.a must have the keys 0, 1"),
)


@pytest.mark.parametrize("value, levels, message", SIZE_FAULTS)
def test_the_table_rule_names_a_container_of_the_wrong_size_or_keys(value, levels, message):
    with pytest.raises(SchemaError) as exc:
        freeze(value, "t", levels)
    assert str(exc.value) == message


def test_a_key_set_takes_any_order_and_keeps_it():
    got = freeze({"minus": -1, "plus": 2}, "t", (("plus", "minus"),))
    assert list(got.items()) == [("minus", -1), ("plus", 2)]
    assert freeze([[1, 2], (3, 4)], "t", (2, 2)) == ((1, 2), (3, 4))


#: (value, its containers, the frozen copy): a list is a JSON array and a dict
#: an object, which the rule took for wrong types before
FREEZES = (
    ([[1, 2]], (T, T), ((1, 2),)),
    (((1, 2), [3, 4]), (T, T), ((1, 2), (3, 4))),
    ({"a": 1}, (M,), M({"a": 1})),
)


@pytest.mark.parametrize("value, levels, frozen", FREEZES)
def test_the_table_rule_freezes_lists_and_dicts(value, levels, frozen):
    got = freeze(value, "t", levels)
    assert repr(got) == repr(frozen)   # a tuple or a read-only mapping at every level
    with pytest.raises(TypeError):
        got[0 if levels[0] is T else "a"] = 0


def test_the_integer_rule_passes_integers_in_read_only_tables():
    table = M({"a": ((1, -2), ()), "b": ((10 ** 40,),)})
    assert freeze(table, "t", (M, T, T)) == table
    assert freeze((), "t", (T, T)) == ()
    assert freeze(5, "n") == 5
    for value in (True, 5.0, "5", (5,), [5]):
        with pytest.raises(SchemaError, match=r"^n: .* is not an integer$"):
            freeze(value, "n")


def test_only_the_parser_refuses_a_float_inf():
    # INF is the record's marker; the JSON encoding writes it "inf", so a raw
    # float inf in a document is refused
    rows = [[None, INF], [1, None]]
    assert ExtBoundMatrix(tuple(map(tuple, rows))) == ExtBoundMatrix.from_rows(
        1, [[None, "inf"], [1, None]])
    with pytest.raises(SchemaError, match=r"^bad bound entry inf in row 1$"):
        ExtBoundMatrix.from_rows(1, rows)


def _outcome(build):
    """The record built, or the message of the SchemaError that refused it."""
    try:
        return build()
    except SchemaError as exc:
        return f"SchemaError: {exc}"


@st.composite
def ledger_tables(draw):
    """The lower triangle of 1..n with diagonal (1,0,0), then one edit: none,
    a dropped cell, a dropped diagonal cell, a wrong diagonal or no cells."""
    n = draw(st.integers(1, 4))
    cell = st.one_of(st.just(STAR), st.tuples(*[st.integers(0, 2)] * 3))
    table = {(i, j): (1, 0, 0) if i == j else draw(cell)
             for i in range(1, n + 1) for j in range(1, i + 1)}
    edit = draw(st.sampled_from(["none", "drop", "drop-diagonal", "bad-diagonal", "empty"]))
    d = draw(st.integers(1, n))
    if edit == "drop":
        del table[draw(st.sampled_from(sorted(table)))]
    elif edit == "drop-diagonal":
        del table[(d, d)]
    elif edit == "bad-diagonal":
        table[(d, d)] = draw(st.sampled_from([STAR, (0, 0, 0), (1, 1, 0)]))
    elif edit == "empty":
        table.clear()
    return table


@given(ledger_tables())
@settings(max_examples=200, deadline=None)
def test_ledger_direct_and_parsed_agree(table):
    # declared n is the record's own n, so every refusal is a shape rule
    n = max((i for i, _ in table), default=0)
    direct = _outcome(lambda: LedgerMatrix(
        {cell: STAR if v == STAR else CohomDatum(*v) for cell, v in table.items()}))
    parsed = _outcome(lambda: LedgerMatrix.from_dict(
        n, {f"{i},{j}": "star" if v == STAR else list(v) for (i, j), v in table.items()}))
    assert direct == parsed


@st.composite
def bound_tables(draw):
    """A 2n x 2n table of null, INF and integer cells, then one edit: none, a
    dropped cell (a ragged row), an extra row, a dropped row, a bad cell or
    no rows."""
    n = draw(st.integers(1, 3))
    cell = st.one_of(st.none(), st.just(INF), st.integers(0, 5))
    rows = [[draw(cell) for _ in range(2 * n)] for _ in range(2 * n)]
    edit = draw(st.sampled_from(["none", "drop", "extra-row", "drop-row", "bad-cell", "empty"]))
    i, j = draw(st.integers(0, 2 * n - 1)), draw(st.integers(0, 2 * n - 1))
    if edit == "drop":
        del rows[i][j]
    elif edit == "extra-row":
        rows.append(list(rows[i]))
    elif edit == "drop-row":
        del rows[i]
    elif edit == "bad-cell":
        rows[i][j] = draw(st.sampled_from([-1, 1.5, True, "x", -INF]))
    elif edit == "empty":
        rows.clear()
    return rows


@given(bound_tables())
@settings(max_examples=200, deadline=None)
def test_bound_table_direct_and_parsed_agree(rows):
    direct = _outcome(lambda: ExtBoundMatrix(tuple(map(tuple, rows))))
    parsed = _outcome(lambda: ExtBoundMatrix.from_rows(
        len(rows) // 2, [["inf" if x == INF else x for x in row] for row in rows]))
    assert direct == parsed


@st.composite
def lattice_tables(draw):
    """A symmetric n x n Gram and a k of length n, then one edit: none, a
    dropped cell (a ragged row), an extra row, a short k or an empty Gram."""
    n = draw(st.integers(1, 3))
    upper = [[draw(st.integers(-3, 3)) for _ in range(n)] for _ in range(n)]
    gram = [[upper[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)]
    k = [draw(st.integers(-2, 2)) for _ in range(n)]
    edit = draw(st.sampled_from(["none", "drop", "extra-row", "short-k", "empty"]))
    i = draw(st.integers(0, n - 1))
    if edit == "drop":
        del gram[i][draw(st.integers(0, n - 1))]
    elif edit == "extra-row":
        gram.append(list(gram[i]))
    elif edit == "short-k":
        del k[i]
    elif edit == "empty":
        gram.clear()
    return gram, k


@given(lattice_tables())
@settings(max_examples=200, deadline=None)
def test_lattice_direct_and_parsed_agree(table):
    # the drawn Gram is symmetric, so make_lattice's own rule never refuses it
    gram, k = table
    direct = _outcome(lambda: PicardLattice(tuple(map(tuple, gram)), DivisorClass(k)))
    parsed = _outcome(lambda: make_lattice(len(gram), gram, DivisorClass(k)))
    assert direct == parsed
