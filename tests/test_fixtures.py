import copy
import hashlib
import json
import re
from functools import reduce
from operator import getitem
from types import MappingProxyType

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from barlowlat import linalg
from barlowlat.cli import main, run_verification
from barlowlat.errors import SchemaError, ToolkitError, UnknownName
from barlowlat.exceptional import CONFIG_GRAM, is_num_exceptional
from barlowlat.fixtures import (
    _B_LEVELS, _INTEGER_TABLES, B_KEYS, BASIS_NAMES, CURVE_NAMES, D8_FORK_GRAM, STAR_POSITIONS,
    BTable, FixtureSet, b_name, load_fixtures, shipped_fixture_text,
)
from barlowlat.heights import ABSENT, ExtBoundMatrix, height, single_segment_bound
from barlowlat.homledger import (
    STAR, CohomDatum, LedgerMatrix, StarChoice, formality_report, validate_ledger,
)
from barlowlat.lattice import DivisorClass, PicardLattice
from barlowlat.roots import CANONICAL_GRAM, EXTENDED_CARTAN

from compare_outputs import integer_leaves, set_cell
from root_oracle import is_root

EXPECTED_D8_GRAM = (
    (-2, 1, 0, 0, 0, 0, 0, 0),
    (1, -2, 1, 0, 0, 0, 0, 0),
    (0, 1, -2, 1, 0, 0, 0, 0),
    (0, 0, 1, -2, 1, 0, 0, 0),
    (0, 0, 0, 1, -2, 1, 0, 0),
    (0, 0, 0, 0, 1, -2, 1, 1),
    (0, 0, 0, 0, 0, 1, -2, 0),
    (0, 0, 0, 0, 0, 1, 0, -2),
)

EXPECTED_CANONICAL_GRAM = (
    (1, 0, 0, 0, 0, 0, 0, 0, 0),
    (0, -2, 0, -1, 0, 0, 0, 0, 0),
    (0, 0, -2, 0, 1, 0, 0, 0, 0),
    (0, -1, 0, -2, 1, 0, 0, 0, 0),
    (0, 0, 1, 1, -2, 1, 0, 0, 0),
    (0, 0, 0, 0, 1, -2, 1, 0, 0),
    (0, 0, 0, 0, 0, 1, -2, 1, 0),
    (0, 0, 0, 0, 0, 0, 1, -2, 1),
    (0, 0, 0, 0, 0, 0, 0, 1, -2),
)

#: the ten-root pattern of `exceptional`: the chain A1..A8, B1 on A3, B2 on A6
EXPECTED_CONFIG_GRAM = (
    (-2, 1, 0, 0, 0, 0, 0, 0, 0, 0),
    (1, -2, 1, 0, 0, 0, 0, 0, 0, 0),
    (0, 1, -2, 1, 0, 0, 0, 0, 1, 0),
    (0, 0, 1, -2, 1, 0, 0, 0, 0, 0),
    (0, 0, 0, 1, -2, 1, 0, 0, 0, 0),
    (0, 0, 0, 0, 1, -2, 1, 0, 0, 1),
    (0, 0, 0, 0, 0, 1, -2, 1, 0, 0),
    (0, 0, 0, 0, 0, 0, 1, -2, 0, 0),
    (0, 0, 1, 0, 0, 0, 0, 0, -2, -1),
    (0, 0, 0, 0, 0, 1, 0, 0, -1, -2),
)


def test_diagram_grams_are_the_written_out_tables():
    # the three (-2)-Grams are built from edge lists; these are the tables
    assert D8_FORK_GRAM == EXPECTED_D8_GRAM
    assert CONFIG_GRAM == EXPECTED_CONFIG_GRAM
    assert EXTENDED_CARTAN == tuple(row[1:] for row in EXPECTED_CANONICAL_GRAM[1:])
    assert CANONICAL_GRAM == EXPECTED_CANONICAL_GRAM


def test_shipped_fixture_loads_and_validates(fix):
    assert fix.lattice is not None
    assert fix.canonical.glue_tips == (4, 3)


def test_curve_table_rank(fix):
    assert linalg.rank_exact(fix.curves.gram) == 9


def test_perturbed_cell_rejected(raw_copy):
    raw_copy["curve_table"]["matrix"][0][8] = 4
    raw_copy["curve_table"]["matrix"][8][0] = 4
    with pytest.raises(ToolkitError, match="curve matrix has rank 11, expected 9"):
        load_fixtures(raw_copy)


def test_base_class_of_neither_glue_parity_rejected(raw_copy):
    # a c_table cell moves the genus-3 base class off both glue parities
    raw_copy["b_table"]["c_table"]["C1p"][0][0] = 1
    with pytest.raises(ToolkitError, match="genus-3 base class is not integral"):
        load_fixtures(raw_copy)


def test_asymmetric_table_rejected(raw_copy):
    raw_copy["curve_table"]["matrix"][0][1] = 5
    with pytest.raises(ToolkitError, match=r"curve matrix asymmetric at \(E1, E2\)"):
        load_fixtures(raw_copy)


def test_rank_error(raw_copy):
    # wipe out the node-curve rows: the table collapses below rank 9
    for i in range(10, 14):
        for j in range(14):
            raw_copy["curve_table"]["matrix"][i][j] = 0
            raw_copy["curve_table"]["matrix"][j][i] = 0
    with pytest.raises(ToolkitError, match="curve matrix has rank 7, expected 9"):
        load_fixtures(raw_copy)


def test_schema_error_on_garbage():
    with pytest.raises(SchemaError):
        load_fixtures({"curve_table": {"names": ["x"]}})
    with pytest.raises(SchemaError):
        load_fixtures("/nonexistent/path/fixture.json")


def _ledger_entries_as_list(raw):
    raw["ledger"]["entries"] = [[k, v] for k, v in raw["ledger"]["entries"].items()]


def _drop(*path):
    def mutate(raw):
        node = raw
        for key in path[:-1]:
            node = node[key]
        del node[path[-1]]

    return mutate


MALFORMED = {
    "ledger-entries-list": _ledger_entries_as_list,
    "e12-without-plus": _drop("b_table", "e12_values", "plus"),
    "e12-without-minus": _drop("b_table", "e12_values", "minus"),
    "l-values-without-plus": _drop("b_table", "l_values", "plus"),
    "l-values-without-minus": _drop("b_table", "l_values", "minus"),
    # integers are JSON integers: no truncated floats, bools or numeric strings
    "curve-cell-float": set_cell(-1.5, "curve_table", "matrix", 0, 0),
    "curve-cell-true": set_cell(True, "curve_table", "matrix", 0, 9),
    "curve-cell-string": set_cell("-1", "curve_table", "matrix", 0, 0),
    "d8-gram-true": set_cell(True, "d8", "gram", 0, 1),
    "chi-cell-float": set_cell(1.0, "chi_matrix", 0, 0),
    "b-k-value-float": set_cell(2.0, "b_table", "k_value"),
    "b-l-value-float": set_cell(1.0, "b_table", "l_values", "plus"),
    "b-c-table-true": set_cell(True, "b_table", "c_table", "C1p", 0, 1),
    "b-cross-cell-string": set_cell(["0", 3], "b_table", "cross_block_b_cells", 0),
    "combo-true": set_cell(True, "sequence", "L1", "E1"),
    "ledger-n-string": set_cell("11", "ledger", "n"),
    "ledger-triple-true": set_cell([True, 0, 0], "ledger", "entries", "1,1"),
    "ext-bounds-n-float": set_cell(11.0, "ext_bounds", "n"),
    "ext-bounds-cell-true": set_cell(True, "ext_bounds", "rows", 2, 0),
    "sequence-combo-list": set_cell([["E1", 1]], "sequence", "L1"),
    "c-table-list": set_cell([], "b_table", "c_table"),
    # names and shapes the formal pairing indexes by
    "curve-names-unknown": set_cell(["x"] * 14, "curve_table", "names"),
    "curve-matrix-13-rows": _drop("curve_table", "matrix", 13),
    "curve-row-13-cells": _drop("curve_table", "matrix", 0, 13),
    "d8-gram-7-rows": _drop("d8", "gram", 7),
    "format-missing": _drop("format"),
    "format-other": set_cell("barlowlat-fixture-v2", "format"),
}


@pytest.mark.parametrize("kind", sorted(MALFORMED))
def test_malformed_document_is_schema_error(raw_copy, kind, tmp_path, capsys):
    MALFORMED[kind](raw_copy)
    with pytest.raises(SchemaError):
        load_fixtures(raw_copy)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(raw_copy))
    assert main(["verify", "--fixtures", str(path)]) == 2
    assert "fixture error" in capsys.readouterr().err


# ------------------------------------------------- the model's own shape rules

def _rebuilt(record, **changes):
    """A record of the same type with some fields replaced, built directly."""
    return type(record)(**{**dict(zip(record._fields, record._values())), **changes})


def _cut_ledger_document(raw):
    """The document's ledger cut to rows 1..10, so it has no star."""
    raw["ledger"]["n"] = 10
    raw["ledger"]["entries"] = {key: v for key, v in raw["ledger"]["entries"].items()
                                if int(key.split(",")[0]) <= 10}


def _cut_ledger(fix):
    """The shipped ledger cut to rows 1..10, built directly."""
    return LedgerMatrix(MappingProxyType(
        {cell: v for cell, v in fix.ledger.entries.items() if cell[0] <= 10}))


def _without(table, name):
    return MappingProxyType({k: v for k, v in table.items() if k != name})


#: one table of the shipped model replaced, as a document edit and as the
#: fields a direct construction changes; the message is the one both give
MODEL_DEFECTS = {
    "d8-gram-7x7": (
        set_cell([row[:7] for row in EXPECTED_D8_GRAM[:7]], "d8", "gram"),
        lambda fix: {"d8_gram_expected": tuple(r[:7] for r in fix.d8_gram_expected[:7])},
        "d8.gram must have 8 entries"),
    "chi-matrix-10x10": (
        lambda raw: raw.update(chi_matrix=[row[:10] for row in raw["chi_matrix"][:10]]),
        lambda fix: {"chi_matrix": tuple(r[:10] for r in fix.chi_matrix[:10])},
        "chi_matrix must have 11 entries"),
    "ledger-n-10": (
        _cut_ledger_document,
        lambda fix: {"ledger": _cut_ledger(fix)},
        f"star entries at [], expected {sorted(STAR_POSITIONS)}"),
    "sequence-without-L11": (
        _drop("sequence", "L11"),
        lambda fix: {"sequence_defs": _without(fix.sequence_defs, "L11")},
        "sequence must have the keys L1, L2, L3, L4, L5, L6, L7, L8, L9, L10, L11"),
    "d8-defs-without-D8": (
        _drop("d8", "defs", "D8"),
        lambda fix: {"d8_defs": _without(fix.d8_defs, "D8")},
        "d8.defs must have the keys D1, D2, D3, D4, D5, D6, D7, D8"),
    "l-values-without-plus": (
        _drop("b_table", "l_values", "plus"),
        lambda fix: {"b_table": _rebuilt(fix.b_table,
                                         l_values=_without(fix.b_table.l_values, "plus"))},
        "b_table.l_values must have the keys plus, minus"),
    "c-table-C1p-1x2": (
        set_cell([[0, 1]], "b_table", "c_table", "C1p"),
        lambda fix: {"b_table": _rebuilt(fix.b_table, c_table=MappingProxyType(
            {**fix.b_table.c_table, "C1p": ((0, 1),)}))},
        "b_table.c_table.C1p must have 2 entries"),
    **{f"cross-block-cell-{name}": (
        set_cell(list(cell), "b_table", "cross_block_b_cells", 1),
        lambda fix, cell=cell: {"b_table": _rebuilt(fix.b_table, cross_block_b_cells=(
            fix.b_table.cross_block_b_cells[0], cell, *fix.b_table.cross_block_b_cells[2:]))},
        "b_table.cross_block_b_cells[1] must have 2 entries")
       for name, cell in (("triple", (0, 1, 2)), ("single", (0,)))},
}


@pytest.mark.parametrize("name", sorted(MODEL_DEFECTS))
def test_a_model_built_directly_checks_its_shape(fix, raw_copy, name):
    # before, a direct construction skipped these rules: the 7x7 d8 Gram
    # verified 16/16, and the others ended in a bare IndexError or KeyError;
    # a cross-block cell that is no pair was never matched by the genus-3 stage
    edit, changes, message = MODEL_DEFECTS[name]
    edit(raw_copy)
    with pytest.raises(SchemaError) as parsed:
        FixtureSet.from_dict(raw_copy)
    with pytest.raises(SchemaError) as direct:
        _rebuilt(fix, **changes(fix))
    assert str(parsed.value) == str(direct.value) == message


def _with_cell(rows, i, j, value):
    return tuple(row[:j] + (value,) + row[j + 1:] if k == i else row
                 for k, row in enumerate(rows))


#: one table, container or cell of the shipped model of the wrong type, built
#: directly; before the records checked their types, the chi and d8.gram
#: defects verified 16/16, the b_table and b_relation ones ended
#: run_verification in a bare TypeError, and the rest in an AttributeError.
#: A table given as lists is no defect (message None): it is stored frozen.
TYPE_DEFECTS = {
    "chi-cell-float": (lambda fix: {"chi_matrix": _with_cell(fix.chi_matrix, 0, 0, 1.0)},
                       "chi_matrix[0][0]: 1.0 is not an integer"),
    "chi-matrix-lists": (lambda fix: {"chi_matrix": [list(row) for row in fix.chi_matrix]},
                         None),
    "d8-gram-true": (lambda fix: {"d8_gram_expected": _with_cell(fix.d8_gram_expected, 0, 1, True)},
                     "d8.gram[0][1]: True is not an integer"),
    "l-values-plus-float": (
        lambda fix: {"b_table": _rebuilt(fix.b_table, l_values=MappingProxyType(
            {**fix.b_table.l_values, "plus": 1.0}))},
        "b_table.l_values.plus: 1.0 is not an integer"),
    "relation-rhs-K-float": (
        lambda fix: {"relation_rhs": MappingProxyType({**fix.relation_rhs, "K": 8.0})},
        "b_relation.rhs.K: 8.0 is not an integer"),
    "k-value-string": (lambda fix: {"b_table": _rebuilt(fix.b_table, k_value="2")},
                       "b_table.k_value: '2' is not an integer"),
    "chi-rows-lists": (lambda fix: {"chi_matrix": tuple(map(list, fix.chi_matrix))}, None),
    "d8-defs-D1-int": (lambda fix: {"d8_defs": MappingProxyType({**fix.d8_defs, "D1": 5})},
                       "d8.defs.D1 must be an object"),
    "ledger-dict": (lambda fix: {"ledger": {}}, "ledger is of type dict, not LedgerMatrix"),
    "ext-bounds-rows": (lambda fix: {"ext_bounds": fix.ext_bounds.rows},
                        "ext_bounds is of type tuple, not ExtBoundMatrix"),
}


@pytest.mark.parametrize("name", sorted(TYPE_DEFECTS))
def test_a_model_built_directly_checks_its_types(fix, name):
    # before, a list was refused ("chi_matrix is of type list, not tuple") and
    # a wrong kind named by its type ("... is of type int, not mappingproxy")
    changes, message = TYPE_DEFECTS[name]
    if message is None:
        built = _rebuilt(fix, **changes(fix))
        assert built == fix and type(built.chi_matrix[0]) is tuple
        with pytest.raises(TypeError):
            built.chi_matrix[0][0] = 0
        return
    with pytest.raises(SchemaError) as exc:
        _rebuilt(fix, **changes(fix))
    assert str(exc.value) == message


def test_a_b_table_built_directly_checks_its_types(fix):
    bt = fix.b_table
    with pytest.raises(SchemaError, match=r"^b_table\.k_value: True is not an integer$"):
        _rebuilt(bt, k_value=True)
    # the index is the bad k's place in its list: the second k of E3p's i = 0
    hits = MappingProxyType({**bt.e_hit_ks, "E3p": MappingProxyType(
        {**bt.e_hit_ks["E3p"], "0": (bt.e_hit_ks["E3p"]["0"][0], 1.5)})})
    with pytest.raises(SchemaError) as exc:
        _rebuilt(bt, e_hit_ks=hits)
    assert str(exc.value) == "b_table.e_hit_ks.E3p.0[1]: 1.5 is not an integer"
    # the cross-block cells keep the document's order, so the index names the
    # pair, then the place in it: k2 of the first pair
    cells = ((0, "3"), *bt.cross_block_b_cells[1:])
    with pytest.raises(SchemaError) as exc:
        _rebuilt(bt, cross_block_b_cells=cells)
    assert str(exc.value) == "b_table.cross_block_b_cells[0][1]: '3' is not an integer"


def _built_from_json(raw, digest):
    """The model built directly from a document's tables as `json.loads` gives
    them: lists and dicts, with only the ledger and the bounds parsed."""
    return FixtureSet(
        digest=digest, curve_matrix=raw["curve_table"]["matrix"],
        b_table=BTable(**raw["b_table"]), d8_defs=raw["d8"]["defs"],
        d8_gram_expected=raw["d8"]["gram"], sequence_defs=raw["sequence"],
        chi_matrix=raw["chi_matrix"],
        ledger=LedgerMatrix.from_dict(raw["ledger"]["n"], raw["ledger"]["entries"]),
        ext_bounds=ExtBoundMatrix.from_rows(raw["ext_bounds"]["n"], raw["ext_bounds"]["rows"]),
        relation_lhs=raw["b_relation"]["lhs"], relation_rhs=raw["b_relation"]["rhs"])


def test_a_model_built_from_json_tables_is_the_parsed_model(fix):
    raw = json.loads(shipped_fixture_text())
    built, parsed = _built_from_json(raw, fix.digest), FixtureSet.from_dict(raw)
    assert built == parsed == fix
    assert run_verification(built, "both") == run_verification(parsed, "both")


def test_a_record_keeps_no_alias_of_what_it_is_given(fix):
    # before, LedgerMatrix and ExtBoundMatrix kept the caller's containers: two
    # cells added to d after LedgerMatrix(d) left n cached at 1 while entries
    # held 3, and rows[1][0] = -5 made entry(2, 1) return a value the record refuses
    one = CohomDatum(1, 0, 0)
    d = {(1, 1): one}
    ledger = LedgerMatrix(d)
    assert ledger.n == 1
    d[(2, 1)], d[(2, 2)] = STAR, one
    assert ledger.n == 1 and dict(ledger.entries) == {(1, 1): one}
    rows = [[None, None], [1, None]]
    bounds = ExtBoundMatrix(rows)
    rows[1][0] = -5
    assert bounds.entry(2, 1) == 1 and bounds.rows == ((None, None), (1, None))
    raw = json.loads(shipped_fixture_text())
    b_table, model = BTable(**raw["b_table"]), _built_from_json(raw, fix.digest)
    raw["b_table"]["c_table"]["C1p"][0][0] += 1
    raw["b_table"]["e_hit_ks"]["E3p"]["0"].append(3)
    raw["curve_table"]["matrix"][0][1] = 5
    raw["d8"]["defs"]["D1"]["K"] = 1
    raw["sequence"].pop("L11")
    assert b_table == model.b_table == fix.b_table and model == fix
    model.validate()


def test_the_declared_sizes_are_checked_by_their_readers(raw_copy):
    # ledger.n keeps its text; ext_bounds.n gets from_rows's own
    raw_copy["ledger"]["n"] = 11.0
    with pytest.raises(SchemaError, match=r"^ledger\.n: 11\.0 is not an integer$"):
        FixtureSet.from_dict(raw_copy)
    raw_copy["ledger"]["n"], raw_copy["ext_bounds"]["n"] = 11, 1.5
    with pytest.raises(SchemaError, match=r"^n must be a positive integer, got 1\.5$"):
        FixtureSet.from_dict(raw_copy)


#: every declared plain table of the document: (JSON path, containers)
DECLARED_TABLES = (*((f"b_table.{field}", levels) for field, levels in _B_LEVELS.items()),
                   *((where, levels) for _, where, levels in _INTEGER_TABLES))


def test_the_declarations_cover_the_model(raw_fixture):
    # so a new table cannot escape the decoding or the type rule
    assert tuple(_B_LEVELS) == BTable._fields
    fields = [field for field, _, _ in _INTEGER_TABLES]
    others = {"digest", "b_table", "ledger", "ext_bounds"}
    assert sorted(fields) == sorted(set(FixtureSet._fields) - others)
    for where, _ in DECLARED_TABLES:
        assert reduce(getitem, where.split("."), raw_fixture) is not None, where


#: every path `from_dict` reads: the declared tables, the curve names and the
#: fields of the ledger and of the bound table
READ_PATHS = (*(where for where, _ in DECLARED_TABLES), "curve_table.names",
              "ledger.n", "ledger.entries", "ext_bounds.n", "ext_bounds.rows")


def _container_faults(raw):
    """For each object above a read path, and for each declared table and each
    container level on its path, the other JSON container kind there (an
    array's cells keyed "0", "1", ..., or an object's values), a number, a
    string and null; at a sized level (an int n) also an array one entry short
    and one entry long, and at a keyed level (a tuple of names) an object
    missing its first key and one with an extra key: (keys, message, value)."""
    keys_above = {tuple(keys[:i]) for keys in (where.split(".") for where in READ_PATHS)
                  for i in range(1, len(keys))}
    for keys in sorted(keys_above):
        path, other = ".".join(keys), list(reduce(getitem, keys, raw).values())
        for kind, value in (("other", other), ("number", 0), ("string", "x"), ("null", None)):
            yield pytest.param(list(keys), f"{path} must be an object", value, id=f"{path}-{kind}")
    for where, levels in DECLARED_TABLES:
        keys = where.split(".")
        path, node = where, reduce(getitem, keys, raw)
        for level in levels:
            keyed = level is MappingProxyType or isinstance(level, tuple)
            other = list(node.values()) if keyed else {str(i): x for i, x in enumerate(node)}
            message = f"{path} must be {'an object' if keyed else 'an array'}"
            for kind, value in (("other", other), ("number", 0), ("string", "x"), ("null", None)):
                yield pytest.param(keys, message, value, id=f"{path}-{kind}")
            if isinstance(level, int):
                message = f"{path} must have {level} entries"
                for kind, value in (("short", node[:-1]), ("long", [*node, node[0]])):
                    yield pytest.param(keys, message, value, id=f"{path}-{kind}")
            if isinstance(level, tuple):
                message = f"{path} must have the keys {', '.join(level)}"
                missing = {k: v for k, v in node.items() if k != level[0]}
                for kind, value in (("missing", missing), ("extra", {**node, "X": node[level[0]]})):
                    yield pytest.param(keys, message, value, id=f"{path}-{kind}")
            key = next(iter(node)) if keyed else 0
            keys, node = [*keys, key], node[key]
            path += f".{key}" if keyed else f"[{key}]"


@pytest.mark.parametrize("keys, message, value", [
    *_container_faults(json.loads(shipped_fixture_text())),
    # an object where an array belongs is not read as its keys
    pytest.param(["b_table", "c_table", "C1p"], "b_table.c_table.C1p must be an array",
                 {"a": 1}, id="C1p-object-of-one-key"),
    # nor are the curve names, which would then match
    pytest.param(["curve_table", "names"], "curve_table.names must be an array",
                 dict.fromkeys(CURVE_NAMES, 1), id="curve-names-object"),
])
def test_a_wrong_container_is_named_by_its_path(raw_copy, tmp_path, capsys, keys, message, value):
    # a string or an object where an array belongs is not read character by
    # character or key by key, nor is an array where an object belongs an
    # AttributeError of the decoding; an object above a table of another kind
    # was "fixture document malformed: list indices must be integers ..."
    set_cell(value, *keys)(raw_copy)
    with pytest.raises(SchemaError) as exc:
        FixtureSet.from_dict(raw_copy)
    assert str(exc.value) == message
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(raw_copy))
    assert main(["verify", "--fixtures", str(path)]) == 2
    assert capsys.readouterr() == ("", f"fixture error: {message}\n")


def _square_edit(draw, rows):
    """A square table's rows as lists, with a row or a cell dropped, or a row
    or a column added."""
    rows = [list(row) for row in rows]
    i = draw(st.integers(0, len(rows) - 1))
    edit = draw(st.sampled_from(["drop-row", "drop-cell", "extra-row", "extra-column"]))
    if edit == "drop-row":
        del rows[i]
    elif edit == "drop-cell":
        del rows[i][draw(st.integers(0, len(rows[i]) - 1))]
    elif edit == "extra-row":
        rows.append(list(rows[i]))
    else:
        for row in rows:
            row.append(0)
    return rows


def _names_edit(draw, names, extra):
    """An edit of a name-keyed table: a drawn name dropped, renamed to extra,
    or copied to extra."""
    name = draw(st.sampled_from(sorted(names)))
    edit = draw(st.sampled_from(["drop", "rename", "copy"]))

    def apply(table):
        out = dict(table)
        value = out[name] if edit == "copy" else out.pop(name)
        if edit != "drop":
            out[extra] = value
        return out

    return apply


def _shape_fault(draw, fix, raw):
    """One shape fault, drawn among the rules `FixtureSet` and `BTable` check:
    (the document with it, a thunk building the shipped model's fields with
    the same table replaced)."""
    doc = copy.deepcopy(raw)
    table = draw(st.sampled_from(["curves", "d8.gram", "chi_matrix", "d8.defs", "sequence",
                                  "ledger", "ext_bounds", "b_table"]))
    if table == "curves":
        m = draw(st.integers(1, 13))
        rows = [row[:m] for row in raw["curve_table"]["matrix"][:m]]
        doc["curve_table"]["matrix"] = rows
        changes = {"curve_matrix": tuple(map(tuple, rows))}
    elif table in ("d8.gram", "chi_matrix"):
        field, path = {"d8.gram": ("d8_gram_expected", ("d8", "gram")),
                       "chi_matrix": ("chi_matrix", ("chi_matrix",))}[table]
        rows = _square_edit(draw, getattr(fix, field))
        set_cell(rows, *path)(doc)
        changes = {field: tuple(map(tuple, rows))}
    elif table in ("d8.defs", "sequence"):
        field, node, key, extra = {"d8.defs": ("d8_defs", doc["d8"], "defs", "D9"),
                                   "sequence": ("sequence_defs", doc, "sequence", "L12")}[table]
        apply = _names_edit(draw, getattr(fix, field), extra)
        node[key] = apply(node[key])
        changes = {field: MappingProxyType(apply(getattr(fix, field)))}
    elif table == "ledger":
        edit = draw(st.sampled_from(["last-row-dropped", "extra-row", "star-moved"]))
        entries = dict(fix.ledger.entries)
        if edit == "last-row-dropped":
            _cut_ledger_document(doc)
            entries = dict(_cut_ledger(fix).entries)
        elif edit == "extra-row":
            doc["ledger"]["n"] = 12
            for j in range(1, 13):
                doc["ledger"]["entries"][f"12,{j}"] = [int(j == 12), 0, 0]
                entries[(12, j)] = CohomDatum(int(j == 12), 0, 0)
        else:
            i = draw(st.integers(2, 11))
            j = draw(st.integers(1, i - 1))
            star = entries[(i, j)] == STAR
            doc["ledger"]["entries"][f"{i},{j}"] = [0, 0, 0] if star else "star"
            entries[(i, j)] = CohomDatum(0, 0, 0) if star else STAR
        changes = {"ledger": LedgerMatrix(MappingProxyType(entries))}
    elif table == "ext_bounds":
        size = 2 * draw(st.integers(1, 10))   # n = 1..10
        rows = raw["ext_bounds"]["rows"]
        doc["ext_bounds"] = {"n": size // 2, "rows": [row[:size] for row in rows[:size]]}
        rows = fix.ext_bounds.rows
        changes = {"ext_bounds": ExtBoundMatrix(tuple(row[:size] for row in rows[:size]))}
    else:
        bt, raw_bt = fix.b_table, doc["b_table"]
        field = draw(st.sampled_from(["l_values", "e12_values", "c_table", "c_table grid",
                                      "e_hit_ks", "e_hit_ks keys"]))
        if field == "c_table grid":
            name = draw(st.sampled_from(sorted(bt.c_table)))
            rows = _square_edit(draw, bt.c_table[name])
            raw_bt["c_table"][name] = rows
            new = {"c_table": MappingProxyType({**bt.c_table, name: tuple(map(tuple, rows))})}
        elif field == "e_hit_ks keys":
            name = draw(st.sampled_from(sorted(bt.e_hit_ks)))
            apply = _names_edit(draw, bt.e_hit_ks[name], "2")
            raw_bt["e_hit_ks"][name] = apply(raw_bt["e_hit_ks"][name])
            new = {"e_hit_ks": MappingProxyType(
                {**bt.e_hit_ks, name: MappingProxyType(apply(bt.e_hit_ks[name]))})}
        else:   # a key set: l_values and e12_values refuse an extra key too
            apply = _names_edit(draw, getattr(bt, field), "X")
            raw_bt[field] = apply(raw_bt[field])
            new = {field: MappingProxyType(apply(getattr(bt, field)))}
        return doc, lambda: _rebuilt(fix, b_table=_rebuilt(bt, **new))
    return doc, lambda: _rebuilt(fix, **changes)


#: the model field that holds each integer table of the document, by its JSON path
MODEL_FIELDS = {
    ("curve_table", "matrix"): "curve_matrix", ("d8", "defs"): "d8_defs",
    ("d8", "gram"): "d8_gram_expected", ("sequence",): "sequence_defs",
    ("chi_matrix",): "chi_matrix", ("b_relation", "lhs"): "relation_lhs",
    ("b_relation", "rhs"): "relation_rhs",
}
#: the document's integer tables: the model's, each field of the b_table, the
#: ledger's triples and the bound rows (the declared sizes n have no field)
INTEGER_TABLES = (*MODEL_FIELDS, *(("b_table", f) for f in BTable._fields),
                  ("ledger", "entries"), ("ext_bounds", "rows"))


def _replaced(node, keys, new):
    """A tuple or read-only mapping with the leaf at keys replaced by new."""
    if not keys:
        return new
    key, rest = keys[0], keys[1:]
    if isinstance(node, tuple):
        return (*node[:key], _replaced(node[key], rest, new), *node[key + 1:])
    return MappingProxyType({**node, key: _replaced(node[key], rest, new)})


def _type_fault(draw, fix, raw):
    """A float, True or a string in one integer leaf of the document's tables:
    (the document with it, a thunk building the shipped model's fields with
    the same cell replaced)."""
    doc = copy.deepcopy(raw)
    table = draw(st.sampled_from(INTEGER_TABLES))
    node = raw
    for key in table:
        node = node[key]
    keys = draw(st.sampled_from(list(integer_leaves(node))))
    old = node
    for key in keys:
        old = old[key]
    new = draw(st.sampled_from([float(old), old + 0.5, True, str(old)]))
    set_cell(new, *table, *keys)(doc)
    if table in MODEL_FIELDS:
        field = MODEL_FIELDS[table]
        value = _replaced(getattr(fix, field), keys, new)
        return doc, lambda: _rebuilt(fix, **{field: value})
    if table[0] == "b_table":
        value = _replaced(getattr(fix.b_table, table[1]), keys, new)
        return doc, lambda: _rebuilt(fix, b_table=_rebuilt(fix.b_table, **{table[1]: value}))
    if table[0] == "ledger":
        (i, j), h = map(int, keys[0].split(",")), keys[1]
        triple = list(fix.ledger.entries[(i, j)].triple)
        triple[h] = new
        return doc, lambda: _rebuilt(fix, ledger=LedgerMatrix(MappingProxyType(
            {**fix.ledger.entries, (i, j): CohomDatum(*triple)})))
    rows = _replaced(fix.ext_bounds.rows, keys, new)
    return doc, lambda: _rebuilt(fix, ext_bounds=ExtBoundMatrix(rows))


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_a_shape_fault_gives_the_same_error_parsed_or_built(fix, raw_fixture, data):
    # a type fault too: the integer rule is the records' own, on both paths
    fault = data.draw(st.sampled_from([_shape_fault, _type_fault]))
    doc, build = fault(data.draw, fix, raw_fixture)
    with pytest.raises(SchemaError) as parsed:
        FixtureSet.from_dict(doc)
    with pytest.raises(SchemaError) as direct:
        build()
    assert str(direct.value) == str(parsed.value)


def test_d8_basis(fix, lat):
    ds = [fix.curve_class(f"D{i}") for i in range(1, 9)]
    gram = tuple(tuple(lat.pair(a, b) for b in ds) for a in ds)
    assert gram == EXPECTED_D8_GRAM
    for d in ds:
        assert is_root(lat, d)
        assert lat.pair(d, lat.k) == 0


def test_canonical_basis_gram_and_det(fix, lat):
    basis = [fix.curve_class(n) for n in BASIS_NAMES]
    gram = tuple(tuple(lat.pair(a, b) for b in basis) for a in basis)
    assert gram == EXPECTED_CANONICAL_GRAM
    assert abs(int(linalg.det_exact(gram))) == 1
    assert fix.curve_class("K").coords == (1, 0, 0, 0, 0, 0, 0, 0, 0)
    assert fix.curve_class("D2") == basis[8]
    e = fix.curve_class("e")
    assert lat.pair(e, e) == -2


def test_sublattice_index_two(fix, lat):
    # (K, D1..D8) spans an index-2 sublattice: |det| = 4
    vecs = [fix.curve_class("K")] + [fix.curve_class(f"D{i}") for i in range(1, 9)]
    gram = [[lat.pair(a, b) for b in vecs] for a in vecs]
    assert abs(int(linalg.det_exact(gram))) == 4


def test_curve_coordinates_frozen(fix):
    assert fix.curve_class("E1").coords == (1, -2, 2, 3, 4, 3, 2, 2, 1)
    assert fix.curve_class("e").coords == (0, 1, 0, 0, 0, 0, 0, 0, 0)
    assert fix.curve_class("Bp000").coords == (2, 1, 0, -1, -1, -1, -1, 0, 0)


def test_curve_table_roundtrip(fix, lat):
    for a, row in zip(CURVE_NAMES, fix.curves.gram):
        for b, ab in zip(CURVE_NAMES, row):
            assert lat.pair(fix.curve_class(a), fix.curve_class(b)) == ab


def test_the_formal_curve_lattice_pairs_by_the_curve_table(fix, raw_fixture):
    units = [DivisorClass([int(i == j) for j in range(14)]) for i in range(14)]
    got = [list(row) for row in fix.curves.pairings(units, units)]
    assert got == raw_fixture["curve_table"]["matrix"]
    assert fix.curves.k == units[CURVE_NAMES.index("K")]
    # a cached stage over the stored curve table
    assert fix.curves is fix.curves and fix.curves.gram is fix.curve_matrix


def test_unknown_name(fix):
    with pytest.raises(UnknownName):
        fix.curve_class("E9")


# --- genus-3 classes ---------------------------------------------------------------

def test_b_classes_all_reconstruct(fix, lat):
    bs = fix.b_classes()
    assert len(bs) == 32
    assert len({c.coords for c in bs.values()}) == 32
    for c in bs.values():
        assert lat.pair(c, c) == 2
        assert lat.pair(c, lat.k) == 2


def test_b_block_values(fix, lat):
    bs = fix.b_classes()
    for k1 in B_KEYS:
        for k2 in B_KEYS:
            if k1 == k2:
                continue
            got = lat.pair(bs[b_name(*k1)], bs[b_name(*k2)])
            assert got == fix.b_table.expected_pairing(k1, k2)


def test_b_pentagon_rule(fix, lat):
    bs = fix.b_classes()
    l_curve = fix.curve_class("L")
    k = fix.curve_class("K")
    for key in B_KEYS:
        q = key[0]
        assert lat.pair(bs[b_name(*key)] - 2 * k, l_curve) == -q


def test_b_base_row_matches_frozen_values(fix, lat):
    b = fix.curve_class("Bp000")
    row = [lat.pair(b, fix.curve_class(n)) for n in CURVE_NAMES]
    assert row == [2, 2, 3, 2, 3, 2, 3, 2, 1, 2, 0, 1, 1, 0]


def test_doubling_relation(fix):
    c = fix.curve_class
    lhs = 2 * c("Bp000")
    rhs = 8 * c("K") - c("L") - c("E3p") - c("E4p") - c("E5p") - c("C1m") - c("C2p")
    assert lhs == rhs


@pytest.mark.xfail(
    strict=True,
    reason="source table displays +C1p in the doubling relation; that sign "
    "forces a negative intersection with an irreducible curve and "
    "contradicts the frozen pairing row, so it cannot hold",
)
def test_doubling_relation_displayed_variant(fix):
    c = fix.curve_class
    lhs = 2 * c("Bp000")
    rhs = 8 * c("K") - c("L") - c("E3p") - c("E4p") - c("E5p") + c("C1p") - c("C2p")
    assert lhs == rhs


def test_linkage_identities(fix):
    c = fix.curve_class
    k = c("K")
    corrections = c("C1m") + c("C2p")
    assert 5 * k - c("E3p") - c("Bp000") - corrections == c("Bp001")
    assert 5 * k - c("E4p") - c("Bp000") - corrections == c("Bp002")
    assert 5 * k - c("E5p") - c("Bp000") - corrections == c("Bp003")
    for kk in range(4):
        assert 4 * k - c(f"Bp00{kk}") - corrections == c(f"Bm00{kk}")


def test_relation_violation_detected(raw_copy):
    raw_copy["b_relation"]["rhs"]["K"] = 9
    with pytest.raises(ToolkitError, match="doubling relation fails"):
        load_fixtures(raw_copy)


# --- sequence ------------------------------------------------------------------

def test_sequence_chi_matrix_cells(fix, lat):
    seq = fix.sequence
    chi = [[lat.chi(seq[i] - seq[j]) for j in range(11)] for i in range(11)]
    assert tuple(tuple(r) for r in chi) == fix.chi_matrix
    assert chi[6][0] == -1          # cell (7, 1)
    assert all(chi[i][i] == 1 for i in range(11))


def test_sequence_degrees(fix, lat):
    degrees = [lat.pair(c, lat.k) for c in fix.sequence]
    assert degrees == [0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 0]


def test_the_dual_collection_reverses_every_table(fix, lat):
    # E'_k = -L_(12-k), whose orthogonal complement is the other phantom: chi
    # and ledger cell (i, j) go to (12 - j, 12 - i), bound cell (a, b) to
    # (23 - b, 23 - a); the stars land in column 1, off STAR_POSITIONS
    seq, ledger, rows = fix.sequence, fix.ledger, fix.ext_bounds.rows
    dual = [-seq[10 - k] for k in range(11)]
    chi, dual_chi = lat.euler_matrix(seq), lat.euler_matrix(dual)
    assert dual_chi == [[chi[10 - j][10 - i] for j in range(11)] for i in range(11)]
    assert is_num_exceptional(lat, dual)[0]

    bounds = ExtBoundMatrix(rows=tuple(tuple(rows[21 - b][21 - a] for b in range(22))
                                       for a in range(22)))
    assert ([[x is ABSENT for x in row] for row in bounds.rows]
            == [[x is ABSENT for x in row] for row in rows])
    assert (height(bounds), single_segment_bound(bounds)) == (2, 2)

    cells = {(i, j): ledger.entries[(12 - j, 12 - i)] for i, j in ledger.entries}
    dual_ledger = LedgerMatrix.from_dict(
        11, {f"{i},{j}": v if v == STAR else list(v.triple) for (i, j), v in cells.items()})
    assert dual_ledger.star_positions == {(12 - j, 12 - i) for i, j in STAR_POSITIONS}
    validate_ledger(dual_ledger, dual_chi)
    for stars in StarChoice:
        assert formality_report(dual_ledger, stars) == formality_report(ledger, stars)


def test_chi_matrix_mismatch_detected(raw_copy):
    raw_copy["chi_matrix"][2][0] = 7
    with pytest.raises(ToolkitError, match=r"chi matrix differs at \(3,1\): -1 != 7"):
        load_fixtures(raw_copy)


def test_degree1_elliptic_classes(fix, lat):
    classes = fix.degree1_elliptic_classes()
    assert len(classes) == 14
    assert len({c.coords for c in classes}) == 14
    for c in classes:
        assert lat.pair(c, c) == -1
        assert lat.pair(c, lat.k) == 1
    e1 = fix.curve_class("E1")
    c1p = fix.curve_class("C1p")
    assert lat.pair(e1 + c1p, e1 + c1p) == -1
    assert fix.curve_class("E3p") in classes


def test_genus3_reports_a_class_of_the_wrong_degree(monkeypatch):
    # the solver is patched to hand back -Bp000; it is distinct from the other
    # 31 classes and has square 2, so the (self, degree) check is what fails
    solve = PicardLattice.classes_from_pairings

    def negate_first(self, probes, values):
        first, *rest = solve(self, probes, values)
        return [-first, *rest]

    monkeypatch.setattr(PicardLattice, "classes_from_pairings", negate_first)
    fresh = load_fixtures(validate=False)
    message = "Bp000 has (self, degree) = (2, -2), expected (2, 2)"
    for _ in range(2):   # a failed stage caches nothing and fails again
        with pytest.raises(ToolkitError, match=re.escape(message)):
            fresh.genus3


def test_degree1_classes_report_a_class_of_the_wrong_degree(monkeypatch):
    curve_class = FixtureSet.curve_class

    def negate_e3p(self, name):
        cls = curve_class(self, name)
        return -cls if name == "E3p" else cls

    monkeypatch.setattr(FixtureSet, "curve_class", negate_e3p)
    fresh = load_fixtures(validate=False)
    e3p = -fresh.canonical.classes["E3p"]
    with pytest.raises(ToolkitError, match=re.escape(
        f"degree-1 class {e3p.coords} fails (square, degree) = (-1, 1)"
    )):
        fresh.degree1_elliptic_classes()


def test_every_named_class_roundtrips(fix, lat):
    probes = [fix.curve_class(n) for n in CURVE_NAMES]
    names = (
        list(CURVE_NAMES)
        + [f"D{i}" for i in range(1, 9)]
        + ["e"]
        + sorted(fix.b_classes())
        + [f"L{i}" for i in range(1, 12)]
    )
    for name in names:
        cls = fix.curve_class(name)
        values = [lat.pair(cls, p) for p in probes]
        assert lat.class_from_pairings(probes, values) == cls


def test_fixture_hash_stable(fix, raw_fixture):
    again = FixtureSet.from_dict(raw_fixture)
    assert fix.digest == again.digest
    assert len(fix.digest) == 64


def test_fixture_hash_is_the_sha256_of_the_canonical_dump(fix, raw_fixture, tmp_path):
    # the digest may come from a builtin sha256 module; it must equal hashlib's
    def hashlib_digest(raw):
        blob = json.dumps(raw, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()

    path = tmp_path / "reserialized.json"
    path.write_text(json.dumps(raw_fixture, indent=3))
    again = load_fixtures(path, validate=False)
    assert fix.digest == hashlib_digest(raw_fixture)
    written = json.loads(path.read_text())
    assert again.digest == hashlib_digest(written) == fix.digest


def test_fixture_hash_ignores_edits_after_loading(fix, raw_copy):
    # the hash is of the document as read; an edit to a nested table of the
    # caller's dict afterwards changes neither the parsed tables nor the hash
    again = FixtureSet.from_dict(raw_copy)
    raw_copy["sequence"]["L1"]["K"] = 12345
    assert again.digest == fix.digest


#: every table and stage of the loaded model that is a mapping
READ_ONLY_TABLES = {
    "d8_defs": lambda fix: fix.d8_defs,
    "d8_defs.D1": lambda fix: fix.d8_defs["D1"],
    "sequence_defs": lambda fix: fix.sequence_defs,
    "sequence_defs.L1": lambda fix: fix.sequence_defs["L1"],
    "relation_lhs": lambda fix: fix.relation_lhs,
    "relation_rhs": lambda fix: fix.relation_rhs,
    "b_table.l_values": lambda fix: fix.b_table.l_values,
    "b_table.e12_values": lambda fix: fix.b_table.e12_values,
    "b_table.c_table": lambda fix: fix.b_table.c_table,
    "b_table.e_hit_ks": lambda fix: fix.b_table.e_hit_ks,
    "b_table.e_hit_ks.E3p": lambda fix: fix.b_table.e_hit_ks["E3p"],
    "ledger.entries": lambda fix: fix.ledger.entries,
    "canonical.classes": lambda fix: fix.canonical.classes,
    "genus3": lambda fix: fix.genus3,
}


@pytest.mark.parametrize("table", list(READ_ONLY_TABLES))
def test_loaded_tables_refuse_item_assignment(table):
    fix = load_fixtures(validate=False)
    mapping = READ_ONLY_TABLES[table](fix)
    key = next(iter(mapping))
    with pytest.raises(TypeError):
        mapping[key] = mapping[key]
    with pytest.raises(TypeError):
        del mapping[key]
    with pytest.raises(TypeError):
        mapping["new"] = mapping[key]
    assert READ_ONLY_TABLES[table](fix) is mapping and key in mapping


def test_loaded_tables_hold_no_list(fix):
    # the rows and hit lists are tuples, so no cell can be edited in place either
    assert all(type(ks) is tuple for per_i in fix.b_table.e_hit_ks.values()
               for ks in per_i.values())
    assert all(type(row) is tuple for grid in fix.b_table.c_table.values() for row in grid)


def test_an_edit_after_load_raises_at_the_edit():
    # the model a verify report names by fixture_hash is the one it checks:
    # an edit of a loaded table raises, and the report then passes every check
    fix = load_fixtures(validate=False)
    with pytest.raises(TypeError):
        fix.sequence_defs["L1"]["E1"] += 1
    with pytest.raises(TypeError):
        fix.sequence_defs["L1"]["K"] = 1
    with pytest.raises(TypeError):
        fix.genus3["Bp000"] = fix.genus3["Bp001"]
    assert fix.sequence_defs["L1"] == load_fixtures(validate=False).sequence_defs["L1"]
    assert run_verification(fix, "both")["summary"] == {"pass": 16, "fail": 0, "skipped": 0}


def test_b_classes_is_a_fresh_dict(fix):
    classes = fix.b_classes()
    classes["Bp000"] = classes["Bp001"]
    assert type(classes) is dict and fix.b_classes()["Bp000"] == fix.genus3["Bp000"]
    assert fix.b_classes()["Bp000"] != fix.b_classes()["Bp001"]
