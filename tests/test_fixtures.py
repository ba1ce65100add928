import hashlib
import json
import re

import pytest

from barlowlat import linalg
from barlowlat.cli import main, run_verification
from barlowlat.errors import SchemaError, ToolkitError, UnknownName
from barlowlat.exceptional import CONFIG_GRAM, is_num_exceptional
from barlowlat.fixtures import (
    B_KEYS, BASIS_NAMES, CURVE_NAMES, D8_FORK_GRAM, STAR_POSITIONS, FixtureSet, b_name,
    load_fixtures,
)
from barlowlat.heights import ABSENT, ExtBoundMatrix, height, single_segment_bound
from barlowlat.homledger import STAR, LedgerMatrix, StarChoice, formality_report, validate_ledger
from barlowlat.lattice import DivisorClass, PicardLattice
from barlowlat.roots import CANONICAL_GRAM, EXTENDED_CARTAN

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


def _set(value, *path):
    def mutate(raw):
        node = raw
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value

    return mutate


MALFORMED = {
    "ledger-entries-list": _ledger_entries_as_list,
    "e12-without-plus": _drop("b_table", "e12_values", "plus"),
    "e12-without-minus": _drop("b_table", "e12_values", "minus"),
    "l-values-without-plus": _drop("b_table", "l_values", "plus"),
    "l-values-without-minus": _drop("b_table", "l_values", "minus"),
    # integers are JSON integers: no truncated floats, bools or numeric strings
    "curve-cell-float": _set(-1.5, "curve_table", "matrix", 0, 0),
    "curve-cell-true": _set(True, "curve_table", "matrix", 0, 9),
    "curve-cell-string": _set("-1", "curve_table", "matrix", 0, 0),
    "d8-gram-true": _set(True, "d8", "gram", 0, 1),
    "chi-cell-float": _set(1.0, "chi_matrix", 0, 0),
    "b-k-value-float": _set(2.0, "b_table", "k_value"),
    "b-l-value-float": _set(1.0, "b_table", "l_values", "plus"),
    "b-c-table-true": _set(True, "b_table", "c_table", "C1p", 0, 1),
    "b-cross-cell-string": _set(["0", 3], "b_table", "cross_block_b_cells", 0),
    "combo-true": _set(True, "sequence", "L1", "E1"),
    "ledger-n-string": _set("11", "ledger", "n"),
    "ledger-triple-true": _set([True, 0, 0], "ledger", "entries", "1,1"),
    "ext-bounds-n-float": _set(11.0, "ext_bounds", "n"),
    "ext-bounds-cell-true": _set(True, "ext_bounds", "rows", 2, 0),
    "sequence-combo-list": _set([["E1", 1]], "sequence", "L1"),
    "c-table-list": _set([], "b_table", "c_table"),
    # names and shapes the formal pairing indexes by
    "curve-names-unknown": _set(["x"] * 14, "curve_table", "names"),
    "curve-matrix-13-rows": _drop("curve_table", "matrix", 13),
    "curve-row-13-cells": _drop("curve_table", "matrix", 0, 13),
    "d8-gram-7-rows": _drop("d8", "gram", 7),
    "format-missing": _drop("format"),
    "format-other": _set("barlowlat-fixture-v2", "format"),
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
