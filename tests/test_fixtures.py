import json

import pytest

from barlowlat import linalg
from barlowlat.cli import main
from barlowlat.errors import (
    ChiMatrixMismatch,
    RankError,
    RelationViolation,
    SchemaError,
    SymmetryError,
    TableInconsistency,
    UnknownName,
)
from barlowlat.fixtures import FixtureSet, b_keys, b_name, load_fixtures

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


def test_shipped_fixture_loads_and_validates(fix):
    assert fix.lattice is not None
    assert fix.glue_tips == (4, 3)


def test_curve_table_rank(fix):
    assert linalg.rank_exact(fix.curve_table.matrix) == 9


def test_perturbed_cell_rejected(raw_copy):
    raw_copy["curve_table"]["matrix"][0][8] = 4
    raw_copy["curve_table"]["matrix"][8][0] = 4
    with pytest.raises(RankError):
        load_fixtures(raw_copy)


def test_perturbed_diagonal_rejected(raw_copy):
    # keep the matrix symmetric but break a frozen diagonal value
    raw_copy["b_table"]["c_table"]["C1p"][0][0] = 1
    with pytest.raises(TableInconsistency):
        load_fixtures(raw_copy)


def test_asymmetric_table_rejected(raw_copy):
    raw_copy["curve_table"]["matrix"][0][1] = 5
    with pytest.raises(SymmetryError):
        load_fixtures(raw_copy)


def test_rank_error(raw_copy):
    # wipe out the node-curve rows: the table collapses below rank 9
    for i in range(10, 14):
        for j in range(14):
            raw_copy["curve_table"]["matrix"][i][j] = 0
            raw_copy["curve_table"]["matrix"][j][i] = 0
    with pytest.raises(RankError):
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
    ds = fix.d8_basis()
    gram = tuple(tuple(lat.pair(a, b) for b in ds) for a in ds)
    assert gram == EXPECTED_D8_GRAM
    for d in ds:
        assert lat.is_root(d)
        assert lat.pair(d, lat.k) == 0


def test_canonical_basis_gram_and_det(fix, lat):
    basis = fix.canonical_basis()
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
    for a in fix.curve_table.names:
        for b in fix.curve_table.names:
            assert lat.pair(fix.curve_class(a), fix.curve_class(b)) == \
                fix.curve_table.value(a, b)


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
    for k1 in b_keys():
        for k2 in b_keys():
            if k1 == k2:
                continue
            got = lat.pair(bs[b_name(*k1)], bs[b_name(*k2)])
            assert got == fix.b_table.expected_pairing(k1, k2)


def test_b_pentagon_rule(fix, lat):
    bs = fix.b_classes()
    l_curve = fix.curve_class("L")
    k = fix.curve_class("K")
    for key in b_keys():
        q = key[0]
        assert lat.pair(bs[b_name(*key)] - 2 * k, l_curve) == -q


def test_b_base_row_matches_frozen_values(fix, lat):
    b = fix.curve_class("Bp000")
    row = [lat.pair(b, fix.curve_class(n)) for n in fix.curve_table.names]
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
    with pytest.raises(RelationViolation):
        load_fixtures(raw_copy)


# --- sequence ------------------------------------------------------------------

def test_sequence_chi_matrix_cells(fix, lat):
    seq = fix.sequence_classes()
    chi = [[lat.chi(seq[i] - seq[j]) for j in range(11)] for i in range(11)]
    assert tuple(tuple(r) for r in chi) == fix.chi_matrix
    assert chi[6][0] == -1          # cell (7, 1)
    assert all(chi[i][i] == 1 for i in range(11))


def test_sequence_degrees(fix, lat):
    degrees = [lat.pair(c, lat.k) for c in fix.sequence_classes()]
    assert degrees == [0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 0]


def test_chi_matrix_mismatch_detected(raw_copy):
    raw_copy["chi_matrix"][2][0] = 7
    with pytest.raises(ChiMatrixMismatch, match=r"\(3,1\)"):
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


def test_every_named_class_roundtrips(fix, lat):
    probes = [fix.curve_class(n) for n in fix.curve_table.names]
    names = (
        list(fix.curve_table.names)
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
    assert fix.fixture_hash() == again.fixture_hash()
    assert len(fix.fixture_hash()) == 64
