from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from barlowlat import linalg
from barlowlat.errors import ToolkitError
from barlowlat.exceptional import DecompositionProblem, decompose_effective
from barlowlat.fixtures import CURVE_NAMES
from barlowlat.homledger import StarChoice, min_chain_degree
from barlowlat.lattice import DivisorClass, make_lattice

from root_oracle import is_root

coords9 = st.tuples(*[st.integers(-9, 9)] * 9).map(DivisorClass)


class Small(int):
    pass


@pytest.mark.parametrize("bad", [Fraction(1), 1.0, "1", None])
def test_divisor_class_rejects_non_integers(bad):
    with pytest.raises(TypeError):
        DivisorClass((0, bad, 2))


def test_divisor_class_normalises_ints():
    v = DivisorClass((True, Small(3), -1))
    assert v.coords == (1, 3, -1)
    assert all(type(c) is int for c in v.coords)
    assert v == DivisorClass((1, 3, -1))
    assert DivisorClass(()).coords == ()


def test_divisor_class_reads_an_iterator_once():
    # the integer check must not use up a generator before the coordinates are read
    assert DivisorClass(x for x in (1, 2, 3)) == DivisorClass([1, 2, 3]) == DivisorClass((1, 2, 3))
    with pytest.raises(TypeError):
        DivisorClass(x for x in (1, 1.5, 3))


def test_make_lattice_minimal():
    lat = make_lattice(1, [[1]], DivisorClass((1,)))
    assert lat.pair(lat.k, lat.k) == 1


def test_make_lattice_rejects_asymmetry():
    with pytest.raises(ToolkitError, match=r"gram\[0\]\[1\] != gram\[1\]\[0\]"):
        make_lattice(2, [[1, 2], [3, 1]], DivisorClass((1, 0)))


@pytest.mark.parametrize("cell", [1.5, 1.0, "1", None])
def test_make_lattice_refuses_a_cell_that_is_not_an_integer(cell):
    # each cell is read through operator.index: no float is truncated and no
    # string is parsed
    with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
        make_lattice(2, [[cell, 0], [0, -2]], DivisorClass((1, 0)))


def test_make_lattice_stores_true_as_one():
    lat = make_lattice(2, [[True, 0], [0, -2]], DivisorClass((1, 0)))
    assert lat.gram == ((1, 0), (0, -2)) and type(lat.gram[0][0]) is int


def test_make_lattice_rejects_bad_shapes():
    with pytest.raises(ToolkitError, match="gram is not 2x2"):
        make_lattice(2, [[1, 0]], DivisorClass((1, 0)))
    with pytest.raises(ToolkitError, match="k has length 1, expected 2"):
        make_lattice(2, [[1, 0], [0, 1]], DivisorClass((1,)))


@given(data=st.data(), n=st.integers(1, 6))
@settings(max_examples=200, deadline=None)
def test_pair_matches_naive_sum(data, n):
    entry = st.integers(-4, 4)
    upper = data.draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n))
    gram = [[upper[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)]
    vec = st.tuples(*[entry] * n).map(DivisorClass)
    a, b = data.draw(vec), data.draw(vec)
    lat = make_lattice(n, gram, DivisorClass.zero(n))
    naive = sum(a.coords[i] * gram[i][j] * b.coords[j] for i in range(n) for j in range(n))
    assert lat.pair(a, b) == naive
    wrong = f"class has length {n + 1}, lattice has rank {n}"
    with pytest.raises(ToolkitError, match=wrong):
        lat.pair(a, DivisorClass.zero(n + 1))
    with pytest.raises(ToolkitError, match=wrong):
        lat.pair(DivisorClass.zero(n + 1), b)


def test_barlow_lattice_unimodular(lat):
    assert abs(linalg.det_exact(lat.gram)) == 1
    assert linalg.signature_symmetric(lat.gram) == (1, 8, 0)


def test_pair_table_values(fix, lat):
    k = fix.curve_class("K")
    assert lat.pair(k, k) == 1
    assert lat.pair(fix.curve_class("E1"), fix.curve_class("L")) == 3
    zero = DivisorClass.zero(9)
    assert lat.pair(zero, fix.curve_class("L")) == 0


@given(a=coords9, b=coords9, c=coords9)
@settings(max_examples=200, deadline=None)
def test_pair_symmetric_bilinear(lat, a, b, c):
    assert lat.pair(a, b) == lat.pair(b, a)
    assert lat.pair(a + c, b) == lat.pair(a, b) + lat.pair(c, b)


def test_chi_examples(fix, lat):
    k = fix.curve_class("K")
    e = fix.curve_class("e")
    b = fix.curve_class("Bp000")
    assert lat.chi(DivisorClass.zero(9)) == 1
    assert lat.chi(e + 2 * k) == 1
    assert lat.chi(4 * k - b) == 1
    # linkage characteristic: any elliptic class meeting a genus-3 class thrice
    e3 = fix.curve_class("E3p")
    assert lat.pair(e3, b) == 3
    assert lat.chi(5 * k - e3 - b) == 1


def test_chi_of_any_root_is_zero(fix, lat):
    for name in ("D1", "D5", "e", "C1p"):
        r = fix.curve_class(name)
        assert is_root(lat, r)
        assert lat.chi(r) == 0


@given(d=coords9)
@settings(max_examples=300, deadline=None)
def test_chi_serre_symmetry(lat, d):
    assert lat.chi(d) == lat.chi(lat.k - d)


@given(d=coords9)
@settings(max_examples=300, deadline=None)
def test_parity_invariant(lat, d):
    assert (lat.pair(d, d) + lat.pair(d, lat.k)) % 2 == 0


def test_chi_parity_violation_on_bad_lattice():
    # k is not characteristic here: v.v + v.k is odd for v = (1, 0)
    lat = make_lattice(2, [[1, 0], [0, 1]], DivisorClass((0, 0)))
    with pytest.raises(ToolkitError, match="d.d - d.k = 1 is odd"):
        lat.chi(DivisorClass((1, 0)))


def test_chi_hom_examples(fix, lat):
    seq = fix.sequence
    assert lat.chi_hom(seq[0], seq[0]) == 1
    assert lat.chi_hom(seq[0], seq[2]) == -1   # table cell (3, 1)
    assert lat.chi_hom(seq[2], seq[3]) == 1    # table cell (4, 3)


@given(a=coords9, b=coords9, t=coords9)
@settings(max_examples=200, deadline=None)
def test_chi_hom_translation_invariant(lat, a, b, t):
    assert lat.chi_hom(a, b) == lat.chi_hom(a + t, b + t)


def test_is_root_examples(fix, lat):
    assert is_root(lat, fix.curve_class("D1"))
    assert not is_root(lat, fix.curve_class("K"))
    b = fix.curve_class("Bp000")
    f = fix.curve_class("C1m")
    g = fix.curve_class("C2p")
    k = fix.curve_class("K")
    assert is_root(lat, 2 * k - b - f - g)


@given(v=coords9)
@settings(max_examples=300, deadline=None)
def test_root_negation_closure(lat, v):
    assert is_root(lat, v) == is_root(lat, -v)


# --- pairing tables ------------------------------------------------------------

@st.composite
def small_lattices(draw):
    """A symmetric Gram of rank 1-6 and a k of either parity, with classes."""
    n = draw(st.integers(1, 6))
    entry = st.integers(-4, 4)
    upper = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n))
    gram = [[upper[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)]
    vec = st.tuples(*[entry] * n).map(DivisorClass)
    lat = make_lattice(n, gram, draw(vec))
    return lat, draw(st.lists(vec, max_size=5)), draw(st.lists(vec, max_size=5))


def _chi_cells(lat, seq):
    """The reference: chi(a - b) cell by cell, or the first cell's error."""
    try:
        return [[lat.chi(a - b) for b in seq] for a in seq], None
    except ToolkitError as exc:
        return None, str(exc)


@given(drawn=small_lattices())
@settings(max_examples=300, deadline=None)
def test_pairings_equal_pair_cell_for_cell(drawn):
    lat, left, right = drawn
    assert lat.pairings(left, right) == [[lat.pair(a, b) for b in right] for a in left]


@given(drawn=small_lattices())
@settings(max_examples=300, deadline=None)
def test_euler_matrix_equals_chi_cell_for_cell(drawn):
    # every prefix, so an odd d.d - d.k must raise at the same first cell
    lat, left, right = drawn
    seq = left + right
    for m in range(len(seq) + 1):
        want, error = _chi_cells(lat, seq[:m])
        if error is None:
            assert lat.euler_matrix(seq[:m]) == want
        else:
            with pytest.raises(ToolkitError) as exc:
                lat.euler_matrix(seq[:m])
            assert str(exc.value) == error


def test_euler_matrix_raises_on_an_odd_cell():
    # k = 0 is not characteristic for the unit form: (1, 0) - 0 has d.d - d.k = 1
    lat = make_lattice(2, [[1, 0], [0, 1]], DivisorClass((0, 0)))
    seq = [DivisorClass((0, 0)), DivisorClass((1, 0))]
    with pytest.raises(ToolkitError, match="d.d - d.k = 1 is odd"):
        lat.euler_matrix(seq)
    assert lat.euler_matrix([seq[0], DivisorClass((1, 1))]) == [[1, 2], [2, 1]]


def test_pairings_reject_a_class_of_the_wrong_length(lat):
    k = lat.k
    with pytest.raises(ToolkitError, match="class has length 8, lattice has rank 9"):
        lat.pairings([k], [k, DivisorClass.zero(8)])
    assert lat.pairings([], [k]) == [] and lat.pairings([k], []) == [[]]
    # each side is read once, so iterators work and are not used up by the check
    assert lat.pairings(iter([k]), (c for c in [k, k])) == [[1, 1]]


def test_pairings_check_lengths_in_the_order_pair_does():
    # pair checks a, then b; pairings checks every left class, then every right
    # class, before any row, so a wrong class refuses the call even where it
    # would meet no cell
    lat = make_lattice(2, [[1, 0], [0, 1]], DivisorClass((1, 1)))
    short, long_ = DivisorClass((1,)), DivisorClass((1, 2, 3))
    for a, b, length in [(short, long_, 1), (lat.k, long_, 3)]:
        with pytest.raises(ToolkitError, match=f"^class has length {length}, lattice has rank 2$"):
            lat.pair(a, b)
    for left, right, length in [([short], [long_], 1), ([lat.k], [long_], 3),
                                ([lat.k, short], [lat.k], 1), ([lat.k, long_], [short], 3),
                                ([], [short], 1), ([short], [], 1)]:
        with pytest.raises(ToolkitError, match=f"^class has length {length}, lattice has rank 2$"):
            lat.pairings(left, right)


# --- class reconstruction ------------------------------------------------------

def test_class_from_pairings_base_genus3(fix, lat):
    probes = [fix.curve_class(n) for n in CURVE_NAMES]
    values = [2, 2, 3, 2, 3, 2, 3, 2, 1, 2, 0, 1, 1, 0]
    b = lat.class_from_pairings(probes, values)
    assert lat.pair(b, b) == 2
    assert b == fix.curve_class("Bp000")


def test_class_from_pairings_zero_and_roundtrip(fix, lat):
    probes = [fix.curve_class(n) for n in CURVE_NAMES]
    zero = lat.class_from_pairings(probes, [0] * 14)
    assert zero == DivisorClass.zero(9)
    k = fix.curve_class("K")
    k_col = [row[CURVE_NAMES.index("K")] for row in fix.curves.gram]
    assert lat.class_from_pairings(probes, k_col) == k


@given(v=coords9)
@settings(max_examples=200, deadline=None)
def test_class_from_pairings_roundtrip_random(fix, lat, v):
    probes = [fix.curve_class(n) for n in CURVE_NAMES]
    values = [lat.pair(v, p) for p in probes]
    assert lat.class_from_pairings(probes, values) == v


def test_class_from_pairings_errors(fix, lat):
    probes = [fix.curve_class(n) for n in CURVE_NAMES]
    bad = [2, 2, 3, 2, 3, 2, 3, 2, 1, 2, 0, 1, 1, 7]   # breaks consistency
    with pytest.raises(ToolkitError, match="pairing equations have no common solution"):
        lat.class_from_pairings(probes, bad)
    with pytest.raises(ToolkitError, match="probes span a proper subspace"):
        lat.class_from_pairings(probes[:3], [0, 0, 0])


def test_class_from_pairings_non_integral():
    lat = make_lattice(1, [[2]], DivisorClass((0,)))
    with pytest.raises(ToolkitError, match=r"solution \['1/2'\] is rational but not integral"):
        lat.class_from_pairings([DivisorClass((1,))], [1])
    # each entry reduced on its own, the sign on the numerator, an integer bare
    lat = make_lattice(3, [[-4, 0, 0], [0, 6, 0], [0, 0, 1]], DivisorClass((0, 0, 0)))
    units = [DivisorClass(v) for v in ((1, 0, 0), (0, 1, 0), (0, 0, 1))]
    with pytest.raises(ToolkitError, match=r"solution \['1/2', '-1/3', '-5'\] is rational"):
        lat.class_from_pairings(units, [-2, -2, -5])


@pytest.mark.parametrize("call, error, message", [
    (lambda fix: decompose_effective(fix.lattice, DecompositionProblem.create(
        fix.curve_class("K"), [("short", DivisorClass.zero(8))])),
     ToolkitError, "class has length 8, lattice has rank 9"),
    (lambda fix: DivisorClass.zero(9) + DivisorClass.zero(8), ToolkitError, "9 != 8"),
    (lambda fix: 2.0 * fix.curve_class("K"), TypeError, "scalar must be an integer"),
    (lambda fix: fix.lattice.classes_from_pairings(
        [fix.curve_class(n) for n in CURVE_NAMES], [[0] * 13]),
     ToolkitError, "probes and values have different lengths"),
    (lambda fix: fix.ext_bounds.entry(23, 1), IndexError, r"indices \(23, 1\) outside 1\.\.22"),
    (lambda fix: min_chain_degree(fix.ledger, StarChoice.ZERO, 0),
     ValueError, "chain length must be at least 1"),
], ids=["decompose-short-generator", "add-9-and-8", "float-scalar", "short-value-row",
        "entry-outside-table", "chain-length-0"])
def test_library_argument_errors(fix, call, error, message):
    with pytest.raises(error, match=f"^{message}$"):
        call(fix)
