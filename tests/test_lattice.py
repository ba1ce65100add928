import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from barlowlat.errors import (
    DimensionMismatch,
    InconsistentValues,
    NonSymmetricGram,
    ParityViolation,
    ProbesDoNotSpan,
)
from barlowlat.lattice import DivisorClass, make_lattice

coords9 = st.tuples(*[st.integers(-9, 9)] * 9).map(DivisorClass)


def test_make_lattice_minimal():
    lat = make_lattice(1, [[1]], DivisorClass((1,)))
    assert lat.pair(lat.k, lat.k) == 1


def test_make_lattice_rejects_asymmetry():
    with pytest.raises(NonSymmetricGram):
        make_lattice(2, [[1, 2], [3, 1]], DivisorClass((1, 0)))


def test_make_lattice_rejects_bad_shapes():
    with pytest.raises(DimensionMismatch):
        make_lattice(2, [[1, 0]], DivisorClass((1, 0)))
    with pytest.raises(DimensionMismatch):
        make_lattice(2, [[1, 0], [0, 1]], DivisorClass((1,)))


def test_barlow_lattice_unimodular(lat):
    assert abs(lat.det()) == 1
    assert lat.signature() == (1, 8, 0)


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
        assert lat.is_root(r)
        assert lat.chi(r) == 0


@given(d=coords9)
@settings(max_examples=300, deadline=None)
def test_chi_serre_symmetry(lat, d):
    assert lat.chi(d) == lat.chi(lat.k - d)


@given(d=coords9)
@settings(max_examples=300, deadline=None)
def test_parity_invariant(lat, d):
    assert lat.parity_holds(d)


def test_chi_parity_violation_on_bad_lattice():
    # k is not characteristic here: v.v + v.k is odd for v = (1, 0)
    lat = make_lattice(2, [[1, 0], [0, 1]], DivisorClass((0, 0)))
    with pytest.raises(ParityViolation):
        lat.chi(DivisorClass((1, 0)))


def test_chi_hom_examples(fix, lat):
    seq = fix.sequence_classes()
    assert lat.chi_hom(seq[0], seq[0]) == 1
    assert lat.chi_hom(seq[0], seq[2]) == -1   # table cell (3, 1)
    assert lat.chi_hom(seq[2], seq[3]) == 1    # table cell (4, 3)


@given(a=coords9, b=coords9, t=coords9)
@settings(max_examples=200, deadline=None)
def test_chi_hom_translation_invariant(lat, a, b, t):
    assert lat.chi_hom(a, b) == lat.chi_hom(a + t, b + t)


def test_is_root_examples(fix, lat):
    assert lat.is_root(fix.curve_class("D1"))
    assert not lat.is_root(fix.curve_class("K"))
    b = fix.curve_class("Bp000")
    f = fix.curve_class("C1m")
    g = fix.curve_class("C2p")
    k = fix.curve_class("K")
    assert lat.is_root(2 * k - b - f - g)


@given(v=coords9)
@settings(max_examples=300, deadline=None)
def test_root_negation_closure(lat, v):
    assert lat.is_root(v) == lat.is_root(-v)


# --- class reconstruction ------------------------------------------------------

def test_class_from_pairings_base_genus3(fix, lat):
    probes = [fix.curve_class(n) for n in fix.curve_table.names]
    values = [2, 2, 3, 2, 3, 2, 3, 2, 1, 2, 0, 1, 1, 0]
    b = lat.class_from_pairings(probes, values)
    assert lat.pair(b, b) == 2
    assert b == fix.curve_class("Bp000")


def test_class_from_pairings_zero_and_roundtrip(fix, lat):
    probes = [fix.curve_class(n) for n in fix.curve_table.names]
    zero = lat.class_from_pairings(probes, [0] * 14)
    assert zero == DivisorClass.zero(9)
    k = fix.curve_class("K")
    k_col = [fix.curve_table.value(n, "K") for n in fix.curve_table.names]
    assert lat.class_from_pairings(probes, k_col) == k


@given(v=coords9)
@settings(max_examples=200, deadline=None)
def test_class_from_pairings_roundtrip_random(fix, lat, v):
    probes = [fix.curve_class(n) for n in fix.curve_table.names]
    values = [lat.pair(v, p) for p in probes]
    assert lat.class_from_pairings(probes, values) == v


def test_class_from_pairings_errors(fix, lat):
    probes = [fix.curve_class(n) for n in fix.curve_table.names]
    bad = [2, 2, 3, 2, 3, 2, 3, 2, 1, 2, 0, 1, 1, 7]   # breaks consistency
    with pytest.raises(InconsistentValues):
        lat.class_from_pairings(probes, bad)
    with pytest.raises(ProbesDoNotSpan):
        lat.class_from_pairings(probes[:3], [0, 0, 0])


def test_class_from_pairings_non_integral():
    lat = make_lattice(1, [[2]], DivisorClass((0,)))
    from barlowlat.errors import NonIntegralSolution
    with pytest.raises(NonIntegralSolution):
        lat.class_from_pairings([DivisorClass((1,))], [1])

