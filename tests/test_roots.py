from itertools import product
from math import isqrt
from operator import mul

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from barlowlat import linalg
from barlowlat.errors import NonCanonicalLattice, PartitionFailure
from barlowlat.fixtures import BASIS_NAMES
from barlowlat.lattice import DivisorClass, make_lattice
from barlowlat.roots import (
    CANONICAL_GRAM,
    CANONICAL_K,
    VanishingTag,
    enumerate_roots,
    extended_cartan_expected,
    partition_roots,
    vanishing_classification,
)

from root_oracle import fincke_pohst_roots, short_vectors


def box_roots(lat, bound=6):
    """Brute-force oracle: scan the coordinate box |c_i| <= bound."""
    out = []
    for coords in product(range(-bound, bound + 1), repeat=lat.rank):
        v = DivisorClass(coords)
        if lat.is_root(v):
            out.append(v)
    return sorted(out, key=lambda v: v.coords)


SMALL_LATTICES = [
    (1, [[1]], (1,)),
    (2, [[1, 0], [0, -2]], (1, 0)),
    (2, [[1, 0], [0, -4]], (1, 0)),          # no roots: norm -4 only
    (3, [[1, 0, 0], [0, -2, 1], [0, 1, -2]], (1, 0, 0)),
    (3, [[1, 0, 0], [0, -2, 0], [0, 0, -2]], (1, 0, 0)),
    (3, [[2, 1, 0], [1, -2, 0], [0, 0, -2]], (1, 0, 0)),
    (3, [[1, 1, 0], [1, -1, 1], [0, 1, -2]], (1, 0, 0)),
]


# The box-search tests check the Fincke-Pohst oracle of root_oracle.py, which
# enumerates the roots of any lattice; enumerate_roots refuses these lattices.

@pytest.mark.parametrize("rank,gram,k", SMALL_LATTICES)
def test_enumerate_matches_box_search(rank, gram, k):
    lat = make_lattice(rank, gram, DivisorClass(k))
    got = fincke_pohst_roots(lat)
    assert got == box_roots(lat)


def test_enumerate_rank1_empty():
    lat = make_lattice(1, [[1]], DivisorClass((1,)))
    assert len(fincke_pohst_roots(lat)) == 0


def test_enumerate_single_pair():
    lat = make_lattice(2, [[1, 0], [0, -2]], DivisorClass((1, 0)))
    roots = fincke_pohst_roots(lat)
    assert [r.coords for r in roots] == [(0, -1), (0, 1)]


def test_enumerate_indefinite_perp_rejected():
    lat = make_lattice(3, [[1, 0, 0], [0, 1, 0], [0, 0, -2]], DivisorClass((1, 0, 0)))
    with pytest.raises(ValueError):
        fincke_pohst_roots(lat)


def _changed_cell_pair(gram, i, j, delta):
    rows = [list(row) for row in gram]
    rows[i][j] += delta
    rows[j][i] += delta
    return rows


@pytest.mark.parametrize("rank,gram,k", SMALL_LATTICES + [
    (9, CANONICAL_GRAM, (2,) + CANONICAL_K[1:]),
    (9, _changed_cell_pair(CANONICAL_GRAM, 2, 5, 1), CANONICAL_K),
])
def test_enumerate_refuses_a_lattice_other_than_the_canonical_one(rank, gram, k):
    with pytest.raises(NonCanonicalLattice):
        enumerate_roots(make_lattice(rank, gram, DivisorClass(k)))


def test_enumerate_matches_fincke_pohst_oracle(lat):
    # the Weyl closure and the kernel/LDL search share no code
    assert list(enumerate_roots(lat).roots) == fincke_pohst_roots(lat)


def test_barlow_240(lat):
    rs = enumerate_roots(lat)
    assert len(rs) == 240
    for r in rs.roots:
        assert lat.is_root(r)
        assert -r in rs
    # deterministic: a second enumeration is identical
    assert enumerate_roots(lat).roots == rs.roots


def test_partition_sizes(fix, lat):
    rs = enumerate_roots(lat)
    part = partition_roots(
        rs,
        fix.degree1_elliptic_classes(),
        list(fix.b_classes().values()),
        fix.minus_two_classes(),
    )
    assert part.sizes == (84, 28, 128)
    union = (
        set(part.elliptic_differences)
        | set(part.canonical_minus_elliptic)
        | set(part.b_derived)
    )
    assert len(union) == 240
    assert union == set(rs.roots)


def test_partition_contains_expected_members(fix, lat):
    rs = enumerate_roots(lat)
    part = partition_roots(
        rs,
        fix.degree1_elliptic_classes(),
        list(fix.b_classes().values()),
        fix.minus_two_classes(),
    )
    e1 = fix.curve_class("E1")
    e2 = fix.curve_class("E2")
    assert lat.pair(e1, e2) == 0
    assert (e1 - e2) in set(part.elliptic_differences)
    assert (lat.k - e1) in set(part.canonical_minus_elliptic)
    b = fix.curve_class("Bp000")
    assert (2 * lat.k - b) in set(part.b_derived)


def test_partition_failure_on_wrong_families(fix, lat):
    rs = enumerate_roots(lat)
    with pytest.raises(PartitionFailure):
        partition_roots(
            rs,
            fix.degree1_elliptic_classes()[:5],
            list(fix.b_classes().values()),
            fix.minus_two_classes(),
        )


def test_vanishing_classification(fix, lat):
    rs = enumerate_roots(lat)
    tags = vanishing_classification(
        rs, fix.minus_two_classes(), fix.irreducible_elliptic_classes()
    )
    counts = {t: sum(1 for v in tags.values() if v is t) for t in VanishingTag}
    assert counts[VanishingTag.H0] == 4
    assert counts[VanishingTag.H2] == 8
    assert counts[VanishingTag.NEITHER] == 228
    assert tags[fix.curve_class("C1p")] is VanishingTag.H0
    assert tags[lat.k - fix.curve_class("E1")] is VanishingTag.H2
    assert tags[fix.curve_class("D5")] is VanishingTag.NEITHER


def weyl_closure(lat, seeds):
    """Close a set of roots under the reflections s_d(v) = v + (v.d) d in the
    seeds d (each of norm -2)."""
    mirrors = [(d, [sum(map(mul, row, d)) for row in lat.gram]) for d in seeds]
    seen = set(seeds)
    frontier = list(seeds)
    while frontier:
        v = frontier.pop()
        for d, gd in mirrors:
            c = sum(map(mul, v, gd))
            w = tuple(a + c * b for a, b in zip(v, d))
            if w not in seen:
                seen.add(w)
                frontier.append(w)
    return seen


def test_weyl_closure_of_e8_simple_roots_is_the_root_set(fix):
    # W(E8) acts transitively on the roots, so the reflections in the simple
    # roots (e, D8..D2) generate all 240 from the simple roots themselves
    simple = [fix.curve_class(n).coords for n in ("e", "D8", "D7", "D6", "D5", "D4", "D3", "D2")]
    closure = weyl_closure(fix.lattice, simple)
    assert len(closure) == 240
    assert closure == {r.coords for r in fix.roots.roots}


def test_weyl_closure_of_d8_is_only_its_sublattice(fix):
    # D1..D8 span an index-2 sublattice of the E8 complement, and their
    # closure is the 112 roots of D8: an oracle, not an enumerator
    closure = weyl_closure(fix.lattice, [fix.curve_class(f"D{i}").coords for i in range(1, 9)])
    assert len(closure) == 112
    assert closure < {r.coords for r in fix.roots.roots}


def det_laplace(m):
    if not m:
        return 1
    return sum(
        (-1) ** j * m[0][j] * det_laplace([row[:j] + row[j + 1:] for row in m[1:]])
        for j in range(len(m))
        if m[0][j]
    )


def short_vectors_by_image(b, bound):
    """Oracle: x^T (B^T B) x = |Bx|^2, so the short x are the integral
    preimages B^-1 y of the nonzero y in the box |y_i| <= isqrt(bound) with
    |y|^2 <= bound (adjugate over determinant)."""
    n = len(b)
    det = det_laplace(b)

    def minor(i, j):
        return [row[:j] + row[j + 1:] for r, row in enumerate(b) if r != i]

    adj = [[(-1) ** (i + j) * det_laplace(minor(j, i)) for j in range(n)] for i in range(n)]
    r = isqrt(bound)
    out = set()
    for y in product(range(-r, r + 1), repeat=n):
        if any(y) and sum(c * c for c in y) <= bound:
            num = [sum(map(mul, row, y)) for row in adj]
            if all(v % det == 0 for v in num):
                out.add(tuple(v // det for v in num))
    return out


@given(
    b=st.integers(1, 4).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(-2, 2), min_size=n, max_size=n), min_size=n, max_size=n
        )
    ),
    bound=st.integers(1, 12),
)
@settings(max_examples=200, deadline=None)
def test_short_vectors_match_box_search(b, bound):
    # odd forms and odd bounds, which the Barlow lattice's even E8
    # complement at bound 2 never exercises
    assume(det_laplace(b) != 0)
    n = len(b)
    q = [[sum(b[r][i] * b[r][j] for r in range(n)) for j in range(n)] for i in range(n)]
    got = short_vectors(q, bound)
    assert len(got) == len(set(got))
    assert set(got) == short_vectors_by_image(b, bound)


# --- highest-root extension ------------------------------------------------------

def test_borel_siebenthal_on_fixture(fix, lat):
    ds = [fix.curve_class(f"D{i}") for i in range(1, 9)]
    e = fix.curve_class("e")
    assert lat.is_root(e)
    assert lat.pair(e, e) == -2
    assert lat.pair(e, lat.k) == 0
    # glue carries tip weights (4, 3): doubled e is the weighted sum
    weights = (1, 2, 3, 4, 5, 6, 4, 3)
    doubled = DivisorClass.zero(9)
    for w, d in zip(weights, ds):
        doubled = doubled + w * d
    assert 2 * e == doubled


def test_borel_siebenthal_displayed_weights_are_the_other_glue(fix, lat):
    # the (..., 3, 4) assignment lands in the other spinor coset: its
    # doubled sum has odd coordinates, so it is not a lattice class
    ds = [fix.curve_class(f"D{i}") for i in range(1, 9)]
    weights = (1, 2, 3, 4, 5, 6, 3, 4)
    doubled = DivisorClass.zero(9)
    for w, d in zip(weights, ds):
        doubled = doubled + w * d
    assert any(c % 2 for c in doubled.coords)


def negate_first(m):
    """Negate row and column 0: the plain negated Cartan matrix from the
    form with the glue node's sign flipped."""
    return tuple(
        tuple((-1 if (i == 0) != (j == 0) else 1) * v for j, v in enumerate(row))
        for i, row in enumerate(m)
    )


def test_extended_cartan_shapes():
    flipped = extended_cartan_expected()
    plain = negate_first(flipped)
    assert plain[0][2] == 1 and flipped[0][2] == -1   # e-d7 adjacency
    assert all(plain[i][i] == -2 for i in range(8))
    # the plain form is the negated Cartan matrix of a tree: seven +1 edges
    off = [plain[i][j] for i in range(8) for j in range(i + 1, 8) if plain[i][j]]
    assert off == [1] * 7
    assert linalg.det_exact(plain) == 1


def test_canonical_gram_is_negated_cartan_up_to_glue_sign(fix, lat):
    # flipping the sign of the glue vector turns the canonical Gram into
    # exactly diag(1) + the negated Cartan matrix of the extended diagram
    basis = [fix.curve_class(n) for n in BASIS_NAMES]
    basis[1] = -basis[1]
    gram = [[lat.pair(a, b) for b in basis] for a in basis]
    expected = negate_first(extended_cartan_expected())
    assert gram[0][0] == 1
    assert all(gram[0][j] == 0 for j in range(1, 9))
    for i in range(8):
        for j in range(8):
            assert gram[1 + i][1 + j] == expected[i][j]
