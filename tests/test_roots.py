from itertools import product

import pytest

from barlowlat import linalg
from barlowlat.errors import (
    CartanMismatch,
    IndefinitePerp,
    NonIntegralHighestRoot,
    PartitionFailure,
)
from barlowlat.lattice import DivisorClass, make_lattice
from barlowlat.roots import (
    VanishingTag,
    borel_siebenthal,
    enumerate_roots,
    extended_cartan_expected,
    partition_roots,
    vanishing_classification,
)


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


@pytest.mark.parametrize("rank,gram,k", SMALL_LATTICES)
def test_enumerate_matches_box_search(rank, gram, k):
    lat = make_lattice(rank, gram, DivisorClass(k))
    got = list(enumerate_roots(lat).roots)
    assert got == box_roots(lat)


def test_enumerate_rank1_empty():
    lat = make_lattice(1, [[1]], DivisorClass((1,)))
    assert len(enumerate_roots(lat)) == 0


def test_enumerate_single_pair():
    lat = make_lattice(2, [[1, 0], [0, -2]], DivisorClass((1, 0)))
    roots = enumerate_roots(lat).roots
    assert [r.coords for r in roots] == [(0, -1), (0, 1)]


def test_enumerate_indefinite_perp_rejected():
    lat = make_lattice(3, [[1, 0, 0], [0, 1, 0], [0, 0, -2]], DivisorClass((1, 0, 0)))
    with pytest.raises(IndefinitePerp):
        enumerate_roots(lat)


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


# --- highest-root extension ------------------------------------------------------

def test_borel_siebenthal_on_fixture(fix, lat):
    ds = [fix.curve_class(f"D{i}") for i in range(1, 9)]
    e = borel_siebenthal(lat, ds)
    assert e == fix.curve_class("e")
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


def test_borel_siebenthal_rejects_bare_root_lattice():
    # inside the plain negated fork lattice neither glue is integral
    gram = [
        [-2, 1, 0, 0, 0, 0, 0, 0],
        [1, -2, 1, 0, 0, 0, 0, 0],
        [0, 1, -2, 1, 0, 0, 0, 0],
        [0, 0, 1, -2, 1, 0, 0, 0],
        [0, 0, 0, 1, -2, 1, 0, 0],
        [0, 0, 0, 0, 1, -2, 1, 1],
        [0, 0, 0, 0, 0, 1, -2, 0],
        [0, 0, 0, 0, 0, 1, 0, -2],
    ]
    lat8 = make_lattice(8, gram, DivisorClass((0,) * 8))
    ds = [DivisorClass(tuple(int(i == j) for j in range(8))) for i in range(8)]
    with pytest.raises(NonIntegralHighestRoot):
        borel_siebenthal(lat8, ds)


def test_borel_siebenthal_rejects_wrong_gram(fix, lat):
    ds = [fix.curve_class(f"D{i}") for i in range(1, 9)]
    ds[0], ds[1] = ds[1], ds[0]
    with pytest.raises(CartanMismatch):
        borel_siebenthal(lat, ds)


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
    basis = list(fix.canonical_basis())
    basis[1] = -basis[1]
    gram = [[lat.pair(a, b) for b in basis] for a in basis]
    expected = negate_first(extended_cartan_expected())
    assert gram[0][0] == 1
    assert all(gram[0][j] == 0 for j in range(1, 9))
    for i in range(8):
        for j in range(8):
            assert gram[1 + i][1 + j] == expected[i][j]
