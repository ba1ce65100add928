"""Root enumeration and classification.

A root is a class v with v.k = 0 and v.v = -2.  Enumeration restricts the
negated pairing to the integer kernel of the pairing-with-k map and runs an
exact Fincke-Pohst search at bound 2; everything stays in integer/rational
arithmetic.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Mapping, Sequence

from .errors import (
    CartanMismatch,
    IndefinitePerp,
    NonIntegralHighestRoot,
    NotARoot,
    PartitionFailure,
)
from .lattice import DivisorClass, PicardLattice
from . import linalg


@dataclass(frozen=True)
class RootSet:
    """All roots of a lattice, in lexicographic coordinate order."""

    lattice: PicardLattice
    roots: tuple[DivisorClass, ...]

    def __len__(self) -> int:
        return len(self.roots)

    def __contains__(self, v: DivisorClass) -> bool:
        return v.coords in self._index

    @property
    def _index(self) -> frozenset[tuple[int, ...]]:
        cached = getattr(self, "_index_cache", None)
        if cached is None:
            cached = frozenset(r.coords for r in self.roots)
            object.__setattr__(self, "_index_cache", cached)
        return cached


def _short_vectors(q: Sequence[Sequence[int]], bound: int) -> list[tuple[int, ...]]:
    """All nonzero integer x with x^T q x <= bound, q positive definite."""
    n = len(q)
    if n == 0:
        return []
    d, lo = linalg.ldl_positive(q)
    out: list[tuple[int, ...]] = []
    x = [0] * n

    def rec(i: int, rem: Fraction) -> None:
        if i < 0:
            if any(x):
                out.append(tuple(x))
            return
        shift = sum((lo[j][i] * x[j] for j in range(i + 1, n)), Fraction(0))
        for t in linalg.integer_interval(shift, rem / d[i]):
            x[i] = t
            rec(i - 1, rem - d[i] * (t + shift) ** 2)
        x[i] = 0

    rec(n - 1, Fraction(bound))
    return out


def enumerate_roots(lat: PicardLattice) -> RootSet:
    """All v with v.k = 0 and v.v = -2, deterministically ordered.

    The kernel of v -> v.k is computed with integer column elimination; the
    negated Gram restricted to the kernel must be positive definite
    (IndefinitePerp otherwise), and its norm-2 vectors are found by exact
    Fincke-Pohst enumeration.
    """
    n = lat.rank
    w = [sum(lat.gram[i][j] * lat.k.coords[j] for j in range(n)) for i in range(n)]
    kernel = linalg.integer_kernel([w])
    if not kernel:
        return RootSet(lattice=lat, roots=())
    m = len(kernel)
    restricted = [
        [
            -sum(
                kernel[a][i] * lat.gram[i][j] * kernel[b][j]
                for i in range(n)
                for j in range(n)
            )
            for b in range(m)
        ]
        for a in range(m)
    ]
    try:
        linalg.ldl_positive(restricted)
    except ValueError as exc:
        raise IndefinitePerp(
            "orthogonal complement of k is not negative definite"
        ) from exc
    found = set()
    for x in _short_vectors(restricted, 2):
        norm = sum(
            x[a] * restricted[a][b] * x[b] for a in range(m) for b in range(m)
        )
        if norm != 2:
            continue
        v = tuple(
            sum(x[a] * kernel[a][i] for a in range(m)) for i in range(n)
        )
        found.add(v)
    roots = tuple(DivisorClass(v) for v in sorted(found))
    return RootSet(lattice=lat, roots=roots)


# --- highest-root extension -----------------------------------------------------

# Half-sum weights on the eight simple roots; the two fork tips (positions 7
# and 8) can carry (3,4) or (4,3), one for each glue class of the index-2
# embedding into the full lattice.
_HALF_SUM_WEIGHTS = (1, 2, 3, 4, 5, 6)
_TIP_WEIGHTS = ((3, 4), (4, 3))

_D8_GRAM = (
    (-2, 1, 0, 0, 0, 0, 0, 0),
    (1, -2, 1, 0, 0, 0, 0, 0),
    (0, 1, -2, 1, 0, 0, 0, 0),
    (0, 0, 1, -2, 1, 0, 0, 0),
    (0, 0, 0, 1, -2, 1, 0, 0),
    (0, 0, 0, 0, 1, -2, 1, 1),
    (0, 0, 0, 0, 0, 1, -2, 0),
    (0, 0, 0, 0, 0, 1, 0, -2),
)


def borel_siebenthal(lat: PicardLattice, ds: Sequence[DivisorClass]) -> DivisorClass:
    """Extend eight simple roots with the half-sum highest root.

    The input Gram must be the chain d1..d6 with the two tips d7, d8 attached
    to d6.  Both tip-weight assignments give a norm -2 half-sum; exactly one
    of them can land in an ambient unimodular lattice, and that one is
    returned.  Raises NonIntegralHighestRoot if neither is integral, NotARoot
    or CartanMismatch if the result fails its defining checks.
    """
    if len(ds) != 8:
        raise CartanMismatch(f"need 8 simple roots, got {len(ds)}")
    gram = tuple(
        tuple(lat.pair(a, b) for b in ds) for a in ds
    )
    if gram != _D8_GRAM:
        raise CartanMismatch("input Gram is not the expected fork-at-d6 form")

    candidate = None
    chosen_tips = None
    for tips in _TIP_WEIGHTS:
        weights = _HALF_SUM_WEIGHTS + tips
        doubled = DivisorClass.zero(lat.rank)
        for w, d in zip(weights, ds):
            doubled = doubled + w * d
        if all(c % 2 == 0 for c in doubled.coords):
            candidate = DivisorClass(tuple(c // 2 for c in doubled.coords))
            chosen_tips = tips
            break
    if candidate is None:
        raise NonIntegralHighestRoot(
            "neither half-sum glue choice is integral in this lattice"
        )
    if not lat.is_root(candidate):
        raise NotARoot("half-sum vector is not a root")
    _check_extended_cartan(lat, candidate, ds, chosen_tips)
    return candidate


def extended_cartan_expected(
    e_attaches: str = "d7", sign_flip_first: bool = True
) -> tuple[tuple[int, ...], ...]:
    """The negated E8 Cartan matrix in the extended node order.

    Node order (e, d8, d7, d6, d5, d4, d3, d2); the half-sum e attaches to
    whichever tip carries weight 4.  With ``sign_flip_first`` the row/column
    of e is negated -- the form the half-sum convention actually produces
    (e pairs -1 with its neighbour, all other adjacent pairs +1).
    """
    if e_attaches not in ("d7", "d8"):
        raise ValueError("e_attaches must be 'd7' or 'd8'")
    names = ["e", "d8", "d7", "d6", "d5", "d4", "d3", "d2"]
    edges = {("e", e_attaches), ("d8", "d6"), ("d7", "d6"), ("d6", "d5"),
             ("d5", "d4"), ("d4", "d3"), ("d3", "d2")}
    m = [[0] * 8 for _ in range(8)]
    for i in range(8):
        m[i][i] = -2
    for i, a in enumerate(names):
        for j, b in enumerate(names):
            if (a, b) in edges or (b, a) in edges:
                m[i][j] = 1
    if sign_flip_first:
        for j in range(1, 8):
            m[0][j] = -m[0][j]
            m[j][0] = -m[j][0]
    return tuple(tuple(row) for row in m)


def _check_extended_cartan(
    lat: PicardLattice,
    e: DivisorClass,
    ds: Sequence[DivisorClass],
    tips: tuple[int, int],
) -> None:
    ordered = [e] + [ds[i] for i in (7, 6, 5, 4, 3, 2, 1)]
    gram = tuple(tuple(lat.pair(a, b) for b in ordered) for a in ordered)
    attaches = "d7" if tips == (4, 3) else "d8"
    if gram != extended_cartan_expected(e_attaches=attaches):
        raise CartanMismatch(
            "extended basis does not realize the negated Cartan form"
        )


# --- classification ---------------------------------------------------------------

class VanishingTag(Enum):
    H0 = "h0"
    H2 = "h2"
    NEITHER = "neither"


@dataclass(frozen=True)
class RootPartition:
    """The three families partitioning the root set."""

    elliptic_differences: tuple[DivisorClass, ...]
    canonical_minus_elliptic: tuple[DivisorClass, ...]
    b_derived: tuple[DivisorClass, ...]

    @property
    def sizes(self) -> tuple[int, int, int]:
        return (
            len(self.elliptic_differences),
            len(self.canonical_minus_elliptic),
            len(self.b_derived),
        )


def partition_roots(
    rs: RootSet,
    elliptic: Sequence[DivisorClass],
    b_classes: Sequence[DivisorClass],
    minus_two_curves: Sequence[DivisorClass],
) -> RootPartition:
    """Split the root set into the three construction families.

    * differences F_i - F_j of degree-1 elliptic classes with F_i.F_j = 0,
    * +-(k - F_i),
    * for every B, the four classes 2k - B - (subsets of the two (-2)-curves
      meeting B).
    Raises PartitionFailure if a B class meets other than two (-2)-curves,
    if the families overlap, or if their union is not the root set.  The
    sizes are not checked here; `verify` requires (84, 28, 128).
    """
    lat = rs.lattice
    k = lat.k

    fam1 = {
        (a - b).coords
        for a in elliptic
        for b in elliptic
        if a != b and lat.pair(a, b) == 0
    }
    fam2 = {(k - f).coords for f in elliptic} | {(f - k).coords for f in elliptic}
    fam3 = set()
    for b in b_classes:
        meets = [c for c in minus_two_curves if lat.pair(b, c) > 0]
        if len(meets) != 2:
            raise PartitionFailure(
                f"B class {b.coords} meets {len(meets)} (-2)-curves, expected 2"
            )
        f, g = meets
        base = 2 * k - b
        for extra in (DivisorClass.zero(lat.rank), f, g, f + g):
            fam3.add((base - extra).coords)

    fams = [fam1, fam2, fam3]
    for i in range(3):
        for j in range(i + 1, 3):
            overlap = fams[i] & fams[j]
            if overlap:
                raise PartitionFailure(
                    f"families {i + 1} and {j + 1} overlap, witness "
                    f"{sorted(overlap)[0]}"
                )
    union = fam1 | fam2 | fam3
    rootset = {r.coords for r in rs.roots}
    if union != rootset:
        missing = sorted(rootset - union)[:3]
        extra = sorted(union - rootset)[:3]
        raise PartitionFailure(
            f"union mismatch: missing {missing}, extraneous {extra}"
        )
    return RootPartition(
        elliptic_differences=tuple(DivisorClass(v) for v in sorted(fam1)),
        canonical_minus_elliptic=tuple(DivisorClass(v) for v in sorted(fam2)),
        b_derived=tuple(DivisorClass(v) for v in sorted(fam3)),
    )


def vanishing_classification(
    rs: RootSet,
    minus_two_curves: Sequence[DivisorClass],
    irreducible_elliptic: Sequence[DivisorClass],
) -> Mapping[DivisorClass, VanishingTag]:
    """Tag each root: H0 iff it is a (-2)-curve class, H2 iff k - root is one
    of the eight irreducible elliptic classes, NEITHER otherwise.

    The two tags are verified to be mutually exclusive on this lattice.
    """
    lat = rs.lattice
    h0_set = {c.coords for c in minus_two_curves}
    e_set = {c.coords for c in irreducible_elliptic}
    tags: dict[DivisorClass, VanishingTag] = {}
    for r in rs.roots:
        in_h0 = r.coords in h0_set
        in_h2 = (lat.k - r).coords in e_set
        if in_h0 and in_h2:
            raise PartitionFailure(
                f"root {r.coords} is tagged both H0 and H2"
            )
        if in_h0:
            tags[r] = VanishingTag.H0
        elif in_h2:
            tags[r] = VanishingTag.H2
        else:
            tags[r] = VanishingTag.NEITHER
    return tags
