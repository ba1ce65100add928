"""Root enumeration and classification.

A root is a class v with v.k = 0 and v.v = -2.  Enumeration restricts the
negated pairing to the integer kernel of the pairing-with-k map and runs an
exact Fincke-Pohst search at bound 2 over the fraction-free LDL^T of
`linalg.ldl_positive`; root families are compared as int tuples.  All of it
is integer arithmetic.  The glue root e and the E8 form of the canonical
basis are built by the canonical stage in `fixtures`, not here.
"""
from __future__ import annotations

from enum import Enum
from functools import cached_property
from math import isqrt, lcm
from operator import add, mul, sub
from typing import Mapping, Sequence

from .errors import IndefinitePerp, PartitionFailure
from .lattice import DivisorClass, PicardLattice
from .record import Record
from . import linalg


class RootSet(Record):
    """All roots of a lattice, in lexicographic coordinate order."""

    lattice: PicardLattice
    roots: tuple[DivisorClass, ...]

    def __len__(self) -> int:
        return len(self.roots)

    def __contains__(self, v: DivisorClass) -> bool:
        return v.coords in self._index

    @cached_property
    def _index(self) -> frozenset[tuple[int, ...]]:
        return frozenset(r.coords for r in self.roots)


def _short_vectors(q: Sequence[Sequence[int]], bound: int) -> list[tuple[int, ...]]:
    """All nonzero integer x with x^T q x <= bound, q positive definite.

    Fincke-Pohst over the fraction-free factors of `linalg.ldl_positive`
    (ValueError if q is not positive definite).  The i-th term of x^T q x is
    (d[i+1] x_i + s_i)^2 / (d[i] d[i+1]); scaling by lcm(d[i] d[i+1]) keeps
    the remaining budget an integer, and each coordinate interval is one
    `isqrt`.
    """
    n = len(q)
    d, a = linalg.ldl_positive(q)
    dens = [d[i] * d[i + 1] for i in range(n)]
    scale = lcm(*dens)
    weights = [scale // c for c in dens]
    out: list[tuple[int, ...]] = []
    x = [0] * n

    def rec(i: int, rem: int) -> None:
        if i < 0:
            if any(x):
                out.append(tuple(x))
            return
        p, w = d[i + 1], weights[i]
        s = sum(map(mul, a[i][i + 1:], x[i + 1:]))
        y = isqrt(rem // w)
        for t in range(-((y + s) // p), (y - s) // p + 1):
            x[i] = t
            rec(i - 1, rem - w * (p * t + s) ** 2)
        x[i] = 0

    rec(n - 1, scale * bound)
    return out


def enumerate_roots(lat: PicardLattice) -> RootSet:
    """All v with v.k = 0 and v.v = -2, deterministically ordered.

    The kernel of v -> v.k is computed with integer column elimination; the
    negated Gram restricted to the kernel must be positive definite
    (IndefinitePerp otherwise), and its norm-2 vectors are found by exact
    Fincke-Pohst enumeration.
    """
    gram = lat.gram
    kernel = linalg.integer_kernel([[sum(map(mul, row, lat.k.coords)) for row in gram]])
    images = [[sum(map(mul, row, kb)) for row in gram] for kb in kernel]
    restricted = [[-sum(map(mul, ka, gb)) for gb in images] for ka in kernel]
    try:
        short = _short_vectors(restricted, 2)
    except ValueError as exc:
        raise IndefinitePerp(
            "orthogonal complement of k is not negative definite"
        ) from exc
    columns = list(zip(*kernel))
    found = set()
    for x in short:
        qx = [sum(map(mul, row, x)) for row in restricted]
        if sum(map(mul, x, qx)) == 2:
            found.add(tuple(sum(map(mul, x, col)) for col in columns))
    roots = tuple(DivisorClass(v) for v in sorted(found))
    return RootSet(lattice=lat, roots=roots)


# --- classification ---------------------------------------------------------------

class VanishingTag(Enum):
    H0 = "h0"
    H2 = "h2"
    NEITHER = "neither"


class RootPartition(Record):
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
    kc = lat.k.coords
    ell = [f.coords for f in elliptic]

    fam1 = {
        tuple(map(sub, a.coords, b.coords))
        for a in elliptic
        for b in elliptic
        if a != b and lat.pair(a, b) == 0
    }
    fam2 = {tuple(map(sub, kc, f)) for f in ell} | {tuple(map(sub, f, kc)) for f in ell}
    fam3 = set()
    for b in b_classes:
        meets = [c for c in minus_two_curves if lat.pair(b, c) > 0]
        if len(meets) != 2:
            raise PartitionFailure(
                f"B class {b.coords} meets {len(meets)} (-2)-curves, expected 2"
            )
        f, g = meets[0].coords, meets[1].coords
        base = tuple(2 * x - y for x, y in zip(kc, b.coords))
        for extra in ((0,) * lat.rank, f, g, tuple(map(add, f, g))):
            fam3.add(tuple(map(sub, base, extra)))

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
    rootset = rs._index
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
    kc = rs.lattice.k.coords
    h0_set = {c.coords for c in minus_two_curves}
    e_set = {c.coords for c in irreducible_elliptic}
    tags: dict[DivisorClass, VanishingTag] = {}
    for r in rs.roots:
        in_h0 = r.coords in h0_set
        in_h2 = tuple(map(sub, kc, r.coords)) in e_set
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
