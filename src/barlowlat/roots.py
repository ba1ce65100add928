"""Root enumeration and classification.

A root is a class v with v.k = 0 and v.v = -2.  Every fixture that loads has
the lattice 1 ⊥ (-E8) with the Gram `CANONICAL_GRAM` defined here, and its 240
roots are the Weyl closure of the simple roots e, D8..D2; the tests keep an
exact Fincke-Pohst enumeration as the oracle.  Root families are compared as
int tuples, in integer arithmetic.  The glue root e is built by the canonical
stage in `fixtures`.
"""
from __future__ import annotations

from enum import Enum
from functools import cached_property
from itertools import combinations
from operator import add, mul, sub
from typing import Mapping, Sequence

from .errors import ToolkitError
from .lattice import DivisorClass, PicardLattice
from .record import Record


def diagram_gram(n: int, edges: Mapping[tuple[int, int], int]) -> tuple[tuple[int, ...], ...]:
    """The Gram of n (-2)-classes on a diagram: -2 on the diagonal, each
    edge's value at (i, j) and (j, i), and 0 off the edges."""
    m = [[-2 if i == j else 0 for j in range(n)] for i in range(n)]
    for (i, j), value in edges.items():
        m[i][j] = m[j][i] = value
    return tuple(map(tuple, m))


#: the negated E8 Cartan form of (e, d8, d7, d6, d5, d4, d3, d2): e attaches
#: to d7, the tip of weight 4, and pairs -1 with it, the sign the half-sum
#: produces; every other edge of the diagram pairs +1
EXTENDED_CARTAN = diagram_gram(8, {(0, 2): -1, (1, 3): 1} | {(s, s + 1): 1 for s in range(2, 7)})
#: the Gram of the canonical basis (K, e, D8..D2), 1 ⊥ (-E8): K, then e
#: extending D8..D2 to the E8 Cartan form
CANONICAL_GRAM = ((1,) + (0,) * 8,) + tuple((0,) + r for r in EXTENDED_CARTAN)
#: K, the first vector of the canonical basis
CANONICAL_K = (1,) + (0,) * 8


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

    def closed_under_negation(self) -> bool:
        return all(tuple(-x for x in c) in self._index for c in self._index)


def enumerate_roots(lat: PicardLattice) -> RootSet:
    """The 240 roots of the lattice `CANONICAL_GRAM` with k = `CANONICAL_K`, in
    lexicographic order; any other lattice raises ToolkitError."""
    if lat.gram != CANONICAL_GRAM or lat.k.coords != CANONICAL_K:
        raise ToolkitError("roots are enumerated only on 1 + (-E8) in the basis (K, e, D8..D2)")
    # W(E8) is generated by the reflections v -> v + (v.a) a in the simple
    # roots a = e, D8..D2, the unit vectors 1..8, and acts transitively on
    # the roots, so the orbit of the simple roots is every root.  A
    # reflection is the same for -a, so the sign of e.D7 = -1 is harmless.
    found = {tuple(int(i == j) for j in range(9)) for i in range(1, 9)}
    frontier = list(found)
    while frontier:
        v = frontier.pop()
        for i in range(1, 9):
            c = sum(map(mul, CANONICAL_GRAM[i], v))
            if c:
                w = v[:i] + (v[i] + c,) + v[i + 1:]
                if w not in found:
                    found.add(w)
                    frontier.append(w)
    return RootSet(lattice=lat, roots=tuple(DivisorClass(v) for v in sorted(found)))


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
    def sizes(self) -> tuple[int, ...]:
        return tuple(map(len, self._values()))


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
    Raises ToolkitError if a B class meets other than two (-2)-curves,
    if the families overlap, or if their union is not the root set.  The
    sizes are not checked here; `verify` requires (84, 28, 128).
    """
    lat = rs.lattice
    kc = lat.k.coords
    ell = [f.coords for f in elliptic]

    fam1 = {
        tuple(map(sub, a.coords, b.coords))
        for a, row in zip(elliptic, lat.pairings(elliptic, elliptic))
        for b, ab in zip(elliptic, row)
        if a != b and ab == 0
    }
    fam2 = {tuple(map(sub, kc, f)) for f in ell} | {tuple(map(sub, f, kc)) for f in ell}
    fam3 = set()
    for b, row in zip(b_classes, lat.pairings(b_classes, minus_two_curves)):
        meets = [c for c, bc in zip(minus_two_curves, row) if bc > 0]
        if len(meets) != 2:
            raise ToolkitError(f"B class {b.coords} meets {len(meets)} (-2)-curves, expected 2")
        f, g = meets[0].coords, meets[1].coords
        base = tuple(2 * x - y for x, y in zip(kc, b.coords))
        for extra in ((0,) * lat.rank, f, g, tuple(map(add, f, g))):
            fam3.add(tuple(map(sub, base, extra)))

    for (i, fam_i), (j, fam_j) in combinations(enumerate((fam1, fam2, fam3), 1), 2):
        if fam_i & fam_j:
            raise ToolkitError(f"families {i} and {j} overlap, witness {min(fam_i & fam_j)}")
    union = fam1 | fam2 | fam3
    rootset = rs._index
    if union != rootset:
        missing = sorted(rootset - union)[:3]
        extra = sorted(union - rootset)[:3]
        raise ToolkitError(f"union mismatch: missing {missing}, extraneous {extra}")
    return RootPartition(
        elliptic_differences=tuple(DivisorClass(v) for v in sorted(fam1)),
        canonical_minus_elliptic=tuple(DivisorClass(v) for v in sorted(fam2)),
        b_derived=tuple(DivisorClass(v) for v in sorted(fam3)),
    )


def vanishing_classification(
    rs: RootSet,
    minus_two_curves: Sequence[DivisorClass],
    degree1_elliptic: Sequence[DivisorClass],
) -> Mapping[DivisorClass, VanishingTag]:
    """Tag each root: H0 iff it is a (-2)-curve class, H2 iff k - root is one
    of the 14 effective degree-1 elliptic classes, NEITHER otherwise.

    The two tags are verified to be mutually exclusive on this lattice.
    """
    kc = rs.lattice.k.coords
    h0_set = {c.coords for c in minus_two_curves}
    e_set = {c.coords for c in degree1_elliptic}
    tags: dict[DivisorClass, VanishingTag] = {}
    for r in rs.roots:
        in_h0 = r.coords in h0_set
        in_h2 = tuple(map(sub, kc, r.coords)) in e_set
        if in_h0 and in_h2:
            raise ToolkitError(f"root {r.coords} is tagged both H0 and H2")
        tags[r] = (VanishingTag.H0 if in_h0 else VanishingTag.H2 if in_h2
                   else VanishingTag.NEITHER)
    return tags
