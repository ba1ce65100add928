"""Exact arithmetic on a Picard lattice.

Classes are integer coordinate vectors in a fixed basis; the lattice supplies
the symmetric pairing, the Euler characteristic of a class and
reconstruction of classes from their pairings against a spanning probe set.
Pairings are bilinear: `pairings` checks the length of every class, then
returns the whole table from one Gram image per right-hand class, and is the
one product with the Gram; `pair` is its one-cell table, and `euler_matrix`
reads every chi(l_i - l_j) off one.
"""
from __future__ import annotations

from functools import cached_property
from itertools import repeat
from math import gcd
from operator import index, mul
from typing import Iterable, Sequence

from .errors import ToolkitError
from . import linalg
from .record import Record


class DivisorClass(Record):
    """An integer vector in the coordinates of a fixed lattice basis."""

    coords: tuple[int, ...]

    def __post_init__(self) -> None:
        coords = tuple(self.coords)   # any iterable of integers; True is stored as 1
        if not all(map(isinstance, coords, repeat(int))):
            raise TypeError("coordinates must be integers")
        object.__setattr__(self, "coords", tuple(map(int, coords)))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.coords == other.coords

    def __hash__(self) -> int:
        return hash((self.coords,))

    @staticmethod
    def zero(rank: int) -> "DivisorClass":
        return DivisorClass((0,) * rank)

    def __len__(self) -> int:
        return len(self.coords)

    def __add__(self, other: "DivisorClass") -> "DivisorClass":
        if len(self) != len(other):
            raise ToolkitError(f"{len(self)} != {len(other)}")
        return DivisorClass(tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other: "DivisorClass") -> "DivisorClass":
        if len(self) != len(other):
            raise ToolkitError(f"{len(self)} != {len(other)}")
        return DivisorClass(tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __neg__(self) -> "DivisorClass":
        return DivisorClass(tuple(-a for a in self.coords))

    def __rmul__(self, scalar: int) -> "DivisorClass":
        if not isinstance(scalar, int):
            raise TypeError("scalar must be an integer")
        return DivisorClass(tuple(scalar * a for a in self.coords))


class PicardLattice(Record):
    """Symmetric integer Gram matrix and a distinguished canonical class."""

    gram: tuple[tuple[int, ...], ...]
    k: DivisorClass

    @cached_property
    def rank(self) -> int:
        return len(self.gram)

    def _check_len(self, v: DivisorClass) -> None:
        if len(v) != self.rank:
            raise ToolkitError(f"class has length {len(v)}, lattice has rank {self.rank}")

    def pair(self, a: DivisorClass, b: DivisorClass) -> int:
        """Intersection pairing a . b: the one-cell table of `pairings`."""
        return self.pairings([a], [b])[0][0]

    def pairings(self, left: Iterable[DivisorClass],
                 right: Iterable[DivisorClass]) -> list[list[int]]:
        """[[a . b for b in right] for a in left], from one Gram image per right
        class.  Every left class, then every right class, is checked for
        length before any cell is computed."""
        left, right = tuple(left), tuple(right)
        for v in (*left, *right):
            self._check_len(v)
        images = [[sum(map(mul, row, b.coords)) for row in self.gram] for b in right]
        return [[sum(map(mul, a.coords, image)) for image in images] for a in left]

    def chi(self, d: DivisorClass) -> int:
        """Euler characteristic 1 + (d.d - d.k)/2 of a class."""
        return _chi_from(self.pair(d, d) - self.pair(d, self.k))

    def euler_matrix(self, seq: Sequence[DivisorClass]) -> list[list[int]]:
        """M[i][j] = chi(seq_i - seq_j) by bilinearity: for d = a - b, d.d - d.k =
        (a.a - a.k) + (b.b + b.k) - 2 a.b.  A class of the wrong length is refused
        by `pairings`; the first odd cell in row order raises chi's error."""
        rows = self.pairings(seq, [*seq, self.k])
        left = [row[i] - row[-1] for i, row in enumerate(rows)]    # a.a - a.k
        right = [row[i] + row[-1] for i, row in enumerate(rows)]   # b.b + b.k
        return [[_chi_from(left[i] + right[j] - 2 * row[j]) for j in range(len(seq))]
                for i, row in enumerate(rows)]

    def classes_from_pairings(
        self,
        probes: Sequence[DivisorClass],
        values: Sequence[Sequence[int]],
    ) -> list[DivisorClass]:
        """For each value row, the unique integral class x with x . probe_i = value_i.

        One fraction-free elimination of the probe pairing rows serves every
        value row; the equations beyond a maximal independent probe subset
        are verified, and each solution is checked to be integral in lattice
        coordinates.  The first value row that fails raises its error.
        """
        if any(len(probes) != len(row) for row in values):
            raise ToolkitError("probes and values have different lengths")
        units = [DivisorClass([int(i == j) for j in range(self.rank)]) for i in range(self.rank)]
        rows = self.pairings(probes, units)
        out = []
        for status, solution in linalg.solve_overdetermined(rows, values):
            if status == "underdetermined":
                raise ToolkitError(
                    f"probes span a proper subspace of the rank-{self.rank} lattice"
                )
            if status == "inconsistent":
                raise ToolkitError("pairing equations have no common solution")
            v, d = solution
            if any(x % d for x in v):
                shown = [f"{x // g}/{d // g}" if d // g > 1 else str(x // g)
                         for x, g in ((x, gcd(x, d)) for x in v)]
                raise ToolkitError(f"solution {shown} is rational but not integral")
            out.append(DivisorClass(tuple(x // d for x in v)))
        return out

    def class_from_pairings(
        self,
        probes: Sequence[DivisorClass],
        values: Sequence[int],
    ) -> DivisorClass:
        """The unique integral class x with x . probe_i = value_i."""
        return self.classes_from_pairings(probes, [values])[0]


def _chi_from(s: int) -> int:
    """1 + s/2 for s = d.d - d.k, which is even when k is characteristic."""
    if s % 2:
        raise ToolkitError(f"d.d - d.k = {s} is odd; lattice data is inconsistent")
    return 1 + s // 2


def make_lattice(
    rank: int,
    gram: Iterable[Iterable[int]],
    k: DivisorClass,
) -> PicardLattice:
    """Validate and freeze a lattice: square symmetric gram of integers (read
    through operator.index, so True is stored as 1), k of matching length."""
    g = tuple(tuple(map(index, row)) for row in gram)
    if len(g) != rank or any(len(row) != rank for row in g):
        raise ToolkitError(f"gram is not {rank}x{rank}")
    bad = linalg.first_difference(g, tuple(zip(*g)))
    if bad:
        raise ToolkitError(f"gram[{bad[0]}][{bad[1]}] != gram[{bad[1]}][{bad[0]}]")
    if len(k) != rank:
        raise ToolkitError(f"k has length {len(k)}, expected {rank}")
    return PicardLattice(gram=g, k=k)

