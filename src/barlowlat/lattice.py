"""Exact arithmetic on a Picard lattice.

Classes are integer coordinate vectors in a fixed basis; the lattice supplies
the symmetric pairing, the Euler characteristic of a class, the root test and
reconstruction of classes from their pairings against a spanning probe set.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import (
    DimensionMismatch,
    InconsistentValues,
    NonIntegralSolution,
    NonSymmetricGram,
    ParityViolation,
    ProbesDoNotSpan,
)
from . import linalg


@dataclass(frozen=True)
class DivisorClass:
    """An integer vector in the coordinates of a fixed lattice basis."""

    coords: tuple[int, ...]

    def __post_init__(self) -> None:
        if not all(isinstance(c, int) for c in self.coords):
            raise TypeError("coordinates must be integers")
        object.__setattr__(self, "coords", tuple(int(c) for c in self.coords))

    @staticmethod
    def zero(rank: int) -> "DivisorClass":
        return DivisorClass((0,) * rank)

    def __len__(self) -> int:
        return len(self.coords)

    def __add__(self, other: "DivisorClass") -> "DivisorClass":
        if len(self) != len(other):
            raise DimensionMismatch(f"{len(self)} != {len(other)}")
        return DivisorClass(tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other: "DivisorClass") -> "DivisorClass":
        if len(self) != len(other):
            raise DimensionMismatch(f"{len(self)} != {len(other)}")
        return DivisorClass(tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __neg__(self) -> "DivisorClass":
        return DivisorClass(tuple(-a for a in self.coords))

    def __rmul__(self, scalar: int) -> "DivisorClass":
        if not isinstance(scalar, int):
            raise TypeError("scalar must be an integer")
        return DivisorClass(tuple(scalar * a for a in self.coords))

    def is_zero(self) -> bool:
        return not any(self.coords)


@dataclass(frozen=True)
class PicardLattice:
    """Rank, symmetric integer Gram matrix and a distinguished canonical class."""

    rank: int
    gram: tuple[tuple[int, ...], ...]
    k: DivisorClass

    def _check_len(self, v: DivisorClass) -> None:
        if len(v) != self.rank:
            raise DimensionMismatch(
                f"class has length {len(v)}, lattice has rank {self.rank}"
            )

    def pair(self, a: DivisorClass, b: DivisorClass) -> int:
        """Intersection pairing a . b."""
        self._check_len(a)
        self._check_len(b)
        g = self.gram
        return sum(
            a.coords[i] * g[i][j] * b.coords[j]
            for i in range(self.rank)
            for j in range(self.rank)
            if a.coords[i] and g[i][j] and b.coords[j]
        )

    def chi(self, d: DivisorClass) -> int:
        """Euler characteristic 1 + (d.d - d.k)/2 of a class."""
        s = self.pair(d, d) - self.pair(d, self.k)
        if s % 2:
            raise ParityViolation(
                f"d.d - d.k = {s} is odd; lattice data is inconsistent"
            )
        return 1 + s // 2

    def chi_hom(self, frm: DivisorClass, to: DivisorClass) -> int:
        """Euler pairing of two line-bundle classes: chi(to - frm)."""
        return self.chi(to - frm)

    def is_root(self, v: DivisorClass) -> bool:
        """True iff v.k = 0 and v.v = -2."""
        return self.pair(v, self.k) == 0 and self.pair(v, v) == -2

    def parity_holds(self, v: DivisorClass) -> bool:
        """v.v + v.k even (fails only on corrupted gram/k data)."""
        return (self.pair(v, v) + self.pair(v, self.k)) % 2 == 0

    def det(self) -> int:
        d = linalg.det_exact(self.gram)
        return int(d)

    def signature(self) -> tuple[int, int, int]:
        return linalg.signature_symmetric(self.gram)

    def class_from_pairings(
        self,
        probes: Sequence[DivisorClass],
        values: Sequence[int],
    ) -> DivisorClass:
        """The unique integral class x with x . probe_i = value_i.

        Solved by exact rational elimination on a maximal independent probe
        subset; the remaining equations are verified, and the solution is
        checked to be integral in lattice coordinates.
        """
        if len(probes) != len(values):
            raise DimensionMismatch("probes and values have different lengths")
        for p in probes:
            self._check_len(p)
        rows = [
            [
                sum(p.coords[i] * self.gram[i][j] for i in range(self.rank))
                for j in range(self.rank)
            ]
            for p in probes
        ]
        status, x = linalg.solve_overdetermined(rows, list(values))
        if status == "underdetermined":
            raise ProbesDoNotSpan(
                f"probes span a proper subspace of the rank-{self.rank} lattice"
            )
        if status == "inconsistent":
            raise InconsistentValues("pairing equations have no common solution")
        assert x is not None
        if any(c.denominator != 1 for c in x):
            raise NonIntegralSolution(
                f"solution {[str(c) for c in x]} is rational but not integral"
            )
        return DivisorClass(tuple(int(c) for c in x))


def make_lattice(
    rank: int,
    gram: Iterable[Iterable[int]],
    k: DivisorClass,
) -> PicardLattice:
    """Validate and freeze a lattice: square symmetric gram, k of matching length."""
    g = tuple(tuple(int(x) for x in row) for row in gram)
    if len(g) != rank or any(len(row) != rank for row in g):
        raise DimensionMismatch(f"gram is not {rank}x{rank}")
    if not linalg.is_symmetric(g):
        bad = next(
            (i, j)
            for i in range(rank)
            for j in range(rank)
            if g[i][j] != g[j][i]
        )
        raise NonSymmetricGram(f"gram[{bad[0]}][{bad[1]}] != gram[{bad[1]}][{bad[0]}]")
    if len(k) != rank:
        raise DimensionMismatch(f"k has length {len(k)}, expected {rank}")
    return PicardLattice(rank=rank, gram=g, k=k)

