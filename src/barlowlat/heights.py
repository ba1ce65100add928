"""Anticanonical-extension height of the length-11 collection.

The extended collection doubles the sequence by twisting every member down
by the canonical class.  A lower-bound table for the relative heights
e(source, target) feeds a min-plus dynamic program over "circles": increasing
index chains of span exactly n.  The resulting minimum certifies a lower
bound for the height; the single-segment circles give the matching upper
bound on the shipped data.  An `ExtBoundMatrix` stores a tuple copy of its
rows: at least one object and 2n rows of 2n cells, each ABSENT, INF or an
integer >= 0; `from_rows` reads the JSON encoding ("inf", null), declared n.
"""
from __future__ import annotations

from functools import cached_property
from typing import Sequence

from .errors import SchemaError, ToolkitError
from .homledger import INF
from .lattice import DivisorClass
from .record import Record, container, is_integer

#: marker for cells of the bound table that carry no data
ABSENT = None


class ExtBoundMatrix(Record):
    """Partial 2n x 2n table of lower bounds: rows[i-1][j-1] bounds e(source j
    -> target i) by an integer, INF (all forward Ext vanish), or ABSENT where
    the normalized circle set never looks, and reading ABSENT is an error."""

    rows: tuple[tuple[int | float | None, ...], ...]

    def __post_init__(self) -> None:
        rows = container(self.rows, "rows", tuple)
        object.__setattr__(self, "rows", tuple(tuple(container(row, f"rows[{i}]", tuple))
                                               for i, row in enumerate(rows)))
        size = 2 * self.n
        if size < 2:
            raise SchemaError(f"n must be a positive integer, got {self.n}")
        if len(self.rows) != size:
            raise SchemaError(f"expected {size} rows, got {len(self.rows)}")
        for i, row in enumerate(self.rows, 1):
            if len(row) != size:
                raise SchemaError(f"row {i} has {len(row)} entries, expected {size}")
            for x in row:
                if not (x is ABSENT or x == INF or is_integer(x) and x >= 0):
                    raise SchemaError(f"bad bound entry {x!r} in row {i}")

    @cached_property
    def n(self) -> int:
        return len(self.rows) // 2

    @staticmethod
    def from_rows(n: int, raw_rows: Sequence[Sequence[int | str | None]]) -> "ExtBoundMatrix":
        if not is_integer(n) or n < 1:
            raise SchemaError(f"n must be a positive integer, got {n!r}")
        if len(container(raw_rows, "rows", tuple)) != 2 * n:
            raise SchemaError(f"expected {2 * n} rows, got {len(raw_rows)}")
        for i, raw in enumerate(raw_rows):   # INF is encoded "inf", never a float
            if any(x == INF for x in container(raw, f"rows[{i}]", tuple)):
                raise SchemaError(f"bad bound entry inf in row {i + 1}")
        return ExtBoundMatrix([[INF if x == "inf" else x for x in raw] for raw in raw_rows])

    def entry(self, target: int, source: int) -> int | float:
        """Bound for e(source -> target), 1-based indices: IndexError outside
        the table, ToolkitError on an ABSENT cell."""
        size = len(self.rows)
        if not (1 <= target <= size and 1 <= source <= size):
            raise IndexError(f"indices ({target}, {source}) outside 1..{size}")
        if (value := self.rows[target - 1][source - 1]) is ABSENT:
            raise ToolkitError(f"cell (target {target}, source {source}) carries no data")
        return value


class Arc(Record):
    """Strictly increasing indices a0 < ... < ak with ak <= a0 + n <= 2n."""

    indices: tuple[int, ...]
    n: int

    def __post_init__(self) -> None:
        a = self.indices
        if len(a) < 2:
            raise ValueError("an arc needs at least two indices")
        if any(x >= y for x, y in zip(a, a[1:])):
            raise ValueError("arc indices must be strictly increasing")
        if a[0] < 1 or a[-1] > a[0] + self.n or a[0] + self.n > 2 * self.n:
            raise ValueError(f"arc {a} violates the index window for n={self.n}")

    @property
    def segments(self) -> int:
        return len(self.indices) - 1


def arc_height(arc: Arc, m: ExtBoundMatrix) -> int | float:
    """Sum of segment bounds minus (segments - 1); INF absorbs."""
    total: int | float = 0
    for src, tgt in zip(arc.indices, arc.indices[1:]):
        val = m.entry(tgt, src)
        if val == INF:
            return INF
        total += val
    return total - arc.segments + 1


def height(m: ExtBoundMatrix) -> int | float:
    """Minimum of arc_height over all normalized circles.

    Normalization: every index except the endpoint stays within 1..n, so a
    circle starting at a0 <= n runs through the lower block and finishes with
    one jump to a0 + n.  Min-plus DP with edge weight (bound - 1) and +1 at
    the end; for a lower-bound table the result is a certified lower bound.
    """
    n = m.n
    best: int | float = INF
    for a0 in range(1, n + 1):
        # dist[u] = cheapest weight of an increasing path a0 -> u inside 1..n
        dist: dict[int, int | float] = {a0: 0}
        for u in range(a0, n + 1):
            du = dist.get(u, INF)
            if du == INF:
                continue
            for v in range(u + 1, n + 1):
                w = m.entry(v, u)
                # an INF edge is skipped before adding: a long integer plus
                # the float INF does not fit in a float
                if w != INF and du + w - 1 < dist.get(v, INF):
                    dist[v] = du + w - 1
        for u, du in dist.items():
            w = m.entry(a0 + n, u)
            if w != INF and du + w < best:
                best = du + w
    return best


def single_segment_bound(m: ExtBoundMatrix) -> int | float:
    """min_i of the one-jump circle (i, i+n); an upper bound for the height
    when the table is exact on those cells."""
    return min(m.entry(i + m.n, i) for i in range(1, m.n + 1))


def extend_anticanonical(
    seq: Sequence[DivisorClass], k: DivisorClass
) -> tuple[DivisorClass, ...]:
    """The 2n classes of the anticanonically extended collection."""
    return tuple(seq) + tuple(c - k for c in seq)


class Fullness:
    NOT_FULL = "not_full"
    INCONCLUSIVE = "inconclusive"


def fullness_verdict(h: int | float, dim: int) -> str:
    """NOT_FULL iff h >= 1 - dim (INF counts as not full)."""
    if dim < 1:
        raise ValueError("dimension must be positive")
    return Fullness.NOT_FULL if h >= 1 - dim else Fullness.INCONCLUSIVE
