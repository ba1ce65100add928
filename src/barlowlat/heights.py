"""Anticanonical-extension height of the length-11 collection.

The extended collection doubles the sequence by twisting every member down
by the canonical class.  A lower-bound table for the relative heights
e(source, target) feeds a min-plus dynamic program over "circles": increasing
index chains of span exactly n.  The resulting minimum certifies a lower
bound for the height; the single-segment circles give the matching upper
bound on the shipped data.
"""
from __future__ import annotations

from typing import Sequence

from .errors import SchemaError, ToolkitError
from .homledger import INF
from .lattice import DivisorClass
from .record import Record

#: marker for cells of the bound table that carry no data
ABSENT = None


class ExtBoundMatrix(Record):
    """Partial 2n x 2n table of lower bounds for e(source j -> target i).

    rows[i-1][j-1] is an integer bound, INF (all forward Ext vanish), or
    ABSENT where the normalized circle set never looks.  Touching an ABSENT
    cell is a hard error, never a default.
    """

    n: int
    rows: tuple[tuple[int | float | None, ...], ...]

    @staticmethod
    def from_rows(n: int, raw_rows: Sequence[Sequence[int | str | None]]) -> "ExtBoundMatrix":
        if isinstance(n, bool) or not isinstance(n, int) or n < 1:
            raise SchemaError(f"n must be a positive integer, got {n!r}")
        size = 2 * n
        if len(raw_rows) != size:
            raise SchemaError(f"expected {size} rows, got {len(raw_rows)}")
        rows = []
        for i, raw in enumerate(raw_rows):
            if len(raw) != size:
                raise SchemaError(f"row {i + 1} has {len(raw)} entries, expected {size}")
            row: list[int | float | None] = []
            for x in raw:
                if x is None:
                    row.append(ABSENT)
                elif x == "inf":
                    row.append(INF)
                elif isinstance(x, int) and not isinstance(x, bool) and x >= 0:
                    row.append(x)
                else:
                    raise SchemaError(f"bad bound entry {x!r} in row {i + 1}")
            rows.append(tuple(row))
        return ExtBoundMatrix(n=n, rows=tuple(rows))

    def entry(self, target: int, source: int) -> int | float:
        """Bound for e(source -> target), 1-based indices."""
        if not self.defined(target, source):
            raise ToolkitError(f"cell (target {target}, source {source}) carries no data")
        return self.rows[target - 1][source - 1]

    def defined(self, target: int, source: int) -> bool:
        """Whether the cell carries data; IndexError outside the table."""
        size = 2 * self.n
        if not (1 <= target <= size and 1 <= source <= size):
            raise IndexError(f"indices ({target}, {source}) outside 1..{size}")
        return self.rows[target - 1][source - 1] is not ABSENT


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
    if h >= 1 - dim:
        return Fullness.NOT_FULL
    return Fullness.INCONCLUSIVE
