"""Forward Ext-dimension bookkeeping for the length-11 sequence.

The ledger stores, for every forward pair (j -> i with j <= i), the triple
[h0, h1, h2] of Ext dimensions, or a star where it is undetermined (either
[0,0,0] or [0,1,1]); only `LedgerMatrix` reads the star encoding.  The record
stores a read-only copy of exactly the lower triangle of 1..n under (int, int)
keys, each cell a `CohomDatum` or the star, diagonal [1,0,0]; `from_dict` reads
the "i,j" keys up to the declared n, the JSON triples and the star.  The degree
argument only needs minimal degrees of chains of composable forward maps,
computed by one layered DP over the strictly-increasing-index DAG up to length
n, which gives the minimum at every length, as the formality report reads them.
"""
from __future__ import annotations

from enum import Enum
from functools import cached_property
from types import MappingProxyType
from typing import Mapping, Sequence

from .errors import SchemaError, ToolkitError
from .linalg import int_text
from .record import Record, container, freeze, is_integer

#: the degree of a zero datum, +infinity: a sum or difference with it is INF and
#: it exceeds every integer, so the DPs add and compare it with no case of its own
INF = float("inf")

#: dim S, also the top Ext degree between sheaves on S: a composition can only
#: land in degrees 0..2, so a forced total degree above this kills it
SURFACE_DIMENSION = 2


class CohomDatum(Record):
    h0: int
    h1: int
    h2: int

    def __post_init__(self) -> None:
        if not all(map(is_integer, self.triple)):
            raise SchemaError(f"Ext dimensions {self.triple!r} must be integers")
        if min(self.triple) < 0:
            raise SchemaError("Ext dimensions must be nonnegative")

    @property
    def triple(self) -> tuple[int, int, int]:
        return (self.h0, self.h1, self.h2)

    def euler(self) -> int:
        return self.h0 - self.h1 + self.h2

    def min_degree(self) -> int | float:
        """Smallest p with h_p nonzero, INF for the zero datum."""
        for p, h in enumerate(self.triple):
            if h:
                return p
        return INF


ZERO_DATUM = CohomDatum(0, 0, 0)
STAR = "star"


class StarChoice(Enum):
    """Uniform assignment for the undetermined ledger entries."""

    ZERO = (0, 0, 0)
    NONZERO = (0, 1, 1)

    def __init__(self, *triple: int) -> None:
        # one datum per member, shared by every ledger read that takes it
        self.datum = CohomDatum(*triple)


class LedgerMatrix(Record):
    """n x n lower-triangular table of forward Ext data: entries[(i, j)] is the
    datum of maps from object j to object i, or STAR; a backward pair (i < j)
    is zero, as the sequence kills it.  n and the stars are read off it."""

    entries: Mapping[tuple[int, int], CohomDatum | str]

    def __post_init__(self) -> None:
        entries = container(self.entries, "ledger.entries", MappingProxyType)
        object.__setattr__(self, "entries", MappingProxyType(dict(entries)))
        for key, val in self.entries.items():
            if type(key) is not tuple or tuple(map(type, key)) != (int, int):
                raise SchemaError(f"bad ledger key {key!r}")
            i, j = key
            if not 1 <= j <= i:
                raise SchemaError(f"ledger key '{i},{j}' outside the lower triangle")
            if val != STAR and not isinstance(val, CohomDatum):
                raise SchemaError(f"ledger entry {i},{j} is not a CohomDatum or the star")
        rows = range(1, self.n + 1)
        for i, j in ((i, j) for i in rows for j in range(1, i + 1) if (i, j) not in self.entries):
            raise SchemaError(f"ledger entry {i},{j} is missing")
        for i in (i for i in rows if self.entries[(i, i)] != CohomDatum(1, 0, 0)):
            raise SchemaError(f"diagonal entry {i},{i} must be [1,0,0]")

    @cached_property
    def n(self) -> int:
        return max((i for i, _ in self.entries), default=0)

    @cached_property
    def star_positions(self) -> frozenset[tuple[int, int]]:
        return frozenset(cell for cell, val in self.entries.items() if val == STAR)

    @staticmethod
    def from_dict(n: int, raw: Mapping[str, Sequence[int] | str]) -> "LedgerMatrix":
        freeze(n, "ledger.n")
        entries: dict[tuple[int, int], CohomDatum | str] = {}
        for key, val in container(raw, "ledger.entries", MappingProxyType).items():
            try:
                i, j = map(int, key.split(","))
            except (AttributeError, ValueError) as exc:   # not a str, or not "i,j"
                raise SchemaError(f"bad ledger key {key!r}") from exc
            if key != f"{i},{j}":  # int() also reads "05", "+5", " 5", "0_5", "\u0665"
                raise SchemaError(f"bad ledger key {key!r}")
            if i > n:
                raise SchemaError(f"ledger key {key!r} outside the lower triangle")
            if val != STAR and not (isinstance(val, (list, tuple)) and len(val) == 3):
                raise SchemaError(f"ledger entry {key!r} is not a triple")
            entries[(i, j)] = STAR if val == STAR else CohomDatum(*val)
        ledger = LedgerMatrix(entries)
        if ledger.n < n:   # complete up to a row before the declared last
            raise SchemaError(f"ledger entry {ledger.n + 1},1 is missing")
        return ledger

    def datum(self, i: int, j: int, stars: StarChoice) -> CohomDatum:
        """Forward datum for maps j -> i; zero for backward pairs."""
        if not (1 <= i <= self.n and 1 <= j <= self.n):
            raise IndexError(f"indices ({i}, {j}) outside 1..{self.n}")
        if i < j:
            return ZERO_DATUM
        val = self.entries[(i, j)]
        return stars.datum if val == STAR else val  # type: ignore[return-value]

    def min_degrees(self, i: int, j: int) -> frozenset[int | float]:
        """The minimal Ext degrees cell (i, j) admits: one if determined; at a
        star 1 (nonzero option) or INF (a section count gives full vanishing)."""
        return frozenset(self.datum(i, j, choice).min_degree() for choice in StarChoice)


def validate_ledger(
    ledger: LedgerMatrix,
    chi_matrix: Sequence[Sequence[int]],
) -> dict[str, object]:
    """Check that every cell alternates to chi_matrix[i-1][j-1], the Euler
    pairing from object j to object i: the lower triangle in row order, then
    the upper.  Each cell is read through `datum` with the zero star option; a
    star's sum is 0 under both options and a backward cell is the zero datum,
    so a star or upper cell passes exactly when its chi is 0.  Returns a small
    witness dict.
    """
    n = ledger.n
    lower = [(i, j) for i in range(1, n + 1) for j in range(1, i + 1)]
    upper = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    for i, j in lower + upper:
        val, chi = ledger.datum(i, j, StarChoice.ZERO), chi_matrix[i - 1][j - 1]
        if val.euler() == chi:
            continue
        if i < j:
            raise ToolkitError(f"upper cell ({i},{j}) has chi {chi}, "
                               "expected 0 for a numerically exceptional sequence")
        if (i, j) in ledger.star_positions:
            raise ToolkitError(f"star cell ({i},{j}) has chi {chi}, expected 0")
        raise ToolkitError(f"cell ({i},{j}) = {val.triple} has alternating sum "
                           f"{int_text(val.euler())}, chi table says {chi}")
    return {"cells_checked": len(lower), "stars": sorted(ledger.star_positions)}


def _chain_minima(ledger: LedgerMatrix, stars: StarChoice, upto: int) -> list[int | float]:
    """[min over d-step chains for d = 0..upto]: one layered DP, where
    best[i] is the cheapest chain of the current length ending at i."""
    n = ledger.n
    weight: dict[tuple[int, int], int | float] = {}
    for j in range(1, n + 1):
        for i in range(j + 1, n + 1):
            w = ledger.datum(i, j, stars).min_degree()
            if w is not INF:
                weight[(j, i)] = w
    best: list[int | float] = [0] * (n + 1)
    out = [min(best[1:], default=INF)]
    for _ in range(upto):
        nxt: list[int | float] = [INF] * (n + 1)
        for (j, i), w in weight.items():
            if best[j] + w < nxt[i]:
                nxt[i] = best[j] + w
        best = nxt
        out.append(min(best[1:], default=INF))
    return out


def min_chain_degree(ledger: LedgerMatrix, stars: StarChoice, d: int) -> int | float:
    """Minimal total degree of d composable nonzero forward maps: the minimum
    over strictly increasing chains i_0 < ... < i_d of the sum of minimal Ext
    degrees of each step; INF when every chain meets a zero datum."""
    if d < 1:
        raise ValueError("chain length must be at least 1")
    return _chain_minima(ledger, stars, d)[d]


class FormalityVerdict(Record):
    min_degree: int | float
    forced_zero: bool


def formality_report(ledger: LedgerMatrix, stars: StarChoice) -> dict[int, FormalityVerdict]:
    """Degree bookkeeping for the order-d compositions, d = 2..n.

    A composition of d maps lowers total degree by d - 2; it is forced to
    vanish when even the cheapest chain of d nonzero maps lands above the
    maximal Ext degree of a surface.
    """
    return {d: FormalityVerdict(min_degree=m, forced_zero=m - (d - 2) > SURFACE_DIMENSION)
            for d, m in enumerate(_chain_minima(ledger, stars, ledger.n)[2:], 2)}
