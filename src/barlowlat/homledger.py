"""Forward Ext-dimension bookkeeping for the length-11 sequence.

The ledger stores, for every forward pair (j -> i with j <= i), the triple
[h0, h1, h2] of Ext dimensions, with eight entries in the last row left
undetermined ("stars": either [0,0,0] or [0,1,1]).  The degree argument only
needs minimal degrees of chains of composable forward maps, computed here by
dynamic programming over the strictly-increasing-index DAG.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Mapping, Sequence

from .errors import ChiInconsistency, SchemaError, StarPositionError

INF = float("inf")

#: maximal Ext degree on a surface; a composition can only land in degrees
#: 0..2, so a forced total degree above this kills the multiplication.
MAX_EXT_DEGREE = 2

STAR_OPTIONS = ((0, 0, 0), (0, 1, 1))


@dataclass(frozen=True)
class CohomDatum:
    h0: int
    h1: int
    h2: int

    def __post_init__(self) -> None:
        if any(isinstance(h, bool) or not isinstance(h, int) for h in self.triple):
            raise SchemaError(f"Ext dimensions {self.triple!r} must be integers")
        if min(self.triple) < 0:
            raise SchemaError("Ext dimensions must be nonnegative")

    @property
    def triple(self) -> tuple[int, int, int]:
        return (self.h0, self.h1, self.h2)

    def euler(self) -> int:
        return self.h0 - self.h1 + self.h2

    def is_zero(self) -> bool:
        return self.triple == (0, 0, 0)

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

    @property
    def datum(self) -> CohomDatum:
        return CohomDatum(*self.value)


@dataclass(frozen=True)
class LedgerMatrix:
    """n x n lower-triangular table of forward Ext data.

    entries[(i, j)] with 1 <= j <= i <= n is the datum of maps from object j
    to object i, or STAR where undetermined; pairs with i < j are implicitly
    zero (the sequence kills backward maps).
    """

    n: int
    entries: Mapping[tuple[int, int], CohomDatum | str]
    star_positions: frozenset[tuple[int, int]]

    @staticmethod
    def from_dict(
        n: int,
        raw: Mapping[str, Sequence[int] | str],
        expected_stars: Iterable[tuple[int, int]] | None = None,
    ) -> "LedgerMatrix":
        if not isinstance(raw, Mapping):
            raise SchemaError("ledger entries must be a mapping of 'i,j' keys")
        entries: dict[tuple[int, int], CohomDatum | str] = {}
        stars: set[tuple[int, int]] = set()
        for key, val in raw.items():
            try:
                i_s, j_s = key.split(",")
                i, j = int(i_s), int(j_s)
            except ValueError as exc:
                raise SchemaError(f"bad ledger key {key!r}") from exc
            if not (1 <= j <= i <= n):
                raise SchemaError(f"ledger key {key!r} outside the lower triangle")
            if val == STAR:
                entries[(i, j)] = STAR
                stars.add((i, j))
            else:
                if not (isinstance(val, (list, tuple)) and len(val) == 3):
                    raise SchemaError(f"ledger entry {key!r} is not a triple")
                entries[(i, j)] = CohomDatum(*val)
        for i in range(1, n + 1):
            for j in range(1, i + 1):
                if (i, j) not in entries:
                    raise SchemaError(f"ledger entry {i},{j} is missing")
        for i in range(1, n + 1):
            if entries[(i, i)] != CohomDatum(1, 0, 0):
                raise StarPositionError(f"diagonal entry {i},{i} must be [1,0,0]")
        if expected_stars is not None and stars != set(expected_stars):
            raise StarPositionError(
                f"star entries at {sorted(stars)}, expected {sorted(expected_stars)}"
            )
        return LedgerMatrix(n=n, entries=dict(entries), star_positions=frozenset(stars))

    def datum(self, i: int, j: int, stars: StarChoice) -> CohomDatum:
        """Forward datum for maps j -> i; zero for backward pairs."""
        if i < j:
            return ZERO_DATUM
        val = self.entries[(i, j)]
        return stars.datum if val == STAR else val  # type: ignore[return-value]


def validate_ledger(
    ledger: LedgerMatrix,
    chi_matrix: Sequence[Sequence[int]],
) -> dict[str, object]:
    """Check h0 - h1 + h2 = chi for every cell, under both star options.

    chi_matrix[i-1][j-1] must equal the Euler pairing from object j to
    object i.  Star cells must be chi-neutral (chi = 0) so that both options
    are consistent.  Returns a small witness dict.
    """
    n = ledger.n
    checked = 0
    for i in range(1, n + 1):
        for j in range(1, i + 1):
            chi = chi_matrix[i - 1][j - 1]
            val = ledger.entries[(i, j)]
            if val == STAR:
                if chi != 0:
                    raise ChiInconsistency(
                        f"star cell ({i},{j}) has chi {chi}, expected 0"
                    )
                for opt in STAR_OPTIONS:
                    if CohomDatum(*opt).euler() != 0:
                        raise ChiInconsistency("star option is not chi-neutral")
            else:
                assert isinstance(val, CohomDatum)
                if val.euler() != chi:
                    raise ChiInconsistency(
                        f"cell ({i},{j}) = {val.triple} has alternating sum "
                        f"{val.euler()}, chi table says {chi}"
                    )
            checked += 1
    # everything above the diagonal must be chi-zero as well
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            if chi_matrix[i - 1][j - 1] != 0:
                raise ChiInconsistency(
                    f"upper cell ({i},{j}) has chi {chi_matrix[i - 1][j - 1]}, "
                    "expected 0 for a numerically exceptional sequence"
                )
    return {"cells_checked": checked, "stars": sorted(ledger.star_positions)}


def min_chain_degree(
    ledger: LedgerMatrix, stars: StarChoice, d: int
) -> int | float:
    """Minimal total degree of d composable nonzero forward maps.

    Minimum over strictly increasing chains i_0 < ... < i_d of the sum of
    minimal Ext degrees of each step; INF when every chain meets a zero
    datum.  Layered DP: best[s][i] = cheapest s-step chain ending at i.
    """
    if d < 1:
        raise ValueError("chain length must be at least 1")
    n = ledger.n
    weight: dict[tuple[int, int], int | float] = {}
    for j in range(1, n + 1):
        for i in range(j + 1, n + 1):
            w = ledger.datum(i, j, stars).min_degree()
            if w is not INF:
                weight[(j, i)] = w
    best: list[int | float] = [0] * (n + 1)
    for _ in range(d):
        nxt: list[int | float] = [INF] * (n + 1)
        for (j, i), w in weight.items():
            if best[j] != INF and best[j] + w < nxt[i]:
                nxt[i] = best[j] + w
        best = nxt
    return min(best[1:], default=INF)


@dataclass(frozen=True)
class FormalityVerdict:
    d: int
    min_degree: int | float
    landing_degree: int | float  # min_degree - (d - 2)
    forced_zero: bool


def formality_report(
    ledger: LedgerMatrix, stars: StarChoice, d_max: int | None = None
) -> dict[int, FormalityVerdict]:
    """Degree bookkeeping for the order-d compositions, d = 2..n.

    A composition of d maps lowers total degree by d - 2; it is forced to
    vanish when even the cheapest chain of d nonzero maps lands above the
    maximal Ext degree of a surface.
    """
    n = ledger.n
    top = d_max if d_max is not None else n
    out: dict[int, FormalityVerdict] = {}
    for d in range(2, top + 1):
        m = min_chain_degree(ledger, stars, d)
        landing = m - (d - 2) if m != INF else INF
        out[d] = FormalityVerdict(
            d=d,
            min_degree=m,
            landing_degree=landing,
            forced_zero=landing > MAX_EXT_DEGREE,
        )
    return out
