"""Numerically exceptional sequences: verification, construction, search.

A sequence of classes l_1..l_N is numerically exceptional when every
chi(l_i, l_i) = 1 and chi(l_i, l_j) = 0 for i > j.  The ten-root pattern
(a chain A1..A8, B1 on A3 and B2 on A6, B1.B2 = -1) produces such a
sequence of length 11.  Its pairing table CONFIG_GRAM drives both the
validation of a configuration and the search, which places the ten members
one by one among the roots by depth-first backtracking.  Every chi of the
pattern is one integer polynomial in the members' pairings and k.k, so the
search certifies a configuration by them; the first certified one per k.k
and every uncertified one take the full check, sequence_from_config.  Both
read the member pairs s <= t in one order, _UPPER (combinations with
replacement of the ten members: A1.A1, A1.A2, ..., A3.B1, ..., B2.B2).  The
effective-decomposition solver enumerates all bounded nonnegative integer
representations of a class over a generator list: one linalg.gauss_jordan
gives a flag per rank-raising generator, which forces that coefficient, and
the search runs on integer tuples.  Two exact integer prunes cut it: an
interval per flag that the generators up to its pivot can still fill, and a
jump past the generators of positive degree once the degree is spent.  None
of that set-up depends on the target: it runs once per (lattice,
generators, caps), kept in a small memo, and carries an identity block U
through the elimination, so a target's column is U.target.
"""
from __future__ import annotations

from functools import cache, lru_cache
from itertools import accumulate, combinations_with_replacement, starmap, zip_longest
from operator import and_, index, mul, sub
from typing import Callable, Sequence

from . import linalg
from .errors import ToolkitError
from .lattice import DivisorClass, PicardLattice
from .record import Record
from .roots import RootSet, diagram_gram


def is_num_exceptional(
    lat: PicardLattice, seq: Sequence[DivisorClass]
) -> tuple[bool, list[list[int]]]:
    """Verdict plus the full matrix M[i][j] = chi(l_i - l_j).

    True iff the diagonal is all ones and every entry above the diagonal
    vanishes (backward Euler pairings are zero).
    """
    n = len(seq)
    matrix = lat.euler_matrix(seq)
    ok = all(matrix[i][i] == 1 for i in range(n)) and all(
        matrix[i][j] == 0 for i in range(n) for j in range(i + 1, n)
    )
    return ok, matrix


# ----------------------------------------------------------------- configurations

#: the ten members of the configuration, in the order of CONFIG_GRAM
CONFIG_MEMBERS = ("A1", "A2", "A3", "A4", "A5", "A6", "A7", "A8", "B1", "B2")

#: the ten roots are (-2)-classes; consecutive chain members meet once, B1
#: meets A3, B2 meets A6, B1.B2 = -1, and every other pair is orthogonal
CONFIG_GRAM = diagram_gram(
    10, {(s, s + 1): 1 for s in range(7)} | {(2, 8): 1, (5, 9): 1, (8, 9): -1}
)
#: the member pairs s <= t in combinations_with_replacement order, which both
#: the search's certificate and violations() read, and their CONFIG_GRAM entries
_UPPER = tuple(combinations_with_replacement(range(10), 2))
_UPPER_ENTRIES = tuple(CONFIG_GRAM[s][t] for s, t in _UPPER)


class ABConfiguration(Record):
    a: tuple[DivisorClass, ...]  # eight chain roots
    b: tuple[DivisorClass, ...]  # two marked roots
    k: DivisorClass

    def __post_init__(self) -> None:
        if len(self.a) != 8 or len(self.b) != 2:
            raise ToolkitError("need eight chain roots and two extra roots")

    def violations(self, lat: PicardLattice) -> list[str]:
        """The members that are not roots, then each pair s < t whose pairing
        is not CONFIG_GRAM's, in _UPPER order; read off one pairing table."""
        members = [*self.a, *self.b]
        rows = lat.pairings(members, [*members, lat.k])
        out = [f"member {i} is not a root" for i, row in enumerate(rows)
               if row[i] != -2 or row[-1]]
        return out + [f"{CONFIG_MEMBERS[s]}.{CONFIG_MEMBERS[t]} = {rows[s][t]}, expected {want}"
                      for (s, t), want in zip(_UPPER, _UPPER_ENTRIES)
                      if s < t and rows[s][t] != want]


def _pattern(
    a: Sequence[DivisorClass], b1: DivisorClass, b2: DivisorClass, k: DivisorClass
) -> list[DivisorClass]:
    """The eleven-term pattern: partial sums of the chain, with k - B1 in
    third place, k - B2 after the five-sum, and the zero class last."""
    sums = list(accumulate(a))
    return [*sums[:2], k - b1, *sums[2:5], k - b2, *sums[5:], DivisorClass.zero(len(k))]


def sequence_from_config(
    lat: PicardLattice, cfg: ABConfiguration
) -> tuple[DivisorClass, ...]:
    """The eleven classes built from a valid configuration.

    Always numerically exceptional when the configuration is valid.
    """
    if bad := cfg.violations(lat):
        raise ToolkitError("; ".join(bad))
    seq = _pattern(cfg.a, *cfg.b, cfg.k)
    ok, _ = is_num_exceptional(lat, seq)
    if not ok:
        raise ToolkitError("built sequence is not numerically exceptional")
    return tuple(seq)


#: the k.k values at which a certified leaf has passed sequence_from_config
_PATTERN_HOLDS: set[int] = set()


def _pack(col: Sequence[int], w: int) -> int:
    """sum(c << w*y for y, c in enumerate(col)) by halving: each round joins
    neighbours into lo + (hi << span) and doubles span, O(n log n) digit work."""
    col, span = list(col) or [0], w
    while len(col) > 1:
        pairs = zip_longest(col[::2], col[1::2], fillvalue=0)
        col, span = [lo + (hi << span) for lo, hi in pairs], 2 * span
    return col[0]


def _neighbour_rows(
    lat: PicardLattice, roots: Sequence[DivisorClass]
) -> tuple[int, int, Callable[[int], dict[int, int]]]:
    """A lane width w, the mask of all roots and each root's neighbour masks.

    Lane y of an integer is its bits w*y .. w*y + w - 1, and the mask high has
    the top bit of every lane set.  rows(x)[v], built on first read, has the
    top bit of lane y set exactly when x.y = v and y != x, for v in -1, 0, 1;
    integers, unlike sets, leave the garbage collector nothing to traverse.
    _pack packs coordinate column j of the roots into one integer R_j, a lane
    per root, so lane y of the 9-term sum of (x^T G)_j * R_j is x.y.  bound is
    at least every |x.y| and fits in w - 2 bits, so each pairing raised by
    2**(w - 1), and each 2**(w - 1) + v, fits in a lane: none carries.
    """
    cols = list(zip(*(r.coords for r in roots)))
    top = [max(map(abs, col)) for col in cols]
    bound = sum(s * abs(g) * t for s, row in zip(top, lat.gram) for g, t in zip(row, top))
    w = bound.bit_length() + 2
    ones = ((1 << w * len(roots)) - 1) // ((1 << w) - 1)  # 1 in every lane
    high = ones << (w - 1)
    low = high - ones
    packed = [_pack(col, w) for col in cols]

    @cache
    def row(x: int) -> dict[int, int]:
        xg = [sum(map(mul, roots[x].coords, col)) for col in zip(*lat.gram)]
        lanes = sum(map(mul, xg, packed), high)
        others = ~(1 << (w * x + w - 1))
        # t's zero lanes are those where x.y = v; ((t & low) + low) | t has a
        # lane's top bit set exactly when that lane is nonzero
        return {v: high & ~(((t & low) + low) | t) & others
                for v in (-1, 0, 1) for t in [lanes ^ (high + v * ones)]}

    return w, high, row


def search_configs(rs: RootSet, k: DivisorClass, limit: int) -> list[ABConfiguration]:
    """Depth-first backtracking for configurations inside a root set.

    place(m, cands) puts member m of CONFIG_MEMBERS at every root of cands[0],
    in the root set's order; cands holds a candidate mask per member not yet
    placed.  Placing x ANDs each later member t's mask with
    rows(x)[CONFIG_GRAM[m][t]] (forward checking) and skips x at once if one
    becomes empty; the last member reads no row.  Results are deterministic
    and deduplicated only as identical tuples.  A configuration is certified
    when k is lat.k, its Gram's 55 pairings s <= t (9-dots with images G.y,
    each at most once per call), on a Gram checked symmetric, are those of
    CONFIG_GRAM and its members are orthogonal to k.  Every chi of the pattern
    is the same integer polynomial in those pairings and k.k, so all certified
    leaves at one k.k share one verdict: the first one per process takes the
    full check, sequence_from_config, and once it passes (_PATTERN_HOLDS) the
    others are accepted.  An uncertified leaf always takes the full check.
    Stops after `limit` results, an integer (operator.index) of at least 1.
    """
    if (limit := index(limit)) < 1:
        raise ValueError("limit must be positive")
    lat, roots = rs.lattice, rs.roots
    for v in (*roots, k):
        if len(v.coords) != lat.rank:
            lat._check_len(v)
    w, high, rows = _neighbour_rows(lat, roots)

    g = lat.gram
    sound = k == lat.k and linalg.first_difference(g, tuple(zip(*g))) is None
    kk = lat.pair(k, k)
    image = cache(lambda y: tuple(sum(map(mul, row, roots[y].coords)) for row in lat.gram))
    pairing = cache(lambda x, y: sum(map(mul, roots[x].coords, image(y))))
    k_pairing = cache(lambda x: sum(map(mul, image(x), k.coords)))

    def certified(idx: list[int]) -> bool:
        upper = tuple(starmap(pairing, combinations_with_replacement(idx, 2)))
        return sound and upper == _UPPER_ENTRIES and not any(map(k_pairing, idx))

    results: list[ABConfiguration] = []
    placed: list[int] = []

    def place(m: int, cands: list[int]) -> bool:
        """Place members m.. in every way; True once `limit` is reached."""
        # the candidates are the lanes with their top bit set, lowest (first
        # in root order) first
        free, later, ahead = cands[0], cands[1:], CONFIG_GRAM[m][m + 1:]
        while free:
            idx = (free & -free).bit_length() // w - 1
            free &= free - 1
            placed.append(idx)
            if not later:
                members = tuple(roots[i] for i in placed)
                cfg = ABConfiguration(members[:8], members[8:], k)
                if not ((ok := certified(placed)) and kk in _PATTERN_HOLDS):
                    sequence_from_config(lat, cfg)
                    if ok:
                        _PATTERN_HOLDS.add(kk)
                results.append(cfg)
                if len(results) >= limit:
                    return True
            else:
                masks = [*map(and_, later, map(rows(idx).__getitem__, ahead))]
                if all(masks) and place(m + 1, masks):
                    return True
            placed.pop()
        return False

    place(0, [high] * len(CONFIG_MEMBERS))
    return results


# ----------------------------------------------------------------- decomposition

class DecompositionProblem(Record):
    """Bounded nonnegative integer representations of a target class.

    Both constructors check the caps: one per generator, each a nonnegative
    integer, read through operator.index, so a float or a string is a
    TypeError and True is stored as 1.
    """

    target: DivisorClass
    generators: tuple[tuple[str, DivisorClass], ...]
    caps: tuple[int, ...]

    def __post_init__(self) -> None:
        try:
            caps = tuple(map(index, self.caps))
        except TypeError:
            raise TypeError("caps must be integers") from None
        if len(caps) != len(self.generators):
            raise ToolkitError("caps and generators have different lengths")
        if any(c < 0 for c in caps):
            raise ValueError("caps must be nonnegative")
        object.__setattr__(self, "caps", caps)

    @staticmethod
    def create(
        target: DivisorClass,
        generators: Sequence[tuple[str, DivisorClass]],
        caps: int | Sequence[int] = 8,
    ) -> "DecompositionProblem":
        gens = tuple(generators)
        cap_vec = (caps,) * len(gens) if isinstance(caps, int) else caps
        return DecompositionProblem(target=target, generators=gens, caps=cap_vec)


@lru_cache(maxsize=16)
def _search_setup(gram: tuple, k: tuple, gens: tuple, caps: tuple) -> tuple:
    """What decompose_effective needs that does not depend on the target.

    (start_rows, span_rows, reach, cols, place, bounds, skip): a target t
    starts the search at start_rows.t (its degree, then its flag values),
    lies in the span when span_rows.t is zero and is out of reach when its
    degree exceeds reach, the sum of caps times degrees; cols[idx] is the
    degree and flag values of generator idx and place[idx] its flag's
    position in them (0 if none); bounds and skip are the prune tables.
    """
    m, n = len(gens), len(gram)
    # row a holds coordinate a of g_{m-1}, ..., g_0, then row a of the
    # identity; built per coordinate, so rows remain when there is no generator
    rows = [[*(g[a] for g in reversed(gens)), *(int(a == b) for b in range(n))]
            for a in range(n)]
    rows, pivots, _, _ = linalg.gauss_jordan(rows, m)
    rank = len(pivots)
    # the degree, then the flags; cols[idx] is what generator idx takes of them
    kg = tuple(sum(map(mul, row, k)) for row in gram)
    degrees = [sum(map(mul, kg, g)) for g in reversed(gens)]
    cols = tuple(zip(degrees, *rows[:rank]))[::-1]
    if any(col[0] < 0 for col in cols):
        raise ValueError("generators must have nonnegative degree")
    place = [0] * m  # flag coordinates
    # bounds[idx]: per flag with pivot j >= idx, generators idx..j add to it
    # between lo + D*a/b and hi + D*c/e with D degree left (a/b <= 0 <= c/e)
    bounds: list[list[tuple[int, ...]]] = [[] for _ in range(m + 1)]
    for pos, piv in enumerate(pivots, 1):
        j = m - 1 - piv
        place[j] = pos
        lo = hi = a = c = 0
        b = e = 1
        for idx in range(j, -1, -1):
            d, f, cap = cols[idx][0], cols[idx][pos], caps[idx]
            if not d:
                lo, hi = lo + cap * min(0, f), hi + cap * max(0, f)
            elif cap:
                a, b = (f, d) if f * b < a * d else (a, b)
                c, e = (f, d) if f * e > c * d else (c, e)
            bounds[idx].append((pos, lo, a, b, hi, c, e))
    skip = [m] * (m + 1)  # the first generator of degree 0 from idx on, or m
    for idx in range(m - 1, -1, -1):
        skip[idx] = skip[idx + 1] if cols[idx][0] else idx
    start_rows = (kg, *(tuple(row[m:]) for row in rows[:rank]))
    span_rows = tuple(tuple(row[m:]) for row in rows[rank:])
    reach = sum(cap * col[0] for cap, col in zip(caps, cols))
    return (start_rows, span_rows, reach, cols, tuple(place), tuple(map(tuple, bounds)),
            tuple(skip))


def decompose_effective(
    lat: PicardLattice, problem: DecompositionProblem
) -> list[tuple[int, ...]]:
    """All c with sum c_g * g = target and 0 <= c <= caps, in lexicographic order.

    The set-up does not depend on the target and runs once per lattice,
    generator coordinates and caps (_search_setup, a small memo): one
    linalg.gauss_jordan over the columns g_{m-1}, ..., g_0, pivots there,
    with an identity block carried in place of a target column.  Each step is
    linear in the carried columns and divides exactly, so the block becomes
    U with U.target exactly the column the elimination would give the
    target; a further target costs that product plus the search.  Pivot row
    i is the flag of generator m-1-pivots[i], with value d there and 0 at
    every later generator, and a nonzero entry of U.target below the rank
    puts the target outside the span.  No generator has negative degree, so
    a target of degree above reach is out of reach; neither case searches.
    Depth first in generator order on the remainder's degree (pairing with
    k) and flag values: a flag forces its coefficient (flag value over d),
    kept if an integer within the cap and the degree left; other
    coefficients take each value the cap and degree allow.  A leaf needs no
    zero check: its remainder lies in the span, where the flags, each zeroed
    at its own index and untouched after, are d times the dual basis of the
    pivot generators.

    Two prunes, exact in integers, with D the degree left.  A flag is 0 after
    its pivot j, so generators idx..j must add exactly its remainder value.
    One of degree 0 adds between cap*min(0, f) and cap*max(0, f); those of
    positive degree and nonzero cap spend at most D, so together they add
    between D*min(0, f/deg) and D*max(0, f/deg) over them.  A node outside
    an interval returns; the ratios are compared by cross-multiplying.  Both
    sides of a child's check move linearly with the free coefficient above
    it, so that coefficient stops at the last value that passes them all: a
    cap above what the intervals allow costs no calls.  When D is 0, every
    generator of positive degree takes 0, so the search jumps to the next one
    of degree 0, or to the leaf.  A flag whose pivot it jumps over has the
    interval [0, 0] there, so the check just made zeroed it.
    """
    for v in (*(g for _, g in problem.generators), problem.target):
        if len(v.coords) != lat.rank:
            lat._check_len(v)
    gens = tuple(g.coords for _, g in problem.generators)
    target = problem.target.coords
    m, caps = len(gens), problem.caps
    start_rows, span_rows, reach, cols, place, bounds, skip = _search_setup(
        lat.gram, lat.k.coords, gens, caps
    )
    start = tuple(sum(map(mul, row, target)) for row in start_rows)
    if start[0] > reach or any(sum(map(mul, row, target)) for row in span_rows):
        return []
    out: list[tuple[int, ...]] = []
    coeffs = [0] * m  # rec sets coeffs[idx] before it goes deeper

    def rec(idx: int, rem: tuple[int, ...]) -> None:
        left = rem[0]
        for pos, lo, a, b, hi, c, e in bounds[idx]:
            if lo * b + left * a > rem[pos] * b or rem[pos] * e > hi * e + left * c:
                return
        if not left and skip[idx] > idx:
            coeffs[idx:skip[idx]] = [0] * (skip[idx] - idx)
            return rec(skip[idx], rem)
        if idx == m:
            out.append(tuple(coeffs))
            return
        col = cols[idx]
        pos = place[idx]
        if pos:
            q, r = divmod(rem[pos], col[pos])
            if not r and 0 <= q <= caps[idx] and q * col[0] <= rem[0]:
                coeffs[idx] = q
                rec(idx + 1, tuple(a - q * b for a, b in zip(rem, col)))
            return
        d = col[0]
        top = min(caps[idx], left // d) if d else caps[idx]
        for p, lo, a, b, hi, c, e in bounds[idx + 1]:
            f = col[p]
            if f * b > d * a:
                top = min(top, ((rem[p] - lo) * b - left * a) // (f * b - d * a))
            if d * c > f * e:
                top = min(top, ((hi - rem[p]) * e + left * c) // (d * c - f * e))
        for n in range(top + 1):
            coeffs[idx] = n
            rec(idx + 1, rem)
            rem = tuple(map(sub, rem, col))

    rec(0, start)
    return out
