import random

import pytest

from barlowlat.errors import SchemaError, ToolkitError
from barlowlat.heights import (
    Arc,
    ExtBoundMatrix,
    Fullness,
    INF,
    arc_height,
    extend_anticanonical,
    fullness_verdict,
    height,
    single_segment_bound,
)


def circles(n):
    """Oracle: all normalized circles for small n (exponential)."""
    for a0 in range(1, n + 1):
        inner = list(range(a0 + 1, n + 1))
        for mask in range(1 << len(inner)):
            mid = [inner[t] for t in range(len(inner)) if mask >> t & 1]
            yield Arc(tuple([a0] + mid + [a0 + n]), n=n)


def brute_height(m):
    best = INF
    for arc in circles(m.n):
        best = min(best, arc_height(arc, m))
    return best


def full_random_matrix(n, rng, inf_prob=0.2):
    """Synthetic bound matrix defined on the whole normalized window."""
    rows = [[None] * (2 * n) for _ in range(2 * n)]
    for i in range(2, 2 * n + 1):
        for j in range(max(1, i - n), i):
            rows[i - 1][j - 1] = (
                "inf" if rng.random() < inf_prob else rng.randint(0, 3)
            )
    return ExtBoundMatrix.from_rows(n, rows)


def test_extend_anticanonical(fix, lat):
    seq = fix.sequence
    ext = extend_anticanonical(seq, lat.k)
    assert len(ext) == 22
    assert ext[11] == seq[0] - lat.k
    assert lat.pair(ext[11], lat.k) == lat.pair(seq[0], lat.k) - 1
    assert extend_anticanonical([], lat.k) == ()


def test_arc_validation():
    Arc((1, 3, 12), n=11)
    with pytest.raises(ValueError):
        Arc((1,), n=11)
    with pytest.raises(ValueError):
        Arc((3, 2), n=11)
    with pytest.raises(ValueError):
        Arc((1, 13), n=11)   # beyond the window a0 + n
    with pytest.raises(ValueError):
        Arc((12, 23), n=11)  # start beyond n forces a0 + n > 2n


def test_arc_heights_on_fixture(fix):
    m = fix.ext_bounds
    assert arc_height(Arc((1, 12), n=11), m) == 2
    assert arc_height(Arc((1, 3, 12), n=11), m) == 2
    assert arc_height(Arc((2, 13), n=11), m) == 2
    # any arc through a vanishing cell is infinite
    assert m.entry(2, 1) == INF
    assert arc_height(Arc((1, 2, 12), n=11), m) == INF


def test_single_segment_equals_entry(fix):
    m = fix.ext_bounds
    for i in range(1, 12):
        assert arc_height(Arc((i, i + 11), n=11), m) == m.entry(i + 11, i)


def test_absent_cell_is_hard_error(fix):
    m = fix.ext_bounds
    with pytest.raises(ToolkitError, match=r"cell \(target 1, source 5\) carries no data"):
        m.entry(1, 5)
    # the shipped table is defined on the entire arc window: no legal arc
    # can ever touch a hole
    for i in range(2, 23):
        for j in range(max(1, i - 11), i):
            assert m.defined(i, j)
    # a synthetic hole inside the window is a hard error, not a default
    rng = random.Random(0)
    synth = full_random_matrix(3, rng)
    rows = [list(r) for r in synth.rows]
    rows[2][1] = None   # target 3, source 2
    holed = ExtBoundMatrix(n=3, rows=tuple(tuple(r) for r in rows))
    hole = r"cell \(target 3, source 2\) carries no data"
    with pytest.raises(ToolkitError, match=hole):
        arc_height(Arc((2, 3, 5), n=3), holed)
    with pytest.raises(ToolkitError, match=hole):
        height(holed)


@pytest.mark.parametrize("target, source", [(0, 21), (-1, 12), (23, 1), (1, 23), (22, 0)])
def test_cells_outside_the_table_are_refused(fix, target, source):
    # one range check for both readers: a 0 or negative index must not wrap
    # to the last row, and a large one must not leak a bare tuple error
    message = rf"^indices \({target}, {source}\) outside 1\.\.22$"
    with pytest.raises(IndexError, match=message):
        fix.ext_bounds.defined(target, source)
    with pytest.raises(IndexError, match=message):
        fix.ext_bounds.entry(target, source)


def test_fixture_height_is_two(fix):
    m = fix.ext_bounds
    assert height(m) == 2
    assert single_segment_bound(m) == 2


def test_all_inf_matrix():
    n = 3
    rows = [[None] * (2 * n) for _ in range(2 * n)]
    for i in range(2, 2 * n + 1):
        for j in range(max(1, i - n), i):
            rows[i - 1][j - 1] = "inf"
    m = ExtBoundMatrix.from_rows(n, rows)
    assert height(m) == INF
    assert single_segment_bound(m) == INF
    assert fullness_verdict(height(m), 2) == Fullness.NOT_FULL


@pytest.mark.parametrize("seed", range(10))
def test_height_matches_bruteforce(seed):
    rng = random.Random(seed)
    n = rng.choice([2, 3, 4])
    m = full_random_matrix(n, rng)
    assert height(m) == brute_height(m)


@pytest.mark.parametrize("seed", range(5))
def test_height_monotone_in_entries(seed):
    rng = random.Random(100 + seed)
    n = rng.choice([2, 3])
    m = full_random_matrix(n, rng, inf_prob=0.1)
    base = height(m)
    # raise one defined finite entry and re-check
    cells = [
        (i, j)
        for i in range(2, 2 * n + 1)
        for j in range(max(1, i - n), i)
        if m.rows[i - 1][j - 1] != INF
    ]
    i, j = rng.choice(cells)
    rows = [list(r) for r in m.rows]
    rows[i - 1][j - 1] += 1
    bumped = ExtBoundMatrix(n=n, rows=tuple(tuple(r) for r in rows))
    assert height(bumped) >= base


def test_height_takes_bounds_too_long_for_a_float(fix):
    # a long integer plus the float INF overflows, so each INF edge must be
    # skipped before it is added.  Each integer cell of the shipped table at
    # 10**400 in turn leaves a circle of height 2 that avoids it; all of them
    # at once are checked against the oracle
    m = fix.ext_bounds
    cells = [(i, j) for i, row in enumerate(m.rows) for j, x in enumerate(row)
             if isinstance(x, int)]

    def raised(edited):
        rows = [list(r) for r in m.rows]
        for i, j in edited:
            rows[i][j] = 10**400
        return ExtBoundMatrix(n=m.n, rows=tuple(map(tuple, rows)))

    assert [height(raised([cell])) for cell in cells] == [2] * len(cells)
    big = raised(cells)
    assert height(big) == brute_height(big) == 10**400


def test_height_single_segment_is_upper_bound(fix):
    rng = random.Random(7)
    for _ in range(5):
        m = full_random_matrix(3, rng)
        assert height(m) <= single_segment_bound(m)
    assert height(fix.ext_bounds) == single_segment_bound(fix.ext_bounds)


def test_fullness_thresholds():
    assert fullness_verdict(2, 2) == Fullness.NOT_FULL
    assert fullness_verdict(-1, 2) == Fullness.NOT_FULL
    assert fullness_verdict(-2, 2) == Fullness.INCONCLUSIVE
    assert fullness_verdict(INF, 2) == Fullness.NOT_FULL
    with pytest.raises(ValueError):
        fullness_verdict(2, 0)


def test_schema_rejects_bad_rows():
    with pytest.raises(SchemaError):
        ExtBoundMatrix.from_rows(2, [[None] * 4] * 3)
    with pytest.raises(SchemaError):
        ExtBoundMatrix.from_rows(1, [[None, "nan"], [1, None]])
    with pytest.raises(SchemaError):
        ExtBoundMatrix.from_rows(1, [[None, None], [-3, None]])


def test_inf_is_the_ledger_inf():
    from barlowlat import homledger

    assert INF is homledger.INF
