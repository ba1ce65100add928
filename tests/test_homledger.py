from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from barlowlat.errors import SchemaError, ToolkitError
from barlowlat.fixtures import FixtureSet
from barlowlat.homledger import (
    INF,
    CohomDatum,
    LedgerMatrix,
    STAR,
    StarChoice,
    formality_report,
    min_chain_degree,
    validate_ledger,
)

BOTH = (StarChoice.ZERO, StarChoice.NONZERO)


def brute_min_chain(ledger, stars, d):
    """Oracle: enumerate every strictly increasing chain of d + 1 indices."""
    best = INF
    for chain in combinations(range(1, ledger.n + 1), d + 1):
        total = 0
        for j, i in zip(chain, chain[1:]):
            w = ledger.datum(i, j, stars).min_degree()
            if w == INF:
                break
            total += w
        else:
            best = min(best, total)
    return best


def small_ledger(n, data):
    """data: {(i, j): triple-or-'star'}; remaining forward cells are zero."""
    entries = {}
    for i in range(1, n + 1):
        entries[f"{i},{i}"] = [1, 0, 0]
        for j in range(1, i):
            val = data.get((i, j), [0, 0, 0])
            entries[f"{i},{j}"] = val
    return LedgerMatrix.from_dict(n, entries)


def test_datum_basics():
    assert CohomDatum(0, 1, 0).min_degree() == 1
    assert CohomDatum(0, 0, 0).min_degree() == INF
    assert CohomDatum(1, 2, 3).euler() == 2
    with pytest.raises(SchemaError):
        CohomDatum(-1, 0, 0)


def test_star_choice_data_are_shared_constants():
    assert StarChoice.ZERO.datum is StarChoice.ZERO.datum
    assert StarChoice.NONZERO.datum is StarChoice.NONZERO.datum
    assert StarChoice.ZERO.datum == CohomDatum(0, 0, 0)
    assert StarChoice.NONZERO.datum == CohomDatum(0, 1, 1)
    assert [c.value for c in StarChoice] == [(0, 0, 0), (0, 1, 1)]


def test_ledger_shape_validation(fix):
    led = fix.ledger
    assert led.n == 11
    assert led.star_positions == frozenset(
        (11, j) for j in (1, 2, 4, 5, 6, 8, 9, 10)
    )
    assert led.datum(3, 1, StarChoice.ZERO) == CohomDatum(0, 1, 0)
    assert led.datum(1, 3, StarChoice.ZERO) == CohomDatum(0, 0, 0)
    assert led.datum(11, 1, StarChoice.ZERO) == CohomDatum(0, 0, 0)
    assert led.datum(11, 1, StarChoice.NONZERO) == CohomDatum(0, 1, 1)


@pytest.mark.parametrize("i, j", [(1, 99), (12, 1), (0, 1), (1, 0), (12, 12), (-1, -2)])
def test_datum_outside_the_ledger_is_refused(fix, i, j):
    # a backward pair past the table is not the zero datum, nor a KeyError
    for stars in BOTH:
        with pytest.raises(IndexError, match=rf"^indices \({i}, {j}\) outside 1\.\.11$"):
            fix.ledger.datum(i, j, stars)


def test_ledger_rejects_bad_diagonal():
    with pytest.raises(SchemaError, match="diagonal entry 2,2 must be"):
        LedgerMatrix.from_dict(2, {"1,1": [1, 0, 0], "2,2": [0, 0, 0], "2,1": [0, 0, 0]})


def test_ledger_rejects_unexpected_star(raw_copy):
    # the star positions are a rule of the Barlow document, not of the ledger
    raw_copy["ledger"]["entries"]["11,3"] = "star"
    with pytest.raises(SchemaError) as exc:
        FixtureSet.from_dict(raw_copy)
    assert str(exc.value) == (
        "star entries at [(11, 1), (11, 2), (11, 3), (11, 4), (11, 5), (11, 6), (11, 8), "
        "(11, 9), (11, 10)], expected [(11, 1), (11, 2), (11, 4), (11, 5), (11, 6), "
        "(11, 8), (11, 9), (11, 10)]")


@pytest.mark.parametrize("alias, value", [
    ("0_5,3", [0, 0, 0]),
    (" 11 , 5 ", [0, 0, 0]),
    ("+5,3", [0, 0, 0]),
    ("05,3", [0, 0, 0]),
    ("05,3", [0, 0, 1]),            # the same value as cell (5,3) carries
    ("\u0665,3", [0, 0, 0]),        # ARABIC-INDIC DIGIT FIVE
], ids=["underscore", "spaces", "plus", "leading-zero", "leading-zero-same-value",
        "non-ascii-digit"])
def test_ledger_rejects_a_key_that_aliases_a_cell(raw_copy, alias, value):
    # int() reads each of these as 5 or 11, so the key would overwrite a cell
    entries = raw_copy["ledger"]["entries"]
    entries[alias] = value
    with pytest.raises(SchemaError) as exc:
        LedgerMatrix.from_dict(11, entries)
    assert str(exc.value) == f"bad ledger key {alias!r}"


@pytest.mark.parametrize("key, message", [
    ("0,0", "ledger key '0,0' outside the lower triangle"),
    ("12,1", "ledger key '12,1' outside the lower triangle"),
    ("3,5", "ledger key '3,5' outside the lower triangle"),
    ("a,b", "bad ledger key 'a,b'"),
    ("1;1", "bad ledger key '1;1'"),
])
def test_ledger_key_messages(raw_copy, key, message):
    entries = raw_copy["ledger"]["entries"]
    entries[key] = [0, 0, 0]
    with pytest.raises(SchemaError) as exc:
        LedgerMatrix.from_dict(11, entries)
    assert str(exc.value) == message


@pytest.mark.parametrize("key", [5, None, (5, 3)])
def test_ledger_rejects_a_key_that_is_not_a_string(raw_copy, key):
    # a Python mapping can carry keys JSON cannot; each gets the bad-key message
    entries = raw_copy["ledger"]["entries"]
    entries[key] = [0, 0, 0]
    with pytest.raises(SchemaError) as exc:
        LedgerMatrix.from_dict(11, entries)
    assert str(exc.value) == f"bad ledger key {key!r}"
    with pytest.raises(SchemaError) as exc:
        FixtureSet.from_dict(raw_copy)
    assert str(exc.value) == f"bad ledger key {key!r}"
    with pytest.raises(SchemaError, match="^bad ledger key 5$"):
        LedgerMatrix.from_dict(2, {5: [0, 0, 0]})


def test_validate_ledger_against_chi(fix):
    out = validate_ledger(fix.ledger, fix.chi_matrix)
    assert out["cells_checked"] == 66
    # the resolved cell (3,1) alternates to the chi value -1
    assert fix.ledger.datum(3, 1, StarChoice.ZERO).euler() == -1
    assert fix.chi_matrix[2][0] == -1


def test_validate_ledger_detects_inconsistency(fix):
    bad = [list(r) for r in fix.chi_matrix]
    bad[3][2] = 0   # cell (4,3) really has chi 1
    with pytest.raises(ToolkitError, match=r"cell \(4,3\) = \(0, 0, 1\) has alternating sum 1"):
        validate_ledger(fix.ledger, bad)


def test_min_chain_degrees_frozen(fix):
    led = fix.ledger
    assert min_chain_degree(led, StarChoice.NONZERO, 5) == 7
    assert min_chain_degree(led, StarChoice.NONZERO, 4) == 6
    assert min_chain_degree(led, StarChoice.NONZERO, 3) == 4
    assert min_chain_degree(led, StarChoice.NONZERO, 2) == 3
    for d in range(6, 12):
        for stars in BOTH:
            assert min_chain_degree(led, stars, d) == INF
    # without the undetermined entries the five-step chains disappear
    assert min_chain_degree(led, StarChoice.ZERO, 5) == INF
    assert min_chain_degree(led, StarChoice.ZERO, 4) == 6
    assert min_chain_degree(led, StarChoice.ZERO, 3) == 4
    assert min_chain_degree(led, StarChoice.ZERO, 2) == 3


def test_min_chain_matches_bruteforce_on_fixture(fix):
    for stars in BOTH:
        for d in range(2, 8):
            assert min_chain_degree(fix.ledger, stars, d) == brute_min_chain(
                fix.ledger, stars, d
            )


@pytest.mark.parametrize("seed", range(6))
def test_min_chain_matches_bruteforce_random(seed):
    import random

    rng = random.Random(seed)
    n = rng.randint(3, 6)
    data = {}
    for i in range(1, n + 1):
        for j in range(1, i):
            roll = rng.random()
            if roll < 0.4:
                data[(i, j)] = [0, 0, 0]
            elif roll < 0.8:
                data[(i, j)] = [0, rng.randint(0, 2), rng.randint(0, 2)]
            else:
                data[(i, j)] = [rng.randint(0, 1), 0, rng.randint(0, 2)]
    led = small_ledger(n, data)
    for stars in BOTH:
        for d in range(1, n):
            assert min_chain_degree(led, stars, d) == brute_min_chain(led, stars, d)


def test_min_chain_monotone_when_finite(fix):
    for stars in BOTH:
        values = [min_chain_degree(fix.ledger, stars, d) for d in range(2, 12)]
        finite = [v for v in values if v != INF]
        assert finite == sorted(finite)


@st.composite
def drawn_ledgers(draw):
    """A ledger of size 2-7 with zero, nonzero and star cells below the diagonal."""
    n = draw(st.integers(2, 7))
    h = st.integers(0, 2)
    cell = st.one_of(st.just([0, 0, 0]), st.just(STAR), st.lists(h, min_size=3, max_size=3))
    return small_ledger(n, {(i, j): draw(cell) for i in range(1, n + 1) for j in range(1, i)})


def _report_agrees_with_min_chain_degree(led):
    for stars in BOTH:
        report = formality_report(led, stars)
        assert sorted(report) == list(range(2, led.n + 1))
        for d, verdict in report.items():
            assert verdict.min_degree == min_chain_degree(led, stars, d)


def test_formality_report_reads_min_chain_degree_on_the_shipped_ledger(fix):
    _report_agrees_with_min_chain_degree(fix.ledger)


@given(led=drawn_ledgers())
@settings(max_examples=150, deadline=None)
def test_formality_report_reads_min_chain_degree_on_drawn_ledgers(led):
    _report_agrees_with_min_chain_degree(led)
    for stars in BOTH:
        for d in range(1, led.n + 2):
            assert min_chain_degree(led, stars, d) == brute_min_chain(led, stars, d)


def test_formality_forced_zero(fix):
    for stars in BOTH:
        report = formality_report(fix.ledger, stars)
        for d in range(3, 12):
            assert report[d].forced_zero, f"d={d} under {stars}"
        assert report[2].forced_zero            # two-step compositions land in degree 3
        assert report[5].min_degree in (7, INF)


def test_formality_identical_verdicts_under_both_choices(fix):
    reports = [formality_report(fix.ledger, stars) for stars in BOTH]
    verdicts = [
        {d: r[d].forced_zero for d in range(2, 12)} for r in reports
    ]
    assert verdicts[0] == verdicts[1]


def test_formality_counterexample_shape():
    # consecutive sections in degree zero compose into degree zero: nothing
    # forces the two-step product to vanish
    led = small_ledger(3, {(2, 1): [1, 0, 0], (3, 2): [1, 0, 0], (3, 1): [1, 0, 0]})
    report = formality_report(led, StarChoice.ZERO)
    assert report[2].min_degree == 0
    assert not report[2].forced_zero


def test_star_choices_are_chi_neutral():
    # validate_ledger only checks that a star cell has chi 0, which is
    # enough because either choice of datum has alternating sum 0
    for stars in StarChoice:
        assert stars.datum.euler() == 0
