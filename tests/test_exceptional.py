import hashlib
import json
import operator
import random
from itertools import product
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from barlowlat import exceptional, linalg
from barlowlat.cli import parse_class_expr
from barlowlat.errors import ConfigurationInvalid
from barlowlat.exceptional import (
    ABConfiguration,
    CONFIG_GRAM,
    CONFIG_MEMBERS,
    DecompositionProblem,
    check_formal_pattern,
    decompose_effective,
    is_num_exceptional,
    search_configs,
    sequence_from_config,
    suffix_flags,
)
from barlowlat.fixtures import CURVE_NAMES
from barlowlat.lattice import DivisorClass, PicardLattice, make_lattice
from barlowlat.roots import RootSet, enumerate_roots

from root_oracle import fincke_pohst_roots


def fixture_config(fix, lat):
    """Translate the shipped bundles back into the ten-root pattern."""
    seq = fix.sequence
    t = [s - seq[10] for s in seq]
    a = (
        t[0],
        t[1] - t[0],
        t[3] - t[1],
        t[4] - t[3],
        t[5] - t[4],
        t[7] - t[5],
        t[8] - t[7],
        t[9] - t[8],
    )
    return ABConfiguration(a=a, b=(lat.k - t[2], lat.k - t[6]), k=lat.k)


def test_fixture_sequence_is_num_exceptional(fix, lat):
    ok, matrix = is_num_exceptional(lat, fix.sequence)
    assert ok
    assert tuple(tuple(r) for r in matrix) == fix.chi_matrix


def test_single_class_is_exceptional(lat):
    ok, matrix = is_num_exceptional(lat, [DivisorClass.zero(9)])
    assert ok
    assert matrix == [[1]]


def test_reversed_pair_fails(fix, lat):
    seq = fix.sequence
    ok, matrix = is_num_exceptional(lat, [seq[2], seq[0]])
    assert not ok
    assert matrix[0][1] == -1   # the backward pairing lands above the diagonal


def test_fixture_config_valid_and_builds(fix, lat):
    cfg = fixture_config(fix, lat)
    assert cfg.violations(lat) == []
    seq = sequence_from_config(lat, cfg)
    assert seq[2] == lat.k - cfg.b[0]
    assert seq[6] == lat.k - cfg.b[1]
    assert seq[10] == DivisorClass.zero(9)
    ok, _ = is_num_exceptional(lat, seq)
    assert ok
    # the built sequence is the shipped one translated by its last member
    shipped = fix.sequence
    assert list(seq) == [s - shipped[10] for s in shipped]


def test_fixture_config_members_are_roots(fix, lat):
    cfg = fixture_config(fix, lat)
    rs = enumerate_roots(lat)
    for member in [*cfg.a, *cfg.b]:
        assert member in rs


def test_invalid_config_rejected(fix, lat):
    cfg = fixture_config(fix, lat)
    broken = ABConfiguration(a=cfg.a, b=(cfg.b[0], cfg.b[0]), k=lat.k)
    bad = broken.violations(lat)
    assert any("B1.B2" in msg or "B2" in msg for msg in bad)
    with pytest.raises(ConfigurationInvalid):
        sequence_from_config(lat, broken)


def test_violations_exact_list(fix, lat):
    # roots first, then A-A pairs, B1.A*, B2.A* and B1.B2, each in order
    cfg = fixture_config(fix, lat)
    a, b = cfg.a, cfg.b
    broken = ABConfiguration(
        a=(a[1], a[0], *a[2:7], a[7] + a[7]), b=(b[1], a[0]), k=lat.k
    )
    assert broken.violations(lat) == [
        "member 7 is not a root",
        "A1.A3 = 1, expected 0",
        "A2.A3 = 0, expected 1",
        "A7.A8 = 2, expected 1",
        "B1.A3 = 0, expected 1",
        "B1.A6 = 1, expected 0",
        "B2.A1 = 1, expected 0",
        "B2.A2 = -2, expected 0",
        "B2.A6 = 0, expected 1",
        "B1.B2 = 0, expected -1",
    ]


# --- formal pattern -------------------------------------------------------------

def pattern_gram():
    g = [[0] * 10 for _ in range(10)]
    for i in range(10):
        g[i][i] = -2
    for i in range(7):
        g[i][i + 1] = g[i + 1][i] = 1
    g[8][2] = g[2][8] = 1   # B1 . A3
    g[9][5] = g[5][9] = 1   # B2 . A6
    g[8][9] = g[9][8] = -1
    return g


def test_config_gram_is_the_pattern_gram():
    assert [list(row) for row in CONFIG_GRAM] == pattern_gram()
    assert CONFIG_MEMBERS == tuple(f"A{i}" for i in range(1, 9)) + ("B1", "B2")


def test_formal_pattern_holds():
    assert check_formal_pattern(pattern_gram()) is True


def test_formal_pattern_broken_chain():
    g = pattern_gram()
    g[3][4] = g[4][3] = 0   # A4 . A5
    assert check_formal_pattern(g) is False


def test_formal_pattern_wrong_k_square():
    assert check_formal_pattern(pattern_gram(), k_square=2) is False


def test_formal_pattern_asymmetric_is_false():
    g = pattern_gram()
    g[0][1] = 5
    assert check_formal_pattern(g) is False


# --- search -----------------------------------------------------------------------

def test_search_empty_rootset(lat):
    rs = RootSet(lattice=lat, roots=())
    assert search_configs(rs, lat.k, limit=3) == []


def test_search_small_rootset_no_configs():
    # enumerate_roots refuses this lattice; the oracle finds its two roots
    lat = make_lattice(2, [[1, 0], [0, -2]], DivisorClass((1, 0)))
    rs = RootSet(lattice=lat, roots=tuple(fincke_pohst_roots(lat)))
    assert search_configs(rs, lat.k, limit=2) == []


def test_search_finds_valid_configs(fix, lat):
    rs = enumerate_roots(lat)
    configs = search_configs(rs, lat.k, limit=3)
    assert len(configs) == 3
    for cfg in configs:
        assert cfg.violations(lat) == []
        ok, _ = is_num_exceptional(lat, sequence_from_config(lat, cfg))
        assert ok
    # deterministic ordering across runs
    again = search_configs(rs, lat.k, limit=3)
    assert [(c.a, c.b) for c in configs] == [(c.a, c.b) for c in again]


def naive_configs(lat, roots, limit):
    """Oracle: place A1..A8, B1, B2 in turn, trying every root in order and
    comparing lat.pair with each placed member against pattern_gram()."""
    gram = pattern_gram()
    found, placed = [], []

    def rec(m):
        if m == 10:
            found.append((tuple(placed[:8]), tuple(placed[8:])))
            return len(found) >= limit
        for r in roots:
            if all(lat.pair(p, r) == gram[s][m] for s, p in enumerate(placed)):
                placed.append(r)
                if rec(m + 1):
                    return True
                placed.pop()
        return False

    rec(0)
    return found


@pytest.mark.parametrize("seed", [1, 2])
def test_search_matches_naive_dfs_on_shuffled_roots(fix, lat, seed):
    roots = list(fix.roots.roots)
    random.Random(seed).shuffle(roots)
    rs = RootSet(lattice=lat, roots=tuple(roots))
    got = [(c.a, c.b) for c in search_configs(rs, lat.k, limit=5)]
    assert got == naive_configs(lat, roots, 5)


SEARCH_DIGESTS = json.loads(
    (Path(__file__).parent / "data" / "search_digests.json").read_text()
)


def config_digest(configs):
    """SHA-256 of the repr of the (a, b) coordinate tuples, in result order."""
    found = [
        (tuple(r.coords for r in c.a), tuple(r.coords for r in c.b)) for c in configs
    ]
    return hashlib.sha256(repr(found).encode()).hexdigest()


@pytest.mark.parametrize("limit", [1, 10, 100, 300])
def test_search_matches_pinned_digest(fix, lat, limit):
    configs = search_configs(fix.roots, lat.k, limit)
    assert len(configs) == limit
    assert config_digest(configs) == SEARCH_DIGESTS[str(limit)]


def test_search_skips_pairing_values_outside_the_pattern(fix, lat):
    # a doubled root pairs evenly, up to 8 in size, with every vector here,
    # so it can take no place in a configuration and the results stay put
    doubled = tuple(2 * r for r in fix.roots.roots)
    rs = RootSet(lattice=lat, roots=fix.roots.roots + doubled)
    assert config_digest(search_configs(rs, lat.k, 10)) == SEARCH_DIGESTS["10"]


def test_search_ignores_roots_scaled_by_a_hundred(fix, lat):
    # a hundredfold root pairs with itself to -20,000 and with every root
    # here to a multiple of 100, so its lanes need more than 16 bits and it
    # takes no place in a configuration
    scaled = tuple(100 * r for r in fix.roots.roots)
    rs = RootSet(lattice=lat, roots=fix.roots.roots + scaled)
    assert exceptional._neighbour_rows(lat, rs.roots)[0] > 16
    assert config_digest(search_configs(rs, lat.k, 10)) == SEARCH_DIGESTS["10"]


def unchecked_lattice(gram):
    """A PicardLattice built without make_lattice, so gram may be asymmetric."""
    rank = len(gram)
    return PicardLattice(rank=rank, gram=gram, k=DivisorClass.zero(rank))


@st.composite
def lattices_and_vectors(draw):
    rank = draw(st.integers(0, 4))
    size = draw(st.sampled_from([1, 2, 20, 300]))
    entry = st.integers(-size, size)
    gram = tuple(tuple(draw(entry) for _ in range(rank)) for _ in range(rank))
    vectors = draw(st.lists(st.tuples(*[entry] * rank), max_size=10))
    if vectors:
        vectors += draw(st.lists(st.sampled_from(vectors), max_size=3))
    order = draw(st.permutations(range(len(vectors))))
    return unchecked_lattice(gram), [DivisorClass(vectors[i]) for i in order]


def classes(*coords):
    return [DivisorClass(c) for c in coords]


#: an asymmetric Gram: x.y = x0 * y1 - 3 * x1 * y0
ASYMMETRIC = unchecked_lattice(((0, 1), (-3, 0)))
#: a diagonal Gram with self-pairings 1, -1 and 0 among the vectors below
HYPERBOLIC = unchecked_lattice(((1, 0), (0, -1)))


@given(case=lattices_and_vectors())
@example(case=(HYPERBOLIC, []))
@example(case=(HYPERBOLIC, classes((0, 0), (0, 0), (0, 0))))
@example(case=(HYPERBOLIC, classes((1, 0), (0, 1), (1, 1), (1, 0))))
@example(case=(ASYMMETRIC, classes((1, 0), (0, 1), (1, 1), (-1, 2))))
@example(case=(ASYMMETRIC, classes((9, 1), (0, 9), (-9, 9))))
@example(case=(ASYMMETRIC, classes((1, 0), (0, 1), (300, -300))))
@settings(max_examples=200, deadline=None)
def test_neighbour_masks_match_the_pairing(case):
    lat, vectors = case
    w, high, rows = exceptional._neighbour_rows(lat, vectors)
    tops = sum(1 << (w * y + w - 1) for y in range(len(vectors)))
    assert high == tops
    # rows are built on first read, here last root first
    for x in reversed(range(len(vectors))):
        assert sorted(rows(x)) == [-1, 0, 1]
        for v, mask in rows(x).items():
            assert mask & ~tops == 0
            assert not mask >> (w * x + w - 1) & 1
            assert mask == sum(
                1 << (w * y + w - 1)
                for y, b in enumerate(vectors)
                if y != x and lat.pair(vectors[x], b) == v
            )


def test_neighbour_mask_examples_reach_wide_lanes():
    # the examples above cover bound 0 and lanes of more than 8 and 16 bits
    def width(lat, *coords):
        return exceptional._neighbour_rows(lat, classes(*coords))[0]

    assert width(HYPERBOLIC, (0, 0), (0, 0), (0, 0)) == 2
    assert width(ASYMMETRIC, (9, 1), (0, 9), (-9, 9)) > 8
    assert width(ASYMMETRIC, (1, 0), (0, 1), (300, -300)) > 16


def test_search_configs_pass_the_full_check(fix, lat):
    # the per-configuration re-verification the search no longer runs
    for cfg in search_configs(fix.roots, lat.k, limit=100):
        ok, _ = is_num_exceptional(lat, sequence_from_config(lat, cfg))
        assert ok


@pytest.mark.parametrize("limit, built", [(1, 10), (100, 38)])
def test_search_builds_only_the_rows_it_reads(fix, lat, monkeypatch, limit, built):
    # on the shipped root order the DFS reads the rows of 10 roots at limit 1
    # and of 38 at limit 100, out of 240
    made = []
    helper = exceptional._neighbour_rows

    def recorded(lat, roots):
        w, high, rows = helper(lat, roots)
        made.append(rows)
        return w, high, rows

    monkeypatch.setattr(exceptional, "_neighbour_rows", recorded)
    assert len(search_configs(fix.roots, lat.k, limit)) == limit
    assert [rows.cache_info().currsize for rows in made] == [built]


@pytest.mark.parametrize("seed", [3, 4])
def test_search_commutes_with_lattice_automorphisms(fix, lat, seed):
    # a product of reflections v -> v + (v.r) r in roots fixes k and permutes
    # the roots, so moved root i pairs with moved root j as root i with root
    # j, and the search must pick the same root indices on the moved order
    roots = fix.roots.roots
    moved = list(roots)
    for r in random.Random(seed).choices(roots, k=32):
        moved = [v + lat.pair(v, r) * r for v in moved]
    assert set(moved) == set(roots) and moved != list(roots)

    def indices(order, limit):
        at = {r: i for i, r in enumerate(order)}
        configs = search_configs(RootSet(lattice=lat, roots=tuple(order)), lat.k, limit)
        return [[at[m] for m in (*c.a, *c.b)] for c in configs]

    for limit in (1, 100):
        assert indices(moved, limit) == indices(roots, limit)


@pytest.fixture
def counted_proofs(monkeypatch):
    """Count check_formal_pattern calls from an empty proof cache, and empty
    it again afterwards so no proof run under the patch stays cached."""
    calls = {"proof": 0, "full": 0}
    proof = exceptional.check_formal_pattern

    def counted_proof(*args, **kwargs):
        calls["proof"] += 1
        return proof(*args, **kwargs)

    exceptional._pattern_proved.cache_clear()
    monkeypatch.setattr(exceptional, "check_formal_pattern", counted_proof)
    yield calls
    exceptional._pattern_proved.cache_clear()


def test_search_runs_one_proof_and_no_full_check(fix, lat, monkeypatch, counted_proofs):
    def counted_full(lat, cfg):
        counted_proofs["full"] += 1

    monkeypatch.setattr(exceptional, "sequence_from_config", counted_full)
    for _ in range(2):
        assert len(search_configs(fix.roots, lat.k, limit=10)) == 10
    assert counted_proofs == {"proof": 1, "full": 0}


def formal_rootset(a1_square=-2, a1_k=0, k_square=1):
    """The ten members as unit vectors of the formal lattice on
    (A1..A8, B1, B2, k), with A1.A1, A1.k and k.k as given."""
    gram = [list(row) + [0] for row in CONFIG_GRAM] + [[0] * 10 + [k_square]]
    gram[0][0] = a1_square
    gram[0][10] = gram[10][0] = a1_k
    unit = [DivisorClass(tuple(int(i == j) for j in range(11))) for i in range(11)]
    return RootSet(lattice=make_lattice(11, gram, unit[10]), roots=tuple(unit[:10]))


def test_search_certifies_the_formal_configuration():
    rs = formal_rootset()
    configs = search_configs(rs, rs.lattice.k, limit=3)
    # the chain read backwards, with B1 and B2 swapped, is the second one
    assert [[m.coords.index(1) for m in (*c.a, *c.b)] for c in configs] == [
        list(range(10)),
        [7, 6, 5, 4, 3, 2, 1, 0, 9, 8],
    ]


NOT_EXCEPTIONAL = "built sequence is not numerically exceptional"
NOT_ROOTS = "member 0 is not a root; member 1 is not a root"


@pytest.mark.parametrize(
    "case",
    ["zero_k", "twice_k", "negated_k", "root_as_k", "a1_square", "a1_k", "k_square"],
)
def test_search_falls_back_to_the_full_check(fix, lat, case):
    # each case breaks one part of the certificate; the full check then
    # raises the same error as a search that re-verifies every configuration
    rs = fix.roots
    r0 = rs.roots[0]
    rs, k, message = {
        "zero_k": (rs, DivisorClass.zero(9), NOT_EXCEPTIONAL),
        "twice_k": (rs, 2 * lat.k, NOT_EXCEPTIONAL),
        "negated_k": (rs, -lat.k, NOT_EXCEPTIONAL),
        "root_as_k": (
            RootSet(lattice=make_lattice(9, lat.gram, r0), roots=rs.roots),
            r0,
            NOT_ROOTS,
        ),
        "a1_square": (formal_rootset(a1_square=-4), None, "member 0 is not a root"),
        "a1_k": (formal_rootset(a1_k=2), None, "member 0 is not a root"),
        "k_square": (formal_rootset(k_square=3), None, NOT_EXCEPTIONAL),
    }[case]
    with pytest.raises(ConfigurationInvalid) as err:
        search_configs(rs, rs.lattice.k if k is None else k, limit=3)
    assert str(err.value) == message


def test_search_proves_the_pattern_once_per_k_square(fix, lat, counted_proofs):
    # the shipped lattice and the formal one both have k.k = 1 and share a
    # proof; a formal lattice with k.k = 3 runs its own, which fails
    search_configs(fix.roots, lat.k, limit=1)
    rs = formal_rootset()
    assert len(search_configs(rs, rs.lattice.k, limit=1)) == 1
    assert counted_proofs["proof"] == 1
    rs = formal_rootset(k_square=3)
    for _ in range(2):
        with pytest.raises(ConfigurationInvalid, match=NOT_EXCEPTIONAL):
            search_configs(rs, rs.lattice.k, limit=1)
    assert counted_proofs["proof"] == 2


# --- decomposition ---------------------------------------------------------------

def grid_decompose(lat, target, gens, caps):
    """Exhaustive oracle over the full coefficient grid, coordinate by coordinate."""
    columns = list(zip(*(g.coords for _, g in gens))) or [()] * lat.rank
    out = []
    for combo in product(*(range(c + 1) for c in caps)):
        total = tuple(sum(map(operator.mul, combo, col)) for col in columns)
        if total == target.coords:
            out.append(combo)
    return sorted(out)


def test_decompose_unit_solution(fix, lat):
    gens = [(n, fix.curve_class(n)) for n in ("E1", "C1p", "C1m", "K")]
    target = fix.curve_class("E1") + fix.curve_class("C1p")
    problem = DecompositionProblem.create(target, gens, caps=3)
    sols = decompose_effective(lat, problem)
    assert (1, 1, 0, 0) in sols
    assert sols == grid_decompose(lat, target, gens, [3, 3, 3, 3])


def test_decompose_zero_target(fix, lat):
    names = list(fix.curve_table.names)
    gens = [(n, fix.curve_class(n)) for n in names]
    problem = DecompositionProblem.create(DivisorClass.zero(9), gens, caps=8)
    assert decompose_effective(lat, problem) == [(0,) * 14]


def test_decompose_linked_class(fix, lat):
    names = list(fix.curve_table.names) + sorted(fix.b_classes())
    gens = [(n, fix.curve_class(n)) for n in names]
    target = (
        5 * fix.curve_class("K")
        - fix.curve_class("E3p")
        - fix.curve_class("Bp000")
    )
    problem = DecompositionProblem.create(target, gens, caps=8)
    sols = decompose_effective(lat, problem)
    as_dicts = [
        {names[i]: c for i, c in enumerate(vec) if c} for vec in sols
    ]
    assert as_dicts == [{"Bp001": 1, "C1m": 1, "C2p": 1}]


DECOMPOSE_DIGESTS = json.loads(
    (Path(__file__).parent / "data" / "decompose_digests.json").read_text()
)["targets"]


def test_decompose_matches_pinned_digests(fix, lat):
    # the 14 curves and 32 genus-3 classes at caps 8, as the CLI defaults;
    # each digest is the SHA-256 of the repr of the sorted solution list
    names = list(CURVE_NAMES) + sorted(fix.b_classes())
    gens = [(n, fix.curve_class(n)) for n in names]
    assert len(DECOMPOSE_DIGESTS) == 1 + 2 * 10 + 32
    for label, digest in DECOMPOSE_DIGESTS.items():
        target = parse_class_expr(fix, label)
        sols = decompose_effective(lat, DecompositionProblem.create(target, gens, caps=8))
        assert hashlib.sha256(repr(sorted(sols)).encode()).hexdigest() == digest, label


def test_decompose_resubstitution(fix, lat):
    names = list(fix.curve_table.names)
    gens = [(n, fix.curve_class(n)) for n in names]
    target = 3 * fix.curve_class("K")
    problem = DecompositionProblem.create(target, gens, caps=4)
    sols = decompose_effective(lat, problem)
    assert sols
    for vec in sols:
        total = DivisorClass.zero(9)
        for c, (_, g) in zip(vec, gens):
            total = total + c * g
        assert total == target


@pytest.mark.parametrize("seed", range(4))
def test_decompose_matches_grid_oracle(fix, lat, seed):
    import random

    rng = random.Random(seed)
    names = rng.sample(list(fix.curve_table.names), 6)
    gens = [(n, fix.curve_class(n)) for n in names]
    caps = [2] * 6
    coeffs = [rng.randint(0, 2) for _ in range(6)]
    target = DivisorClass.zero(9)
    for c, (_, g) in zip(coeffs, gens):
        target = target + c * g
    problem = DecompositionProblem.create(target, gens, caps=2)
    assert decompose_effective(lat, problem) == grid_decompose(
        lat, target, gens, caps
    )


@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_decompose_matches_grid_oracle_random(fix, lat, data):
    # up to six generators: classes of the 46 defaults, the zero class and sums
    # of two drawn ones, so the span is rank deficient and often dependent;
    # caps 0-3, a grid of at most 4**6 points.  The target is built from the
    # generators, then some generators are doubled (the target stays in the
    # rational span, maybe not the integer one) and it may be pushed off by
    # +-1 in one coordinate
    pool = list(CURVE_NAMES) + sorted(fix.b_classes())
    gens = []
    for _ in range(data.draw(st.integers(0, 6), label="count")):
        kind = data.draw(st.sampled_from(["class", "class", "zero", "sum"]))
        if kind == "zero":
            gens.append(("0", DivisorClass.zero(9)))
        elif kind == "sum" and gens:
            (n1, g1), (n2, g2) = (gens[data.draw(st.integers(0, len(gens) - 1))] for _ in "12")
            gens.append((f"{n1}+{n2}", g1 + g2))
        else:
            name = data.draw(st.sampled_from(pool))
            gens.append((name, fix.curve_class(name)))
    caps = [data.draw(st.integers(0, 3)) for _ in gens]
    target = DivisorClass.zero(9)
    for (_, g), cap in zip(gens, caps):
        target = target + data.draw(st.integers(0, cap)) * g
    gens = [(n, data.draw(st.sampled_from([1, 1, 1, 2])) * g) for n, g in gens]
    shift = data.draw(st.sampled_from([0, 0, -1, 1]), label="shift")
    coord = data.draw(st.integers(0, 8), label="coord")
    target = DivisorClass(tuple(x + shift * (j == coord) for j, x in enumerate(target.coords)))
    problem = DecompositionProblem.create(target, gens, caps)
    assert decompose_effective(lat, problem) == grid_decompose(lat, target, gens, caps)


def test_decompose_target_outside_rank_deficient_span(fix, lat):
    # the four (-2)-curves span a rank-4 sublattice that misses E1
    gens = [(n, fix.curve_class(n)) for n in ("C1p", "C1m", "C2p", "C2m")]
    target = fix.curve_class("E1")
    assert len(linalg.integer_kernel([g.coords for _, g in gens])) == 9 - 4
    problem = DecompositionProblem.create(target, gens, caps=3)
    assert decompose_effective(lat, problem) == []
    assert grid_decompose(lat, target, gens, [3] * 4) == []


def dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def test_suffix_annihilators_kill_their_suffix(fix):
    # each flag of suffix_flags kills the generators after its own and not
    # its own; the whole list spans the rank-9 lattice, so there are nine
    # flags and no common annihilator, and a single class leaves 8
    names = list(fix.curve_table.names) + sorted(fix.b_classes())
    vectors = [fix.curve_class(n).coords for n in names]
    flags, common = suffix_flags(vectors, len(vectors[0]))
    assert len(flags) == 9 and common == []
    for idx, u in flags.items():
        assert dot(u, vectors[idx]) != 0
        assert all(dot(u, v) == 0 for v in vectors[idx + 1:])
    flags, common = suffix_flags(vectors[-1:], 9)
    assert list(flags) == [0] and len(common) == 8


def _check_annihilators(vectors):
    flags, common = suffix_flags(vectors, len(vectors[0]))
    dim = len(vectors[0])
    assert len(flags) == linalg.rank_exact(vectors)
    assert linalg.rank_exact([*flags.values(), *common]) == dim
    assert len(common) == len(linalg.integer_kernel(vectors))
    for idx, u in flags.items():
        assert dot(u, vectors[idx]) != 0
        assert all(dot(u, v) == 0 for v in vectors[idx + 1:])
    for w in common:
        assert all(dot(w, v) == 0 for v in vectors)
    # a flag sits exactly where the suffix gains rank
    ranks = [linalg.rank_exact(vectors[idx:]) for idx in range(len(vectors))] + [0]
    assert sorted(flags) == [i for i in range(len(vectors)) if ranks[i] > ranks[i + 1]]


def test_suffix_annihilators_match_integer_kernel(fix):
    names = list(fix.curve_table.names) + sorted(fix.b_classes())
    _check_annihilators([fix.curve_class(n).coords for n in names])


@given(
    data=st.data(),
    dim=st.integers(1, 5),
    count=st.integers(1, 7),
)
@settings(max_examples=150, deadline=None)
def test_suffix_annihilators_match_integer_kernel_random(data, dim, count):
    vec = st.tuples(*[st.integers(-3, 3)] * dim)
    _check_annihilators(data.draw(st.lists(vec, min_size=count, max_size=count)))
