import hashlib
import json
import operator
import random
import re
import time
from collections import Counter
from itertools import product
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from barlowlat import exceptional, linalg
from barlowlat.cli import parse_class_expr
from barlowlat.errors import ToolkitError
from barlowlat.exceptional import (
    ABConfiguration,
    CONFIG_GRAM,
    CONFIG_MEMBERS,
    DecompositionProblem,
    decompose_effective,
    is_num_exceptional,
    search_configs,
    sequence_from_config,
)
from barlowlat.fixtures import CURVE_NAMES
from barlowlat.lattice import DivisorClass, PicardLattice, make_lattice
from barlowlat.roots import RootSet, enumerate_roots

from root_oracle import fincke_pohst_roots, is_root


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


@pytest.mark.parametrize("lengths, message", [
    ((9, 8), "class has length 8, lattice has rank 9"),     # l_2, refused before any cell
    ((8, 9), "class has length 8, lattice has rank 9"),     # l_1, refused before any cell
])
def test_mixed_lengths_raise_at_the_first_cell(lat, lengths, message):
    seq = [DivisorClass.zero(n) for n in lengths]
    with pytest.raises(ToolkitError, match=f"^{message}$"):
        is_num_exceptional(lat, seq)


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
    with pytest.raises(ToolkitError, match=re.escape("; ".join(bad))):
        sequence_from_config(lat, broken)


def test_violations_exact_list(fix, lat):
    # roots first, then each pair s < t in the certificate's order (_UPPER)
    cfg = fixture_config(fix, lat)
    a, b = cfg.a, cfg.b
    broken = ABConfiguration(
        a=(a[1], a[0], *a[2:7], a[7] + a[7]), b=(b[1], a[0]), k=lat.k
    )
    assert broken.violations(lat) == [
        "member 7 is not a root",
        "A1.A3 = 1, expected 0",
        "A1.B2 = 1, expected 0",
        "A2.A3 = 0, expected 1",
        "A2.B2 = -2, expected 0",
        "A3.B1 = 0, expected 1",
        "A6.B1 = 1, expected 0",
        "A6.B2 = 0, expected 1",
        "A7.A8 = 2, expected 1",
        "B1.B2 = 0, expected -1",
    ]


def cellwise_violations(lat, cfg):
    """The oracle: each member through the root oracle, then each pair s < t
    through lat.pair, row by row."""
    members = [*cfg.a, *cfg.b]
    out = [f"member {i} is not a root" for i, m in enumerate(members) if not is_root(lat, m)]
    for s in range(10):
        for t in range(s + 1, 10):
            got, want = lat.pair(members[s], members[t]), CONFIG_GRAM[s][t]
            if got != want:
                out.append(f"{CONFIG_MEMBERS[s]}.{CONFIG_MEMBERS[t]} = {got}, expected {want}")
    return out


@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_violations_match_a_cellwise_oracle(fix, lat, data):
    # the shipped configuration with up to four edits: two members swapped,
    # one repeated in another's place, one doubled, or one replaced by
    # E1 + E2 (square -2, but degree 2) or by any root
    cfg = fixture_config(fix, lat)
    members = [*cfg.a, *cfg.b]
    index = st.integers(0, 9)
    for _ in range(data.draw(st.integers(0, 4), label="edits")):
        kind = data.draw(st.sampled_from(["swap", "repeat", "double", "off_k", "replace"]))
        i, j = data.draw(index), data.draw(index)
        if kind == "swap":
            members[i], members[j] = members[j], members[i]
        elif kind == "repeat":
            members[j] = members[i]
        elif kind == "double":
            members[i] = 2 * members[i]
        elif kind == "off_k":
            members[i] = fix.curve_class("E1") + fix.curve_class("E2")
        else:
            members[i] = data.draw(st.sampled_from(fix.roots.roots))
    drawn = ABConfiguration(tuple(members[:8]), tuple(members[8:]), lat.k)
    assert drawn.violations(lat) == cellwise_violations(lat, drawn)


@pytest.mark.parametrize("check", [
    lambda lat, cfg: cfg.violations(lat),
    sequence_from_config,
], ids=["violations", "sequence_from_config"])
@pytest.mark.parametrize("member", [0, 7, 9])
def test_a_member_of_the_wrong_length_names_its_length(fix, lat, check, member):
    cfg = fixture_config(fix, lat)
    members = [*cfg.a, *cfg.b]
    members[member] = DivisorClass(members[member].coords[:8])
    short = ABConfiguration(tuple(members[:8]), tuple(members[8:]), lat.k)
    with pytest.raises(ToolkitError, match="^class has length 8, lattice has rank 9$"):
        check(lat, short)


@pytest.mark.parametrize("cell, found", [
    ((8, 2), []),
    ((2, 8), ["A3.B1 = 0, expected 1"]),
])
def test_violations_read_each_pair_as_the_certificate_does(cell, found):
    # on an asymmetric Gram only the orientation s < t (A3.B1, not B1.A3) is read
    rs = formal_rootset()
    gram = [list(row) for row in rs.lattice.gram]
    gram[cell[0]][cell[1]] = 0
    formal = PicardLattice(gram=tuple(map(tuple, gram)), k=rs.lattice.k)
    cfg = ABConfiguration(rs.roots[:8], rs.roots[8:], formal.k)
    assert cfg.violations(formal) == found


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


def formal_search_outcomes(gram):
    """For k.k in -5..5, each from an empty _PATTERN_HOLDS: how many
    configurations search_configs finds on formal_rootset(k_square=k.k,
    gram=gram) at limit 3, or the error it raises."""
    out = {}
    for k_square in range(-5, 6):
        exceptional._PATTERN_HOLDS.clear()
        rs = formal_rootset(k_square=k_square, gram=gram)
        try:
            out[k_square] = len(search_configs(rs, rs.lattice.k, limit=3))
        except ToolkitError as exc:
            out[k_square] = str(exc)
    exceptional._PATTERN_HOLDS.clear()
    return out


def test_formal_pattern_holds():
    assert formal_pattern_holds(CONFIG_GRAM, 1) is True
    # the search finds the chain and its reverse, and its first certified leaf
    # proves the pattern at k.k = 1
    assert formal_search_outcomes(CONFIG_GRAM)[1] == 2


def test_formal_pattern_broken_chain():
    g = pattern_gram()
    g[3][4] = g[4][3] = 0   # A4 . A5
    assert formal_pattern_holds(g, 1) is False
    # A4 and A5 are orthogonal, so at no k.k does the search find a configuration
    assert not any(formal_pattern_holds(g, k) for k in range(-5, 6))
    assert formal_search_outcomes(g) == dict.fromkeys(range(-5, 6), 0)


def test_formal_pattern_wrong_k_square():
    # the formal lattice's d.d - d.k is even at every k.k; the pattern fails
    # exceptionality at each k.k but 1, and there the search's first certified
    # leaf raises the full check's error
    holds = [k for k in range(-5, 6) if formal_pattern_holds(CONFIG_GRAM, k)]
    assert holds == [1]
    assert formal_search_outcomes(CONFIG_GRAM) == {
        k: 2 if k in holds else NOT_EXCEPTIONAL for k in range(-5, 6)
    }


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


@pytest.mark.parametrize("seed", [0, 2, 3, 5, 6, 7, 9])
def test_search_matches_naive_dfs_on_root_subsets(fix, lat, seed):
    # on 60-120 of the 240 roots most partial chains dead-end, where forward
    # checking prunes; the oracle runs on root indices over one pairing table
    rng = random.Random(seed)
    roots = rng.sample(fix.roots.roots, rng.randint(60, 120))
    table = list(lat.pairings(roots, roots))
    indexed = SimpleNamespace(pair=lambda i, j: table[i][j])
    at = {r: i for i, r in enumerate(roots)}
    for limit in (1, 5):
        configs = search_configs(RootSet(lattice=lat, roots=tuple(roots)), lat.k, limit)
        got = [(tuple(at[r] for r in c.a), tuple(at[r] for r in c.b)) for c in configs]
        assert got == naive_configs(indexed, range(len(roots)), limit)


@pytest.mark.parametrize("change, length", [
    ("roots", 10),
    ("roots", 8),
    ("k", 10),
    ("k", 8),
])
def test_search_checks_every_class_length(fix, lat, change, length):
    # zip and map truncate, so unchecked, roots of length 10 were certified and
    # roots of length 8 searched for longer than 20 s; each stops the call now
    def resized(v):
        return DivisorClass((*v.coords, 0)[:length])

    roots, k = fix.roots.roots, lat.k
    if change == "roots":
        roots = tuple(map(resized, roots))
    else:
        k = resized(k)
    with pytest.raises(ToolkitError, match=f"^class has length {length}, lattice has rank 9$"):
        search_configs(RootSet(lattice=lat, roots=roots), k, 3)


@pytest.mark.parametrize("limit, error", [
    (2.5, TypeError),
    (3.0, TypeError),
    ("3", TypeError),
    (None, TypeError),
    (0, ValueError),
    (-1, ValueError),
])
def test_search_reads_limit_as_an_integer(fix, lat, limit, error):
    with pytest.raises(error):
        search_configs(fix.roots, lat.k, limit)


def test_search_takes_an_index_as_its_limit(fix, lat):
    # True is the integer 1, as operator.index reads it
    assert search_configs(fix.roots, lat.k, True) == search_configs(fix.roots, lat.k, 1)


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
    return PicardLattice(gram=gram, k=DivisorClass.zero(len(gram)))


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


@given(col=st.lists(st.integers(-(2**80), 2**80), max_size=300), w=st.integers(2, 70))
@example(col=[], w=2)
@example(col=[-1], w=2)
@example(col=[-(2**69), 2**69 - 1, -1], w=70)
@example(col=[-3, 1] * 150, w=3)
@example(col=[1, -1] * 149 + [-1], w=5)
@settings(max_examples=100, deadline=None)
def test_pack_is_the_shifted_sum(col, w):
    assert exceptional._pack(col, w) == sum(c << w * y for y, c in enumerate(col))


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
    """The search's full checks, as (lattice, configuration) pairs in call
    order, from an empty _PATTERN_HOLDS that is emptied again afterwards."""
    checks = []
    check = exceptional.sequence_from_config

    def counted(on, cfg):
        checks.append((on, cfg))
        return check(on, cfg)

    monkeypatch.setattr(exceptional, "sequence_from_config", counted)
    exceptional._PATTERN_HOLDS.clear()
    yield checks
    exceptional._PATTERN_HOLDS.clear()


def per_lattice(checks):
    return Counter(on for on, _ in checks)


def test_search_runs_one_proof_and_no_full_check(fix, lat, counted_proofs):
    # the first certified leaf takes the full check and proves the pattern at
    # k.k = 1; no later leaf of either search takes it
    first = search_configs(fix.roots, lat.k, limit=10)
    assert search_configs(fix.roots, lat.k, limit=10) == first
    assert len(first) == 10
    assert counted_proofs == [(lat, first[0])]
    assert exceptional._PATTERN_HOLDS == {1}


def formal_rootset(a1_square=-2, a1_k=0, k_square=1, gram=CONFIG_GRAM):
    """The ten members as unit vectors of the formal lattice on
    (A1..A8, B1, B2, k): the Gram is `gram` bordered by zeros, with A1.A1,
    A1.k and k.k as given."""
    gram = [list(row) + [0] for row in gram] + [[0] * 10 + [k_square]]
    gram[0][0] = a1_square
    gram[0][10] = gram[10][0] = a1_k
    unit = [DivisorClass(tuple(int(i == j) for j in range(11))) for i in range(11)]
    return RootSet(lattice=make_lattice(11, gram, unit[10]), roots=tuple(unit[:10]))


def formal_pattern_holds(gram, k_square):
    """Reference for the search's proof of its pattern: whether the formal
    configuration, the ten members of formal_rootset in order, passes
    sequence_from_config, which says no by raising ToolkitError."""
    rs = formal_rootset(k_square=k_square, gram=gram)
    try:
        sequence_from_config(rs.lattice, ABConfiguration(rs.roots[:8], rs.roots[8:], rs.lattice.k))
    except ToolkitError:
        return False
    return True


def test_search_certifies_the_formal_configuration():
    rs = formal_rootset()
    configs = search_configs(rs, rs.lattice.k, limit=3)
    # the chain read backwards, with B1 and B2 swapped, is the second one
    assert [[m.coords.index(1) for m in (*c.a, *c.b)] for c in configs] == [
        list(range(10)),
        [7, 6, 5, 4, 3, 2, 1, 0, 9, 8],
    ]


def test_every_searched_configuration_has_the_formal_euler_matrix(fix, lat):
    # the premise of the leaf certificate: each chi of the pattern is one
    # polynomial in the members' pairings and k.k, which every certified leaf
    # shares with the formal configuration
    rs = formal_rootset()
    formal = ABConfiguration(rs.roots[:8], rs.roots[8:], rs.lattice.k)
    _, want = is_num_exceptional(rs.lattice, sequence_from_config(rs.lattice, formal))
    configs = search_configs(fix.roots, lat.k, 100)
    assert len(configs) == 100
    for cfg in configs:
        assert is_num_exceptional(lat, sequence_from_config(lat, cfg)) == (True, want)


NOT_EXCEPTIONAL = "built sequence is not numerically exceptional"
NOT_ROOTS = "member 0 is not a root; member 1 is not a root"


FALLBACK_CASES = ["zero_k", "twice_k", "negated_k", "root_as_k", "a1_square", "a1_k", "k_square"]


def fallback_case(fix, lat, case):
    """(root set, k, the full check's error) for a case that breaks one part
    of the certificate."""
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
    return rs, rs.lattice.k if k is None else k, message


@pytest.mark.parametrize("case", FALLBACK_CASES)
def test_search_falls_back_to_the_full_check(fix, lat, case):
    # each case breaks one part of the certificate; the full check then
    # raises the same error as a search that re-verifies every configuration
    rs, k, message = fallback_case(fix, lat, case)
    with pytest.raises(ToolkitError) as err:
        search_configs(rs, k, limit=3)
    assert str(err.value) == message


#: the error the full check raises when the row of the root placed as
#: A1, A2 or A3 in the first shipped configuration lets every root pair it
#: with every value
LYING_ROW_ERRORS = {
    0: "A1.A2 = -1, expected 1; A1.A3 = -1, expected 0; A1.A4 = 1, expected 0; "
       "A1.B1 = 1, expected 0",
    1: "A2.A3 = -1, expected 1",
    2: "A3.A4 = -1, expected 1; A3.A8 = 1, expected 0; A3.B1 = 0, expected 1",
}


def install_lying_row(fix, lat, monkeypatch, member):
    """Make the row of the root placed as `member` in the first shipped
    configuration admit every root at every pairing value."""
    first = search_configs(fix.roots, lat.k, 1)[0]
    liar = fix.roots.roots.index((*first.a, *first.b)[member])
    helper = exceptional._neighbour_rows

    def lying(lat, roots):
        w, high, rows = helper(lat, roots)
        everyone = dict.fromkeys((-1, 0, 1), high & ~(1 << (w * liar + w - 1)))
        return w, high, lambda x: everyone if x == liar else rows(x)

    monkeypatch.setattr(exceptional, "_neighbour_rows", lying)


@pytest.mark.parametrize("member", list(LYING_ROW_ERRORS))
def test_search_certificate_rejects_a_leaf_a_lying_row_admits(fix, lat, monkeypatch, member):
    # the DFS trusts the neighbour rows; a row that admits every root at every
    # pairing value places members whose true pairings are wrong, and the
    # certificate must send that leaf to the full check, which names them
    install_lying_row(fix, lat, monkeypatch, member)
    with pytest.raises(ToolkitError) as err:
        search_configs(fix.roots, lat.k, 5)
    assert str(err.value) == LYING_ROW_ERRORS[member]


@pytest.mark.parametrize("cell, value, found", [
    ((1, 0), 5, None),
    ((0, 1), 5, None),
    ((9, 8), 0, [list(range(10))]),
    ((10, 0), 1, None),
])
def test_search_on_an_asymmetric_gram_takes_the_full_check(cell, value, found):
    # PicardLattice itself does not check symmetry; one asymmetric cell of the
    # formal lattice must fail the certificate, and the full check decides:
    # it reads each member pair in one order only, so (9, 8) passes it
    gram = [list(row) + [0] for row in CONFIG_GRAM] + [[0] * 10 + [1]]
    gram[cell[0]][cell[1]] = value
    unit = [DivisorClass(tuple(int(i == j) for j in range(11))) for i in range(11)]
    formal = PicardLattice(gram=tuple(map(tuple, gram)), k=unit[10])
    rs = RootSet(lattice=formal, roots=tuple(unit[:10]))
    if found is None:
        with pytest.raises(ToolkitError) as err:
            search_configs(rs, formal.k, 3)
        assert str(err.value) == NOT_EXCEPTIONAL
    else:
        configs = search_configs(rs, formal.k, 3)
        assert [[m.coords.index(1) for m in (*c.a, *c.b)] for c in configs] == found


def test_search_proves_the_pattern_once_per_k_square(fix, lat, counted_proofs):
    # the shipped lattice and the formal one both have k.k = 1 and share the
    # one full check; a formal lattice with k.k = 3 makes one failing check
    # per call and proves nothing
    search_configs(fix.roots, lat.k, limit=1)
    rs = formal_rootset()
    assert len(search_configs(rs, rs.lattice.k, limit=1)) == 1
    assert per_lattice(counted_proofs) == {lat: 1}
    rs3 = formal_rootset(k_square=3)
    for _ in range(2):
        with pytest.raises(ToolkitError, match=NOT_EXCEPTIONAL):
            search_configs(rs3, rs3.lattice.k, limit=1)
    assert per_lattice(counted_proofs) == {lat: 1, rs3.lattice: 2}
    assert exceptional._PATTERN_HOLDS == {1}


def formal_rule_search(monkeypatch, rs, k, limit):
    """Reference: the search under the rule of a formal proof.  The DFS gives
    its first `limit` leaves when the full check accepts everything; then a
    leaf takes no check when the lattice is sound, the formal configuration
    passes at its k.k (formal_pattern_holds) and the leaf's violations are
    none, and every other leaf takes sequence_from_config in order."""
    with monkeypatch.context() as patched:
        patched.setattr(exceptional, "_PATTERN_HOLDS", set())
        patched.setattr(exceptional, "sequence_from_config", lambda on, cfg: None)
        leaves = search_configs(rs, k, limit)
    lat = rs.lattice
    proved = (k == lat.k and linalg.first_difference(lat.gram, tuple(zip(*lat.gram))) is None
              and formal_pattern_holds(CONFIG_GRAM, lat.pair(k, k)))
    for cfg in leaves:
        if not (proved and cfg.violations(lat) == []):
            sequence_from_config(lat, cfg)
    return leaves


def shuffled(fix, seed):
    roots = list(fix.roots.roots)
    random.Random(seed).shuffle(roots)
    return roots


EQUIVALENCE_CASES = {
    "shipped": lambda fix: fix.roots.roots,
    "shuffled-1": lambda fix: shuffled(fix, 1),
    "shuffled-2": lambda fix: shuffled(fix, 2),
    "subset-0": lambda fix: random.Random(0).sample(fix.roots.roots, 120),
    "subset-5": lambda fix: random.Random(5).sample(fix.roots.roots, 90),
    **{f"fallback-{case}": case for case in FALLBACK_CASES},
    **{f"lying-row-{member}": member for member in LYING_ROW_ERRORS},
}


@pytest.mark.parametrize("case", list(EQUIVALENCE_CASES))
def test_search_matches_the_formal_proof_rule(fix, lat, monkeypatch, case):
    # proving the pattern on the first certified leaf changes no result and
    # no error: the same search under the formal proof's rule agrees
    spec = EQUIVALENCE_CASES[case]
    if case.startswith("fallback-"):
        rs, k, _ = fallback_case(fix, lat, spec)
    else:
        if case.startswith("lying-row-"):
            install_lying_row(fix, lat, monkeypatch, spec)
            spec = EQUIVALENCE_CASES["shipped"]
        rs, k = RootSet(lattice=lat, roots=tuple(spec(fix))), lat.k

    def outcome(search):
        try:
            return search(rs, k, 10)
        except ToolkitError as exc:
            return str(exc)

    exceptional._PATTERN_HOLDS.clear()
    got = outcome(search_configs)
    assert got == outcome(lambda *args: formal_rule_search(monkeypatch, *args))


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
    names = list(CURVE_NAMES)
    gens = [(n, fix.curve_class(n)) for n in names]
    problem = DecompositionProblem.create(DivisorClass.zero(9), gens, caps=8)
    assert decompose_effective(lat, problem) == [(0,) * 14]


def test_decompose_linked_class(fix, lat):
    names = list(CURVE_NAMES) + sorted(fix.b_classes())
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


DIGEST_FILE = json.loads(
    (Path(__file__).parent / "data" / "decompose_digests.json").read_text()
)
DECOMPOSE_DIGESTS = DIGEST_FILE["targets"]


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


def test_decompose_matches_capped_digests(fix, lat):
    # pinned before the search had interval bounds and the degree-exhausted
    # skip: multiples of K with 6 to 117 solutions, 3K at caps 2, and targets
    # that need a (-2)-curve more than once.  Label "TARGET @ caps C", value
    # [number of solutions, SHA-256 of the repr of the sorted solution list]
    names = list(CURVE_NAMES) + sorted(fix.b_classes())
    gens = [(n, fix.curve_class(n)) for n in names]
    assert len(DIGEST_FILE["capped"]) == 8
    for label, (count, digest) in DIGEST_FILE["capped"].items():
        expr, caps = label.split(" @ caps ")
        problem = DecompositionProblem.create(parse_class_expr(fix, expr), gens, int(caps))
        sols = decompose_effective(lat, problem)
        assert len(sols) == count, label
        assert hashlib.sha256(repr(sorted(sols)).encode()).hexdigest() == digest, label


@pytest.mark.parametrize("target", ["K", "5K - E3p - Bp000"])
def test_decompose_large_caps_cost_no_time(fix, lat, target):
    # a free coefficient stops at the last value that its child's interval
    # checks allow, so caps of 10**9 visit the same nodes as caps of 8; the
    # search that tried every value up to the cap took about an hour
    names = list(CURVE_NAMES) + sorted(fix.b_classes())
    gens = [(n, fix.curve_class(n)) for n in names]
    cls = parse_class_expr(fix, target)
    small = decompose_effective(lat, DecompositionProblem.create(cls, gens, caps=8))
    start = time.process_time()
    large = decompose_effective(lat, DecompositionProblem.create(cls, gens, caps=10**9))
    assert time.process_time() - start < 2.0
    assert large == small and len(small) == 1


@pytest.mark.parametrize("target", ["593K", "700K", "999K"])
def test_decompose_target_out_of_reach_returns_at_once(fix, lat, target):
    # no combination of the 46 defaults at caps 8 has degree above 592, the
    # sum of caps times degrees; the search for 593K ran past two minutes
    names = list(CURVE_NAMES) + sorted(fix.b_classes())
    gens = [(n, fix.curve_class(n)) for n in names]
    assert sum(8 * lat.pair(g, lat.k) for _, g in gens) == 592
    problem = DecompositionProblem.create(parse_class_expr(fix, target), gens, caps=8)
    start = time.process_time()
    assert decompose_effective(lat, problem) == []
    assert time.process_time() - start < 0.5


def test_decompose_target_of_degree_exactly_reach_is_searched(fix, lat):
    # every generator at its cap spends all the degree there is
    gens = [(n, fix.curve_class(n)) for n in ("E1", "K", "C1p")]
    cls = parse_class_expr(fix, "2E1 + 3K + C1p")
    problem = DecompositionProblem.create(cls, gens, [2, 3, 1])
    assert decompose_effective(lat, problem) == [(2, 3, 1)]
    assert grid_decompose(lat, cls, gens, [2, 3, 1]) == [(2, 3, 1)]


@pytest.mark.parametrize("target", [
    "3K", "3K + C1p", "3K + C2p", "3K - E1", "2K + 2C1p", "K + 2C2p + C2m",
    "Bp000 + 2C1m + C2p", "Bp000 + E1 + K", "2C1p + 2C2m", "K - C1p", "E1 + C2m - C1p", "0",
])
def test_decompose_interleaved_degree_zero_generators(fix, lat, target):
    # degree-0 classes (the four (-2)-curves) after generators of positive
    # degree that are pivots, so a flag's interval mixes both kinds; with L
    # the list is dependent (3K = L + 2E1 + C1p + C1m), so 3K has two answers;
    # 2C1p + 2C2m takes two curves at their caps with no degree to spare
    names = ["Bp000", "E1", "C1p", "K", "C1m", "L", "C2p", "C2m"]
    gens = [(n, fix.curve_class(n)) for n in names]
    caps = [2, 2, 2, 3, 2, 1, 2, 2]
    cls = parse_class_expr(fix, target)
    problem = DecompositionProblem.create(cls, gens, caps)
    assert decompose_effective(lat, problem) == grid_decompose(lat, cls, gens, caps)


@pytest.mark.parametrize("target", [
    "K + C1p", "K + 2C1p", "E1 + K", "Bp000 + C1m", "2K + C1p + C1m", "E1",
])
def test_decompose_cap_zero_generators_of_positive_degree(fix, lat, target):
    # E1, Bp000 and E2 are capped at 0; K + 2C1p takes C1p at its cap
    names = ["E1", "K", "C1p", "Bp000", "C1m", "E2"]
    gens = [(n, fix.curve_class(n)) for n in names]
    caps = [0, 2, 2, 0, 2, 0]
    cls = parse_class_expr(fix, target)
    problem = DecompositionProblem.create(cls, gens, caps)
    assert decompose_effective(lat, problem) == grid_decompose(lat, cls, gens, caps)


@pytest.mark.parametrize("target, names", [
    ("E1 - E2", ["E1", "E2"]),
    ("C1p + E2 - E1", ["C1p", "E1", "E2"]),
    ("K + C1p - E1", ["K", "C1p", "E1", "C1m"]),
    ("E1 + C1p - E2", ["E1", "C1p", "E2"]),
])
def test_decompose_degree_runs_out_before_a_positive_flag(fix, lat, target, names):
    # the target has degree 0 but is not a sum of degree-0 generators: the
    # degree is spent from the start while the flag of a later generator of
    # positive degree is nonzero
    gens = [(n, fix.curve_class(n)) for n in names]
    cls = parse_class_expr(fix, target)
    assert lat.pair(cls, lat.k) == 0
    problem = DecompositionProblem.create(cls, gens, caps=3)
    assert decompose_effective(lat, problem) == []
    assert grid_decompose(lat, cls, gens, [3] * len(gens)) == []


def test_decompose_resubstitution(fix, lat):
    names = list(CURVE_NAMES)
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
    names = rng.sample(list(CURVE_NAMES), 6)
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


@given(data=st.data(), rank=st.integers(1, 5))
@settings(max_examples=150, deadline=None)
def test_decompose_matches_grid_oracle_small_lattices(data, rank):
    # identity Gram and k = (1, ..., 1), so the degree is the coordinate sum.
    # Up to six generators: random vectors of nonnegative degree, the zero
    # vector, and repeats, sums and doubles of earlier ones, so the span has
    # any rank up to `rank` and is often dependent; caps 0-3.  The target is
    # a combination within the caps, maybe pushed off by +-1 in one coordinate
    lat = make_lattice(rank, [[int(i == j) for j in range(rank)] for i in range(rank)],
                       DivisorClass((1,) * rank))
    vec = st.lists(st.integers(-2, 2), min_size=rank, max_size=rank)
    gens = []
    for _ in range(data.draw(st.integers(0, 6), label="count")):
        kind = data.draw(st.sampled_from(["vector", "vector", "zero", "repeat", "sum", "double"]))
        if kind == "zero":
            coords = [0] * rank
        elif kind == "vector" or not gens:
            coords = data.draw(vec)
            coords = [-x for x in coords] if sum(coords) < 0 else coords
        else:
            a, b = (gens[data.draw(st.integers(0, len(gens) - 1))][1].coords for _ in "ab")
            coords = {"repeat": a, "sum": [x + y for x, y in zip(a, b)],
                      "double": [2 * x for x in a]}[kind]
        gens.append((f"g{len(gens)}", DivisorClass(tuple(coords))))
    caps = [data.draw(st.integers(0, 3)) for _ in gens]
    target = [0] * rank
    for (_, g), cap in zip(gens, caps):
        c = data.draw(st.integers(0, cap))
        target = [t + c * x for t, x in zip(target, g.coords)]
    shift = data.draw(st.sampled_from([0, 0, -1, 1]), label="shift")
    coord = data.draw(st.integers(0, rank - 1), label="coord")
    target = DivisorClass(tuple(x + shift * (j == coord) for j, x in enumerate(target)))
    problem = DecompositionProblem.create(target, gens, caps)
    assert decompose_effective(lat, problem) == grid_decompose(lat, target, gens, caps)


@pytest.mark.parametrize("target, names, count", [
    ("5K - E3p - Bp000", None, 1),
    ("E1", ["C1p", "C1m", "C2p", "C2m"], 0),  # outside the span
])
def test_decompose_runs_one_elimination(fix, lat, monkeypatch, target, names, count):
    # the set-up is memoized per (lattice, generator coordinates, caps): one
    # elimination on a fresh list, none for further targets on it, inside its
    # span or outside (E2 misses the span of the four (-2)-curves), and one
    # again when the caps change.  A memo hit answers as a fresh set-up does
    calls = []
    inner = linalg.gauss_jordan

    def counted(*args):
        calls.append(args)
        return inner(*args)

    monkeypatch.setattr(linalg, "gauss_jordan", counted)
    exceptional._search_setup.cache_clear()
    names = names or list(CURVE_NAMES) + sorted(fix.b_classes())
    gens = [(n, fix.curve_class(n)) for n in names]

    def solve(expr, caps=8):
        problem = DecompositionProblem.create(parse_class_expr(fix, expr), gens, caps)
        return decompose_effective(lat, problem)

    assert len(solve(target)) == count
    assert len(calls) == 1
    later = [solve(t) for t in ("E2", "C1p + C2m", target)]
    assert len(calls) == 1
    assert len(solve(target, caps=3)) == count
    assert len(calls) == 2
    exceptional._search_setup.cache_clear()
    assert [solve(t) for t in ("E2", "C1p + C2m", target)] == later


def test_decompose_memo_keys_on_lattice_generators_and_caps(fix, lat):
    # one process, interleaved: the same generator coordinates at two caps,
    # in two orders, on lattices that differ only in Gram or only in k.  A
    # memo key missing one of them would hand a call the tables of another;
    # the lattices under which a generator has negative degree would then
    # answer instead of raising, and the grid would catch a wrong order or cap
    exceptional._search_setup.cache_clear()
    ones = DivisorClass((1,) * 9)
    identity = [[int(i == j) for j in range(9)] for i in range(9)]
    flipped = [[(1 - 2 * (i == 8)) * int(i == j) for j in range(9)] for i in range(9)]
    good = [lat, make_lattice(9, lat.gram, 3 * lat.k), make_lattice(9, identity, ones)]
    # k = -e0 under the canonical Gram gives E1 and K negative degree, and k
    # = ones under diag(1, ..., 1, -1) gives C2m: the Gram of good[0], the k
    # of good[2]
    bad = [make_lattice(9, lat.gram, -lat.k), make_lattice(9, flipped, ones)]
    gens = [(n, fix.curve_class(n)) for n in ("E1", "C1p", "C1m", "C2m", "K")]
    targets = [parse_class_expr(fix, t) for t in ("E1 + C1p", "K + C2m", "E1 + C1m + C2m", "E2")]
    for _ in range(2):
        for order in (gens, gens[::-1]):
            # the lower caps first: their tables would prune answers at caps 2
            for caps in ([1, 2, 0, 2, 1], [2] * 5):
                for target in targets:
                    problem = DecompositionProblem.create(target, order, caps)
                    want = grid_decompose(lat, target, order, caps)
                    for each in good:
                        assert decompose_effective(each, problem) == want
                    for each in bad:
                        with pytest.raises(ValueError, match="nonnegative degree"):
                            decompose_effective(each, problem)
    # a caller may mutate what it gets back without touching the next answer
    problem = DecompositionProblem.create(targets[2], gens, 2)
    first = decompose_effective(lat, problem)
    want = list(first)
    first.append(first[0])
    first[0] = ()
    assert decompose_effective(lat, problem) == want == [(1, 0, 1, 1, 0)]


@pytest.mark.parametrize("target", ["0", "E1", "C2m"])
def test_decompose_without_generators(fix, lat, target):
    # no generators: the empty combination is the one answer for 0, and every
    # other target has none; the elimination rows still exist, one per
    # coordinate, with the identity block alone
    cls = parse_class_expr(fix, target)
    problem = DecompositionProblem.create(cls, [], caps=8)
    want = [()] if target == "0" else []
    assert decompose_effective(lat, problem) == want == grid_decompose(lat, cls, [], [])


@pytest.mark.parametrize("caps, error, message", [
    ([2.5, 2, 2], TypeError, "caps must be integers"),
    ([2.0, 2, 2], TypeError, "caps must be integers"),
    (["2", 1, 1], TypeError, "caps must be integers"),
    ([2, 2], ToolkitError, "caps and generators have different lengths"),
    ([2, -1, 2], ValueError, "caps must be nonnegative"),
])
def test_decompose_problem_checks_caps_in_both_constructors(fix, caps, error, message):
    # create and the direct constructor run the same checks; a cap is read
    # through operator.index, so no float or string reaches the search
    gens = tuple((n, fix.curve_class(n)) for n in ("E1", "C1p", "K"))
    target = fix.curve_class("E1")
    with pytest.raises(error, match=message):
        DecompositionProblem.create(target, gens, caps)
    with pytest.raises(error, match=message):
        DecompositionProblem(target=target, generators=gens, caps=caps)


def test_decompose_problem_stores_caps_as_ints(fix):
    gens = tuple((n, fix.curve_class(n)) for n in ("E1", "C1p", "K"))
    target = fix.curve_class("E1")
    problem = DecompositionProblem(target=target, generators=gens, caps=[True, 2, 0])
    assert problem.caps == (1, 2, 0)
    assert all(type(c) is int for c in problem.caps)
    assert DecompositionProblem.create(target, gens, True).caps == (1, 1, 1)
