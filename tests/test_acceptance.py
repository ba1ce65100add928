"""Acceptance suite: one test per criterion, exact tolerances, timed.

Each test prints a single PASS line with its wall time so a plain
`pytest -s tests/test_acceptance.py` doubles as the acceptance report.
"""
import random
import time
from itertools import product

import pytest

from barlowlat import linalg
from barlowlat.exceptional import (
    DecompositionProblem,
    decompose_effective,
    is_num_exceptional,
    search_configs,
    sequence_from_config,
)
from barlowlat.fixtures import BASIS_NAMES, CURVE_NAMES, b_keys, b_name
from barlowlat.heights import (
    INF,
    Arc,
    ExtBoundMatrix,
    Fullness,
    arc_height,
    fullness_verdict,
    height,
    single_segment_bound,
)
from barlowlat.homledger import (
    StarChoice,
    formality_report,
    min_chain_degree,
    validate_ledger,
)
from barlowlat.lattice import DivisorClass, make_lattice
from barlowlat.roots import enumerate_roots, extended_cartan_expected, partition_roots

from root_oracle import fincke_pohst_roots

BOTH_STARS = (StarChoice.ZERO, StarChoice.NONZERO)


class timer:
    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.t0
        return False


def report(n, t, summary):
    print(f"\nACCEPTANCE {n:>2} PASS ({t.elapsed:8.3f}s): {summary}")


def test_acceptance_01_root_enumeration(fix, lat):
    with timer() as t:
        rs = enumerate_roots(lat)
        assert len(rs) == 240
        part = partition_roots(
            rs,
            fix.degree1_elliptic_classes(),
            list(fix.b_classes().values()),
            fix.minus_two_classes(),
        )
        assert part.sizes == (84, 28, 128)
        fams = [
            set(part.elliptic_differences),
            set(part.canonical_minus_elliptic),
            set(part.b_derived),
        ]
        assert not (fams[0] & fams[1] or fams[0] & fams[2] or fams[1] & fams[2])
        assert fams[0] | fams[1] | fams[2] == set(rs.roots)
    assert t.elapsed < 1.0
    report(1, t, "240 roots, disjoint families 84 + 28 + 128")


def test_acceptance_02_highest_root_extension(fix, lat):
    with timer() as t:
        ds = [fix.curve_class(f"D{i}") for i in range(1, 9)]
        e = fix.curve_class("e")
        # integral by construction; the half-sum weights are 1..6 on the
        # chain plus {3, 4} on the two fork tips.  Which tip carries 4 is the
        # one free choice of the construction; only the (D7 -> 4, D8 -> 3)
        # glue lands in this lattice (the (3, 4) assignment is the other
        # spinor coset, checked below).
        assert lat.is_root(e)
        weighted = DivisorClass.zero(9)
        for w, d in zip((1, 2, 3, 4, 5, 6, 4, 3), ds):
            weighted = weighted + w * d
        assert 2 * e == weighted
        other = DivisorClass.zero(9)
        for w, d in zip((1, 2, 3, 4, 5, 6, 3, 4), ds):
            other = other + w * d
        assert any(c % 2 for c in other.coords), "other glue must be non-integral"

        basis = [fix.curve_class(n) for n in BASIS_NAMES]
        gram = [[lat.pair(a, b) for b in basis] for a in basis]
        assert abs(int(linalg.det_exact(gram))) == 1
        # diag(1) + negated Cartan of the extended diagram; the glue vector
        # pairs -1 with its neighbour, so its sign is normalized for the
        # comparison (a basis sign flip, not a different lattice)
        flipped = list(basis)
        flipped[1] = -flipped[1]
        gram_norm = [[lat.pair(a, b) for b in flipped] for a in flipped]
        expected = [
            [(-1 if (i == 0) != (j == 0) else 1) * v for j, v in enumerate(row)]
            for i, row in enumerate(extended_cartan_expected())
        ]
        assert gram_norm[0][0] == 1
        assert all(gram_norm[0][j] == 0 for j in range(1, 9))
        for i in range(8):
            for j in range(8):
                assert gram_norm[1 + i][1 + j] == expected[i][j]
    assert t.elapsed < 1.0
    report(2, t, "glue root integral, basis Gram = diag(1) + (-E8 Cartan), det 1")


def test_acceptance_03_curve_table(fix, lat):
    with timer() as t:
        assert linalg.first_difference(fix.curves.gram, tuple(zip(*fix.curves.gram))) is None
        assert linalg.rank_exact(fix.curves.gram) == 9
        ds = [fix.curve_class(f"D{i}") for i in range(1, 9)]
        gram = tuple(tuple(lat.pair(a, b) for b in ds) for a in ds)
        assert gram == tuple(tuple(r) for r in fix.d8_gram_expected)
    assert t.elapsed < 1.0
    report(3, t, "curve table symmetric of rank 9, simple-root Gram exact")


def test_acceptance_04_b_reconstruction(fix, lat):
    with timer() as t:
        bs = fix.b_classes()   # raises unless all 32 solve integrally
        assert len(bs) == 32
        for k1 in b_keys():
            for k2 in b_keys():
                if k1 == k2:
                    continue
                got = lat.pair(bs[b_name(*k1)], bs[b_name(*k2)])
                assert got == fix.b_table.expected_pairing(k1, k2)
        l_curve = fix.curve_class("L")
        two_k = 2 * fix.curve_class("K")
        for key in b_keys():
            assert lat.pair(bs[b_name(*key)] - two_k, l_curve) == -key[0]
        c = fix.curve_class
        assert 2 * c("Bp000") == (
            8 * c("K") - c("L") - c("E3p") - c("E4p") - c("E5p")
            - c("C1m") - c("C2p")
        )
    assert t.elapsed < 1.0
    report(4, t, "32 integral genus-3 classes, blocks + pentagon rule + doubling")


def test_acceptance_05_chi_matrix(fix, lat):
    with timer() as t:
        seq = fix.sequence
        chi = [[lat.chi(a - b) for b in seq] for a in seq]
        assert tuple(tuple(r) for r in chi) == fix.chi_matrix
        ok, matrix = is_num_exceptional(lat, seq)
        assert ok
        assert tuple(tuple(r) for r in matrix) == fix.chi_matrix
    assert t.elapsed < 1.0
    report(5, t, "11x11 Euler matrix exact, sequence numerically exceptional")


def test_acceptance_06_ledger_consistency(fix):
    with timer() as t:
        out = validate_ledger(fix.ledger, fix.chi_matrix)
        assert out["cells_checked"] == 66
        assert fix.ledger.star_positions == frozenset(
            (11, j) for j in (1, 2, 4, 5, 6, 8, 9, 10)
        )
        for choice in BOTH_STARS:
            for (i, j), _ in fix.ledger.entries.items():
                datum = fix.ledger.datum(i, j, choice)
                assert datum.euler() == fix.chi_matrix[i - 1][j - 1]
    assert t.elapsed < 1.0
    report(6, t, "Ext triples alternate to chi in all cells, both star options")


def test_acceptance_07_formality(fix):
    with timer() as t:
        led = fix.ledger
        assert min_chain_degree(led, StarChoice.NONZERO, 5) == 7
        assert min_chain_degree(led, StarChoice.NONZERO, 4) == 6
        assert min_chain_degree(led, StarChoice.NONZERO, 3) == 4
        for d in range(6, 12):
            for stars in BOTH_STARS:
                assert min_chain_degree(led, stars, d) == INF
        for stars in BOTH_STARS:
            rep = formality_report(led, stars)
            for d in range(3, 12):
                assert rep[d].forced_zero
    assert t.elapsed < 1.0
    report(7, t, "minimal chain degrees 7/6/4, none beyond five steps, all forced")


def test_acceptance_08_height(fix):
    with timer() as t:
        h = height(fix.ext_bounds)
        assert h == 2
        assert single_segment_bound(fix.ext_bounds) == 2
        assert fullness_verdict(h, 2) == Fullness.NOT_FULL
    assert t.elapsed < 1.0
    report(8, t, "height 2 (single-segment bound 2), verdict: not full")


def test_acceptance_09_search(fix, lat):
    with timer() as t:
        rs = enumerate_roots(lat)
        configs = search_configs(rs, lat.k, limit=10)
        assert len(configs) >= 1
        for cfg in configs:
            assert cfg.violations(lat) == []
            seq = sequence_from_config(lat, cfg)
            ok, _ = is_num_exceptional(lat, seq)
            assert ok
    assert t.elapsed < 300.0
    report(9, t, f"{len(configs)} configurations found, all sequences verified")


def test_acceptance_10_oracle_suites(fix, lat):
    with timer() as t:
        # the Fincke-Pohst root oracle vs box search on small lattices, and
        # the Weyl closure vs that oracle on the canonical lattice
        def box_roots(small):
            return sorted(
                (
                    DivisorClass(c)
                    for c in product(range(-6, 7), repeat=small.rank)
                    if small.is_root(DivisorClass(c))
                ),
                key=lambda v: v.coords,
            )

        for rank, gram, k in [
            (1, [[1]], (1,)),
            (2, [[1, 0], [0, -2]], (1, 0)),
            (3, [[1, 0, 0], [0, -2, 1], [0, 1, -2]], (1, 0, 0)),
            (3, [[2, 1, 0], [1, -2, 0], [0, 0, -2]], (1, 0, 0)),
        ]:
            small = make_lattice(rank, gram, DivisorClass(k))
            assert fincke_pohst_roots(small) == box_roots(small)
        assert list(enumerate_roots(lat).roots) == fincke_pohst_roots(lat)

        # height DP vs brute-force circles on synthetic tables
        def circles(n):
            for a0 in range(1, n + 1):
                inner = list(range(a0 + 1, n + 1))
                for mask in range(1 << len(inner)):
                    mid = [inner[t] for t in range(len(inner)) if mask >> t & 1]
                    yield Arc(tuple([a0] + mid + [a0 + n]), n=n)

        rng = random.Random(20240809)
        for _ in range(12):
            n = rng.choice([2, 3, 4])
            rows = [[None] * (2 * n) for _ in range(2 * n)]
            for i in range(2, 2 * n + 1):
                for j in range(max(1, i - n), i):
                    rows[i - 1][j - 1] = (
                        "inf" if rng.random() < 0.2 else rng.randint(0, 3)
                    )
            m = ExtBoundMatrix.from_rows(n, rows)
            brute = min(
                (arc_height(a, m) for a in circles(n)), default=INF
            )
            assert height(m) == brute

        # chain DP vs full enumeration on the shipped ledger
        from itertools import combinations

        for stars in BOTH_STARS:
            for d in range(2, 7):
                best = INF
                for chain in combinations(range(1, 12), d + 1):
                    total = 0
                    for j, i in zip(chain, chain[1:]):
                        w = fix.ledger.datum(i, j, stars).min_degree()
                        if w == INF:
                            break
                        total += w
                    else:
                        best = min(best, total)
                assert min_chain_degree(fix.ledger, stars, d) == best

        # decomposition vs grid search, caps <= 2, <= 6 generators
        for seed in range(3):
            r2 = random.Random(seed)
            names = r2.sample(list(CURVE_NAMES), 6)
            gens = [(n, fix.curve_class(n)) for n in names]
            target = DivisorClass.zero(9)
            for c, (_, g) in zip([r2.randint(0, 2) for _ in range(6)], gens):
                target = target + c * g
            got = decompose_effective(
                lat, DecompositionProblem.create(target, gens, caps=2)
            )
            grid = sorted(
                combo
                for combo in product(range(3), repeat=6)
                if sum(
                    (c * g for c, (_, g) in zip(combo, gens)),
                    DivisorClass.zero(9),
                )
                == target
            )
            assert got == grid

        # reconstruction round-trip and Serre symmetry on 1000 random classes
        probes = [fix.curve_class(n) for n in CURVE_NAMES]
        r3 = random.Random(31337)
        for _ in range(1000):
            v = DivisorClass(tuple(r3.randint(-20, 20) for _ in range(9)))
            values = [lat.pair(v, p) for p in probes]
            assert lat.class_from_pairings(probes, values) == v
            assert lat.chi(v) == lat.chi(lat.k - v)
    assert t.elapsed < 60.0
    report(10, t, "all oracle suites agree (roots, height, chains, grids, chi)")
