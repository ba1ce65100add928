"""Numerically exceptional sequences: verification, construction, search.

A sequence of classes l_1..l_N is numerically exceptional when every
chi(l_i, l_i) = 1 and chi(l_i, l_j) = 0 for i > j.  The ten-root pattern
(an eight-chain with two marked extra roots) produces such a sequence of
length 11; the search below looks for instances of the pattern inside a
root set by depth-first backtracking.  The effective-decomposition solver
enumerates all bounded nonnegative integer representations of a class over
a generator list; it works on integer coordinate tuples only, pruning by
degree and by integer annihilators of each generator suffix.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from operator import mul, sub
from typing import Sequence

from .errors import (
    ConfigurationInvalid,
    DimensionMismatch,
    NonSymmetricGram,
    ParityViolation,
)
from .lattice import DivisorClass, PicardLattice, make_lattice
from .roots import RootSet
from . import linalg


def is_num_exceptional(
    lat: PicardLattice, seq: Sequence[DivisorClass]
) -> tuple[bool, list[list[int]]]:
    """Verdict plus the full matrix M[i][j] = chi(l_i - l_j).

    True iff the diagonal is all ones and every entry above the diagonal
    vanishes (backward Euler pairings are zero).
    """
    n = len(seq)
    matrix = [[lat.chi(seq[i] - seq[j]) for j in range(n)] for i in range(n)]
    ok = all(matrix[i][i] == 1 for i in range(n)) and all(
        matrix[i][j] == 0 for i in range(n) for j in range(i + 1, n)
    )
    return ok, matrix


# ----------------------------------------------------------------- configurations

# chain adjacencies: consecutive A's meet once; the two extra roots attach to
# the third and sixth chain node and meet each other with pairing -1
_B1_ATTACH = 3
_B2_ATTACH = 6


@dataclass(frozen=True)
class ABConfiguration:
    a: tuple[DivisorClass, ...]  # eight chain roots
    b: tuple[DivisorClass, ...]  # two marked roots
    k: DivisorClass

    def __post_init__(self) -> None:
        if len(self.a) != 8 or len(self.b) != 2:
            raise ConfigurationInvalid("need eight chain roots and two extra roots")

    def violations(self, lat: PicardLattice) -> list[str]:
        out = []
        for idx, r in enumerate([*self.a, *self.b]):
            if not lat.is_root(r):
                out.append(f"member {idx} is not a root")
        for s in range(8):
            for t in range(s + 1, 8):
                want = 1 if t == s + 1 else 0
                got = lat.pair(self.a[s], self.a[t])
                if got != want:
                    out.append(f"A{s + 1}.A{t + 1} = {got}, expected {want}")
        for bi, attach in ((0, _B1_ATTACH), (1, _B2_ATTACH)):
            for s in range(8):
                want = 1 if s + 1 == attach else 0
                got = lat.pair(self.b[bi], self.a[s])
                if got != want:
                    out.append(f"B{bi + 1}.A{s + 1} = {got}, expected {want}")
        got = lat.pair(self.b[0], self.b[1])
        if got != -1:
            out.append(f"B1.B2 = {got}, expected -1")
        return out

    def validate(self, lat: PicardLattice) -> None:
        bad = self.violations(lat)
        if bad:
            raise ConfigurationInvalid("; ".join(bad))


def _pattern(
    a: Sequence[DivisorClass], b1: DivisorClass, b2: DivisorClass, k: DivisorClass
) -> list[DivisorClass]:
    """The eleven-term pattern: partial sums of the chain, with k - B1 in
    third place, k - B2 after the five-sum, and the zero class last."""
    sums = list(accumulate(a))
    return [
        sums[0],
        sums[1],
        k - b1,
        sums[2],
        sums[3],
        sums[4],
        k - b2,
        sums[5],
        sums[6],
        sums[7],
        DivisorClass.zero(len(k)),
    ]


def sequence_from_config(
    lat: PicardLattice, cfg: ABConfiguration
) -> tuple[DivisorClass, ...]:
    """The eleven classes built from a valid configuration.

    Always numerically exceptional when the configuration is valid.
    """
    cfg.validate(lat)
    seq = _pattern(cfg.a, *cfg.b, cfg.k)
    ok, _ = is_num_exceptional(lat, seq)
    if not ok:
        raise ConfigurationInvalid("built sequence is not numerically exceptional")
    return tuple(seq)


def check_formal_pattern(
    gram10: Sequence[Sequence[int]],
    k_pairings: Sequence[int] | None = None,
    k_square: int = 1,
) -> bool:
    """Exceptionality of the pattern from bilinear data alone, no embedding.

    gram10 is the 10x10 pairing table of (A1..A8, B1, B2); k_pairings lists
    k.A_i and k.B_j (zero by default); k_square is k.k.  The pattern is
    built in the formal lattice on the eleven generators (A1..A8, B1, B2, k),
    whose Gram is gram10 bordered by k_pairings and k_square.  An asymmetric
    gram10, or one giving a class of odd d.d - d.k, is not exceptional.
    """
    if len(gram10) != 10 or any(len(r) != 10 for r in gram10):
        raise DimensionMismatch("gram10 must be 10x10")
    kp = list(k_pairings) if k_pairings is not None else [0] * 10
    if len(kp) != 10:
        raise DimensionMismatch("k_pairings must have length 10")
    gram = [list(row) + [kp[i]] for i, row in enumerate(gram10)] + [kp + [k_square]]
    unit = [DivisorClass(tuple(int(i == j) for j in range(11))) for i in range(11)]
    try:
        lat = make_lattice(11, gram, unit[10])
        ok, _ = is_num_exceptional(lat, _pattern(unit[:8], unit[8], unit[9], unit[10]))
    except (NonSymmetricGram, ParityViolation):
        return False
    return ok


def search_configs(
    rs: RootSet, k: DivisorClass, limit: int
) -> list[ABConfiguration]:
    """Depth-first backtracking for configurations inside a root set.

    Roots are tried in their canonical order at every level (chain first,
    then the two marked roots), each placement checked against all earlier
    pairings; results are deterministic and deduplicated only as identical
    tuples.  Stops after `limit` configurations.
    """
    if limit < 1:
        raise ValueError("limit must be positive")
    lat = rs.lattice
    roots = rs.roots
    n = len(roots)
    if n == 0:
        return []

    # precompute gram @ root once per root; each pairing is then a 9-dot
    gr = [
        tuple(
            sum(lat.gram[i][j] * r.coords[j] for j in range(lat.rank))
            for i in range(lat.rank)
        )
        for r in roots
    ]
    pair_value: list[list[int]] = [[0] * n for _ in range(n)]
    for x in range(n):
        cx = roots[x].coords
        for y in range(x, n):
            v = sum(a * b for a, b in zip(cx, gr[y]))
            pair_value[x][y] = v
            pair_value[y][x] = v
    ones: list[set[int]] = [set() for _ in range(n)]
    zeros: list[set[int]] = [set() for _ in range(n)]
    neg_ones: list[set[int]] = [set() for _ in range(n)]
    for x in range(n):
        for y in range(n):
            if x == y:
                continue
            v = pair_value[x][y]
            if v == 1:
                ones[x].add(y)
            elif v == 0:
                zeros[x].add(y)
            elif v == -1:
                neg_ones[x].add(y)

    results: list[ABConfiguration] = []
    chain: list[int] = []

    def chain_candidates() -> list[int]:
        cands = ones[chain[-1]]
        for earlier in chain[:-1]:
            cands = cands & zeros[earlier]
        return sorted(cands)

    def extend_chain() -> bool:
        if len(chain) == 8:
            return place_marked()
        for idx in chain_candidates():
            chain.append(idx)
            if extend_chain():
                return True
            chain.pop()
        return False

    def place_marked() -> bool:
        b1_cands = ones[chain[_B1_ATTACH - 1]]
        for s, idx in enumerate(chain):
            if s != _B1_ATTACH - 1:
                b1_cands = b1_cands & zeros[idx]
        for b1 in sorted(b1_cands):
            b2_cands = ones[chain[_B2_ATTACH - 1]] & neg_ones[b1]
            for s, idx in enumerate(chain):
                if s != _B2_ATTACH - 1:
                    b2_cands = b2_cands & zeros[idx]
            for b2 in sorted(b2_cands):
                cfg = ABConfiguration(
                    a=tuple(roots[i] for i in chain),
                    b=(roots[b1], roots[b2]),
                    k=k,
                )
                # final re-verification through the built sequence
                sequence_from_config(lat, cfg)
                results.append(cfg)
                if len(results) >= limit:
                    return True
        return False

    for first in range(n):
        chain.append(first)
        if extend_chain():
            break
        chain.pop()
    return results


# ----------------------------------------------------------------- decomposition

@dataclass(frozen=True)
class DecompositionProblem:
    """Bounded nonnegative integer representations of a target class."""

    target: DivisorClass
    generators: tuple[tuple[str, DivisorClass], ...]
    caps: tuple[int, ...]

    @staticmethod
    def create(
        target: DivisorClass,
        generators: Sequence[tuple[str, DivisorClass]],
        caps: int | Sequence[int] = 8,
    ) -> "DecompositionProblem":
        gens = tuple(generators)
        if isinstance(caps, int):
            cap_vec = (caps,) * len(gens)
        else:
            cap_vec = tuple(caps)
        if len(cap_vec) != len(gens):
            raise DimensionMismatch("caps and generators have different lengths")
        if any(c < 0 for c in cap_vec):
            raise ValueError("caps must be nonnegative")
        return DecompositionProblem(target=target, generators=gens, caps=cap_vec)


def suffix_annihilators(
    vectors: Sequence[Sequence[int]],
) -> list[list[tuple[int, ...]]]:
    """Integer bases of the annihilators of every suffix of a vector list.

    Entry idx is a basis of the integer vectors w with w . v = 0 (plain dot
    product of coordinates) for every v in vectors[idx:].  The integer kernel
    spans the rational one, so a vector lies in the rational span of the
    suffix iff it has dot product zero with each basis vector; a suffix of
    full rank has none.
    """
    return [linalg.integer_kernel(vectors[idx:]) for idx in range(len(vectors))]


def decompose_effective(
    lat: PicardLattice, problem: DecompositionProblem
) -> list[tuple[int, ...]]:
    """All vectors c with sum c_g * g = target, 0 <= c <= caps.

    Branch and bound in generator order on integer coordinate tuples.
    Branches are cut when the degree (pairing with k) of the remainder drops
    below what the remaining generators can absorb, or when the remainder
    leaves the rational span of the remaining generators, i.e. some integer
    annihilator of that suffix (suffix_annihilators) has a nonzero dot
    product with it.  Both cuts are exact and use integers only.
    """
    gens = [g.coords for _, g in problem.generators]
    caps = problem.caps
    m = len(gens)
    degrees = [lat.pair(g, lat.k) for _, g in problem.generators]
    if any(d < 0 for d in degrees):
        raise ValueError("generators must have nonnegative degree")
    annihilators = suffix_annihilators(gens)

    out: list[tuple[int, ...]] = []
    coeffs = [0] * m

    def rec(idx: int, remainder: tuple[int, ...], rem_degree: int) -> None:
        if idx == m:
            if not any(remainder):
                out.append(tuple(coeffs))
            return
        if rem_degree < 0:
            return
        for w in annihilators[idx]:
            if sum(map(mul, w, remainder)):
                return
        g = gens[idx]
        d = degrees[idx]
        top = caps[idx]
        if d > 0:
            top = min(top, rem_degree // d)
        current = remainder
        for c in range(top + 1):
            coeffs[idx] = c
            rec(idx + 1, current, rem_degree - c * d)
            current = tuple(map(sub, current, g))
        coeffs[idx] = 0

    rec(0, problem.target.coords, lat.pair(problem.target, lat.k))
    return sorted(out)
