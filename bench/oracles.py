"""Checks of the program's outputs that do not use the program's code.

Pairings use the benchmark's own copy of the canonical Gram matrix, Euler
characteristics its own formula, and verdict expectations come from the
paper or from the kind of fixture mutation.  Each check returns None when
the output is right and a one-line reason when it is wrong.
"""
from __future__ import annotations

import json
from typing import Sequence

#: Gram matrix of 1 + (-E8) in the canonical basis (K, e, D8, D7, ..., D2)
CANONICAL_GRAM = (
    (1, 0, 0, 0, 0, 0, 0, 0, 0),
    (0, -2, 0, -1, 0, 0, 0, 0, 0),
    (0, 0, -2, 0, 1, 0, 0, 0, 0),
    (0, -1, 0, -2, 1, 0, 0, 0, 0),
    (0, 0, 1, 1, -2, 1, 0, 0, 0),
    (0, 0, 0, 0, 1, -2, 1, 0, 0),
    (0, 0, 0, 0, 0, 1, -2, 1, 0),
    (0, 0, 0, 0, 0, 0, 1, -2, 1),
    (0, 0, 0, 0, 0, 0, 0, 1, -2),
)
CANONICAL_K = (1, 0, 0, 0, 0, 0, 0, 0, 0)

CHECK_IDS = (
    "fixture-tables", "simple-roots-gram", "canonical-basis", "b-reconstruction",
    "b-relation", "root-count", "root-partition", "vanishing-classification",
    "sequence-chi", "num-exceptional", "ledger-chi", "ext-bounds",
    "formality-zero", "formality-nonzero", "height", "fullness",
)
#: chain-degree minima of the paper, d -> degree; "inf" means no chain
MIN_DEGREES = {
    "formality-nonzero": {"2": 3, "3": 4, "4": 6, "5": 7},
    "formality-zero": {"2": 3, "3": 4, "4": 6, "5": "inf"},
}


def gram_times(v: Sequence[int]) -> tuple[int, ...]:
    return tuple(sum(row[j] * v[j] for j in range(9)) for row in CANONICAL_GRAM)


def dot(u: Sequence[int], v: Sequence[int]) -> int:
    return sum(a * b for a, b in zip(u, v))


def pair(u: Sequence[int], v: Sequence[int]) -> int:
    return dot(u, gram_times(v))


def chi(v: Sequence[int]) -> int:
    """Riemann-Roch on the surface: 1 + (v.v - v.K) / 2."""
    return 1 + (pair(v, v) - pair(v, CANONICAL_K)) // 2


def _sub(u: Sequence[int], v: Sequence[int]) -> tuple[int, ...]:
    return tuple(a - b for a, b in zip(u, v))


# ---------------------------------------------------------------------- verify

def check_verify(doc, rc: int, stdout: str, stderr: str) -> str | None:
    """Exit code, traceback and report contents against the document's kind."""
    if "Traceback" in stderr:
        return f"traceback (exit {rc})"
    want_rc = {"pass": 0, "fail": 1, "malformed": 2}[doc.expect]
    if rc != want_rc:
        return f"exit {rc}, expected {want_rc}"
    if doc.expect == "malformed":
        return None
    try:
        report = json.loads(stdout)
    except json.JSONDecodeError:
        return "stdout is not a JSON report"
    checks = {c["id"]: c for c in report["checks"]}
    failed = [i for i, c in checks.items() if c["status"] == "fail"]
    if doc.expect == "fail":
        if doc.target not in failed:
            return f"{doc.target} not among failed checks {failed}"
        return None
    return _check_passing_report(report, checks, doc.sha256)


def _check_passing_report(report: dict, checks: dict, sha256: str) -> str | None:
    if tuple(checks) != CHECK_IDS:
        return f"check ids {list(checks)}"
    if report["summary"] != {"pass": 16, "fail": 0, "skipped": 0}:
        return f"summary {report['summary']}"
    if report["fixture_hash"] != sha256:
        return "fixture_hash differs from the document's SHA-256"
    w = {i: c["witness"] for i, c in checks.items()}
    expected = (
        (w["root-count"]["count"], 240),
        (w["root-partition"]["sizes"], [84, 28, 128]),
        (w["height"]["height"], 2),
        (w["fullness"]["verdict"], "not_full"),
    )
    for got, want in expected:
        if got != want:
            return f"witness {got!r}, expected {want!r}"
    for check_id, minima in MIN_DEGREES.items():
        got = {d: w[check_id]["min_degrees"][d] for d in minima}
        if got != minima:
            return f"{check_id} minima {got}, expected {minima}"
    return None


# ---------------------------------------------------------------------- search

def sequence_of(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> list[tuple[int, ...]]:
    """The paper's eleven classes: chain partial sums with K - B1, K - B2 inserted."""
    sums, acc = [], (0,) * 9
    for r in a:
        acc = tuple(x + y for x, y in zip(acc, r))
        sums.append(acc)
    k = CANONICAL_K
    return [
        sums[0], sums[1], _sub(k, b[0]), sums[2], sums[3], sums[4],
        _sub(k, b[1]), sums[5], sums[6], sums[7], (0,) * 9,
    ]


def check_configuration(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> str | None:
    """Ten roots in the A8-chain pattern with B1 on A3, B2 on A6, B1.B2 = -1,
    whose eleven classes are numerically exceptional."""
    if len(a) != 8 or len(b) != 2:
        return "configuration does not have 8 + 2 roots"
    members = [*a, *b]
    g = [gram_times(r) for r in members]
    k = CANONICAL_K
    for idx, r in enumerate(members):
        if dot(r, g[idx]) != -2 or dot(k, g[idx]) != 0:
            return f"member {idx} is not a root"
    for s in range(8):
        for t in range(s + 1, 8):
            if dot(a[s], g[t]) != (1 if t == s + 1 else 0):
                return f"A{s + 1}.A{t + 1} breaks the chain"
    for bi, attach in ((0, 2), (1, 5)):
        for s in range(8):
            if dot(a[s], g[8 + bi]) != (1 if s == attach else 0):
                return f"B{bi + 1}.A{s + 1} breaks the pattern"
    if dot(b[0], g[9]) != -1:
        return "B1.B2 != -1"
    seq = sequence_of(a, b)
    gs = [gram_times(v) for v in seq]
    m = [[dot(u, gv) for gv in gs] for u in seq]
    deg = [dot(k, gv) for gv in gs]
    for i in range(11):
        for j in range(i, 11):
            # chi(s_i - s_j) = 1 + ((s_i - s_j)^2 - (s_i - s_j).K) / 2
            twice = m[i][i] - 2 * m[i][j] + m[j][j] - (deg[i] - deg[j])
            if 1 + twice // 2 != (1 if i == j else 0):
                return f"sequence is not numerically exceptional at ({i + 1},{j + 1})"
    return None


def check_search(configs: Sequence[tuple], limit: int) -> str | None:
    """`limit` distinct configurations, each in the pattern; configs are (a, b) coords."""
    if len(configs) != limit:
        return f"{len(configs)} configurations, expected {limit}"
    if len(set(configs)) != len(configs):
        return "configurations are not distinct"
    for a, b in configs:
        bad = check_configuration(a, b)
        if bad:
            return bad
    return None


# ------------------------------------------------------------------- decompose

def check_decomposition(
    target: Sequence[int],
    generators: Sequence[Sequence[int]],
    cap: int,
    solutions: Sequence[Sequence[int]],
    construction: Sequence[int] | None,
) -> str | None:
    """Every solution resubstitutes to the target within caps; the seeded
    construction, when given, is among them."""
    if not solutions:
        return "no decomposition found"
    if len(set(map(tuple, solutions))) != len(solutions):
        return "duplicate solutions"
    for sol in solutions:
        if len(sol) != len(generators) or any(not 0 <= c <= cap for c in sol):
            return f"solution {tuple(sol)} is outside the caps"
        total = [0] * 9
        for c, g in zip(sol, generators):
            if c:
                total = [t + c * x for t, x in zip(total, g)]
        if tuple(total) != tuple(target):
            return f"solution {tuple(sol)} does not resubstitute to the target"
    if construction is not None and tuple(construction) not in set(map(tuple, solutions)):
        return "seeded construction is not among the solutions"
    return None
