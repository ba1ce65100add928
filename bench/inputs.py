"""Seeded inputs for the benchmark workloads.

Everything here is a pure function of the seed and the shipped fixture
document, so the same seed always gives byte-identical inputs.  Fixture
mutants are described by a (kind, variant) pair: each kind lists all of its
variants, and the seed only picks among them, so every variant a seed can
produce can also be enumerated and checked once by hand.
"""
from __future__ import annotations

import copy
import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path

from oracles import pair

ROOT = Path(__file__).resolve().parent.parent
SHIPPED_FIXTURE = ROOT / "src" / "barlowlat" / "data" / "barlow.json"

CURVE_NAMES = (
    "E1", "E2", "E3p", "E3m", "E4p", "E4m", "E5p", "E5m",
    "L", "K", "C1p", "C1m", "C2p", "C2m",
)
#: the eight undetermined ledger cells of the paper (last row, circle columns)
STAR_CELLS = frozenset((11, j) for j in (1, 2, 4, 5, 6, 8, 9, 10))
REQUIRED_KEYS = (
    "b_relation", "b_table", "chi_matrix", "curve_table",
    "d8", "ext_bounds", "ledger", "sequence",
)
PAPER_TARGET = {"K": 5, "E3p": -1, "Bp000": -1}


def rng_for(workload: str, seed: int) -> random.Random:
    # str seeds hash through SHA-512, independent of PYTHONHASHSEED
    return random.Random(f"{workload}:{seed}")


def shipped_raw() -> dict:
    return json.loads(SHIPPED_FIXTURE.read_text())


def canonical_sha256(raw: object) -> str:
    """SHA-256 of the sorted, compact JSON form of a fixture document."""
    blob = json.dumps(raw, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


@dataclass(frozen=True)
class Doc:
    """One fixture document and the verdict the benchmark expects for it."""

    name: str
    kind: str
    text: str
    expect: str            # "pass", "fail" (exit 1) or "malformed" (exit 2)
    target: str | None     # check id that must fail, for value mutants
    known_failure: bool    # crashes today, counted as failed (see NOTES.md)
    sha256: str | None     # the benchmark's own hash, for passing documents


# ----------------------------------------------------------- passing documents

def _shuffled(obj: object, rng: random.Random) -> object:
    if isinstance(obj, dict):
        keys = list(obj)
        rng.shuffle(keys)
        return {k: _shuffled(obj[k], rng) for k in keys}
    if isinstance(obj, list):
        return [_shuffled(v, rng) for v in obj]
    return obj


def pass_docs(seed: int, count: int) -> list[Doc]:
    """The shipped document re-serialized: key order and indent vary by seed."""
    rng = rng_for("verify_pass", seed)
    raw = shipped_raw()
    sha = canonical_sha256(raw)
    docs = []
    for i in range(count):
        indent = rng.choice((None, 1, 2, 4))
        text = json.dumps(_shuffled(raw, rng), indent=indent)
        docs.append(Doc(f"pass-{i}", "reserialized", text, "pass", None, False, sha))
    return docs


# ---------------------------------------------------------------- value mutants
# Each value kind changes one cell; the check it must break follows from
# the kind alone.

def _ledger_cells(raw: dict) -> list[tuple[int, int]]:
    return [
        (i, j) for i in range(2, 12) for j in range(1, i) if (i, j) not in STAR_CELLS
    ]


def _variants_chi(raw: dict) -> list:
    return [(i, j, d) for i in range(11) for j in range(11) for d in (1, -1)]


def _apply_chi(raw: dict, v) -> None:
    i, j, d = v
    raw["chi_matrix"][i][j] += d


def _variants_curve(raw: dict) -> list:
    return [(i, j, d) for i in range(14) for j in range(14) for d in (1, -1)]


def _apply_curve(raw: dict, v) -> None:
    i, j, d = v
    raw["curve_table"]["matrix"][i][j] += d


def _variants_ledger(raw: dict) -> list:
    return [(i, j, c) for i, j in _ledger_cells(raw) for c in range(3)]


def _apply_ledger(raw: dict, v) -> None:
    i, j, c = v
    raw["ledger"]["entries"][f"{i},{j}"][c] += 1


def _variants_ext(raw: dict) -> list:
    # cells the shape/ledger/shift checks read: the lower block and its shift
    return [(i + s, j + s) for i, j in _ledger_cells(raw) for s in (0, 11)]


def _apply_ext(raw: dict, v) -> None:
    i, j = v
    row = raw["ext_bounds"]["rows"][i - 1]
    row[j - 1] = 0 if row[j - 1] == "inf" else row[j - 1] + 1


def _variants_sequence(raw: dict) -> list:
    return [
        (f"L{i}", name, d) for i in range(1, 12) for name in CURVE_NAMES for d in (1, -1)
    ]


def _apply_sequence(raw: dict, v) -> None:
    member, name, d = v
    combo = raw["sequence"][member]
    combo[name] = combo.get(name, 0) + d
    if combo[name] == 0:
        del combo[name]


def _variants_b_lvalue(raw: dict) -> list:
    return [(sign, d) for sign in ("plus", "minus") for d in (1, -1)]


def _apply_b_lvalue(raw: dict, v) -> None:
    sign, d = v
    raw["b_table"]["l_values"][sign] += d


def _variants_b_cross(raw: dict) -> list:
    cells = [tuple(c) for c in raw["b_table"]["cross_block_b_cells"]]
    free = [(a, b) for a in range(4) for b in range(4) if (a, b) not in cells]
    return [(idx, cell) for idx in range(len(cells)) for cell in free]


def _apply_b_cross(raw: dict, v) -> None:
    idx, cell = v
    raw["b_table"]["cross_block_b_cells"][idx] = list(cell)


# ------------------------------------------------------------ malformed mutants

def _variants_drop_key(raw: dict) -> list:
    return list(REQUIRED_KEYS)


def _apply_drop_key(raw: dict, v) -> None:
    del raw[v]


def _variants_non_integer(raw: dict) -> list:
    return [("curve_table", i, j) for i in range(14) for j in range(14)] + [
        ("chi_matrix", i, j) for i in range(11) for j in range(11)
    ]


def _apply_non_integer(raw: dict, v) -> None:
    table, i, j = v
    rows = raw["curve_table"]["matrix"] if table == "curve_table" else raw["chi_matrix"]
    rows[i][j] = "x"


def _variants_bad_shape(raw: dict) -> list:
    return [("chi_matrix", i) for i in range(11)] + [("ext_bounds", i) for i in range(22)]


def _apply_bad_shape(raw: dict, v) -> None:
    table, i = v
    rows = raw["chi_matrix"] if table == "chi_matrix" else raw["ext_bounds"]["rows"]
    del rows[i]


def _variants_bad_ledger_key(raw: dict) -> list:
    upper = [f"{i},{j}" for i in range(1, 12) for j in range(i + 1, 12)]
    return upper + ["0,0", "12,1", "a,b", "1;1"]


def _apply_bad_ledger_key(raw: dict, v) -> None:
    raw["ledger"]["entries"][v] = [0, 0, 0]


def _variants_truncated(raw: dict) -> list:
    # cut points as per-mille of the text length; a strict prefix of a JSON
    # object never parses
    return list(range(1, 1000))


def _variants_one(raw: dict) -> list:
    return [None]


def _apply_ledger_entries_list(raw: dict, v) -> None:
    raw["ledger"]["entries"] = [[k, e] for k, e in raw["ledger"]["entries"].items()]


def _apply_e12_missing_plus(raw: dict, v) -> None:
    del raw["b_table"]["e12_values"]["plus"]


#: kind -> (variants, apply, expectation, target check id, known failure)
KINDS = {
    "chi": (_variants_chi, _apply_chi, "fail", "sequence-chi", False),
    "curve": (_variants_curve, _apply_curve, "fail", "fixture-tables", False),
    "ledger": (_variants_ledger, _apply_ledger, "fail", "ledger-chi", False),
    "ext": (_variants_ext, _apply_ext, "fail", "ext-bounds", False),
    "sequence": (_variants_sequence, _apply_sequence, "fail", "sequence-chi", False),
    "b_lvalue": (_variants_b_lvalue, _apply_b_lvalue, "fail", "b-reconstruction", False),
    "b_cross": (_variants_b_cross, _apply_b_cross, "fail", "b-reconstruction", False),
    "drop_key": (_variants_drop_key, _apply_drop_key, "malformed", None, False),
    "non_integer": (_variants_non_integer, _apply_non_integer, "malformed", None, False),
    "bad_shape": (_variants_bad_shape, _apply_bad_shape, "malformed", None, False),
    "bad_ledger_key": (_variants_bad_ledger_key, _apply_bad_ledger_key, "malformed", None, False),
    "truncated": (_variants_truncated, None, "malformed", None, False),
    # ROADMAP item 5: these end in a traceback with exit 1 instead of exit 2
    "ledger_entries_list": (_variants_one, _apply_ledger_entries_list, "malformed", None, True),
    "e12_missing_plus": (_variants_one, _apply_e12_missing_plus, "malformed", None, True),
}

#: one verify_fail round.  The full-pipeline value mutants outnumber the fast
#: early exits, so the median falls inside one cluster of similar costs.
FAIL_MIX = (
    ("chi", 4), ("ledger", 4), ("ext", 4), ("sequence", 4),
    ("curve", 1), ("b_lvalue", 1), ("b_cross", 1),
    ("drop_key", 1), ("non_integer", 1), ("bad_shape", 1),
    ("bad_ledger_key", 1), ("truncated", 1),
    ("ledger_entries_list", 1), ("e12_missing_plus", 1),
)


def make_mutant(raw: dict, kind: str, variant, name: str) -> Doc:
    variants, apply, expect, target, known = KINDS[kind]
    if kind == "truncated":
        full = json.dumps(raw)
        text = full[: max(1, len(full) * variant // 1000)]
    else:
        mutated = copy.deepcopy(raw)
        apply(mutated, variant)
        text = json.dumps(mutated)
    return Doc(name, kind, text, expect, target, known, None)


def fail_docs(seed: int) -> list[Doc]:
    """One round of failing documents in seeded order, fixed count per kind."""
    rng = rng_for("verify_fail", seed)
    raw = shipped_raw()
    docs = []
    for kind, count in FAIL_MIX:
        options = KINDS[kind][0](raw)
        for i, variant in enumerate(rng.sample(options, count)):
            docs.append(make_mutant(raw, kind, variant, f"{kind}-{i}:{variant}"))
    rng.shuffle(docs)
    return docs


# --------------------------------------------------------------- in-process

def root_orders(seed: int, count: int, roots: list[tuple[int, ...]]) -> list[list[int]]:
    """Seeded root orders, one per search input, as index permutations.

    Each order is the canonical one moved by a seeded lattice automorphism
    fixing K (a product of 32 reflections in roots).  Root i of the new order
    pairs with root j exactly as canonical roots i and j do, so the search
    does the same work on every order and finds the images of the same
    configurations; a free shuffle would change the work by up to 30 %.
    """
    rng = rng_for("search", seed)
    index = {r: i for i, r in enumerate(roots)}
    orders = []
    for _ in range(count):
        # images of the nine basis vectors; reflection in r: v -> v + (v.r) r
        basis = [tuple(int(i == j) for j in range(9)) for i in range(9)]
        for _ in range(32):
            r = rng.choice(roots)
            basis = [tuple(x + pair(v, r) * y for x, y in zip(v, r)) for v in basis]
        image = [tuple(sum(c * b[k] for c, b in zip(v, basis)) for k in range(9)) for v in roots]
        orders.append([index[v] for v in image])
    return orders


DEGREE_ONE = ("E1", "E2", "E3p", "E3m", "E4p", "E4m", "E5p", "E5m", "L", "K")


def decompose_targets(seed: int, b_names: list[str]) -> list[tuple[str, dict[str, int]]]:
    """(label, combination) pairs for one decompose round, in seeded order.

    The paper's target comes first.  Each degree-1 generator appears once,
    plus one (-2)-curve of the second node pair, so seeds differ in which
    curve of the pair and in order but not in how much work a round is; one
    seeded genus-3 class is the degree-2 target.
    """
    rng = rng_for("decompose", seed)
    targets = []
    for base in DEGREE_ONE:
        extra = rng.choice(("C2p", "C2m"))
        targets.append((f"{base}+{extra}", {base: 1, extra: 1}))
    name = rng.choice(b_names)
    targets.append((name, {name: 1}))
    rng.shuffle(targets)
    return [("5K-E3p-Bp000", dict(PAPER_TARGET))] + targets
