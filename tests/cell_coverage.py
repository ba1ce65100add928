"""One-cell coverage sweep of the Ext ledger and the bound table.

    python tests/cell_coverage.py

Every one-cell mutant of the shipped document in two families is loaded and
verified in process, with `run_verification` under --stars both:

* ledger: each of h0, h1 and h2 raised by 1 on every determined cell below
  the diagonal (the 47 that are not stars), 141 mutants;
* bounds: every cell of the bound table's window (176 cells) flipped, an
  integer to "inf" and "inf" to 1, 176 mutants.

A mutant that passes every check survives: no check reads its cell. The
script prints the counts, and exits 1 when the survivors differ from the
pinned list in tests/data/cell_coverage_survivors.json, printing each
difference. A new survivor is a cell that lost its check; a pinned survivor
that now fails shows a check that closed a gap, and the pinned list shrinks
with it. It needs only the standard library and the package under src/.
"""
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from barlowlat.cli import run_verification  # noqa: E402
from barlowlat.errors import ToolkitError  # noqa: E402
from barlowlat.fixtures import load_fixtures, parse_json, shipped_fixture_text  # noqa: E402

PINNED = Path(__file__).resolve().parent / "data" / "cell_coverage_survivors.json"


def ledger_mutants(raw):
    """(name, document) for each component + 1 on each determined off-diagonal cell."""
    entries = raw["ledger"]["entries"]
    n = raw["ledger"]["n"]
    for i in range(2, n + 1):
        for j in range(1, i):
            value = entries[f"{i},{j}"]
            if value == "star":
                continue
            for p in range(3):
                bumped = [h + (q == p) for q, h in enumerate(value)]
                yield (f"ledger {i},{j} h{p} {value} -> {bumped}",
                       dict(raw, ledger=dict(raw["ledger"], entries=dict(entries, **{f"{i},{j}": bumped}))))


def bound_mutants(raw):
    """(name, document) for each window cell flipped: an integer to inf, inf to 1."""
    rows = raw["ext_bounds"]["rows"]
    n = raw["ext_bounds"]["n"]
    for i in range(2, 2 * n + 1):
        for j in range(max(1, i - n), i):
            value = rows[i - 1][j - 1]
            flipped = 1 if value == "inf" else "inf"
            edited = [list(row) for row in rows]
            edited[i - 1][j - 1] = flipped
            yield (f"ext_bounds {i},{j} {value} -> {flipped}",
                   dict(raw, ext_bounds=dict(raw["ext_bounds"], rows=edited)))


def sweep():
    """(counts, survivors) over both families, in enumeration order."""
    raw = parse_json(shipped_fixture_text())
    counts = {"mutants": 0, "rejected at load": 0, "failed a check": 0, "survived": 0}
    survivors = []
    for name, doc in [*ledger_mutants(raw), *bound_mutants(raw)]:
        counts["mutants"] += 1
        try:
            fix = load_fixtures(doc, validate=False)
        except ToolkitError:
            counts["rejected at load"] += 1
            continue
        summary = run_verification(fix, "both")["summary"]
        if summary["fail"] or summary["skipped"]:
            counts["failed a check"] += 1
        else:
            counts["survived"] += 1
            survivors.append(name)
    return counts, survivors


def main() -> int:
    counts, survivors = sweep()
    print(", ".join(f"{value} {key}" for key, value in counts.items()))
    pinned = json.loads(PINNED.read_text(encoding="utf-8"))
    new = [name for name in survivors if name not in pinned]
    closed = [name for name in pinned if name not in survivors]
    for name in new:
        print(f"new survivor (no check reads this cell): {name}")
    for name in closed:
        print(f"pinned survivor now fails (shrink {PINNED.name}): {name}")
    if new or closed:
        print(f"survivors now:\n{json.dumps(survivors, indent=1)}")
        return 1
    print(f"survivors match the {len(pinned)} pinned in {PINNED.name}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
