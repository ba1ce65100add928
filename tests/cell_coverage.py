"""Coverage sweep of the Ext ledger, the bound table and the curve table.

    python tests/cell_coverage.py

Every mutant of the shipped document in six families is loaded and
verified in process, with `run_verification` under --stars both:

* ledger: each of h0, h1 and h2 raised by 1 on every determined cell below
  the diagonal (the 47 that are not stars), 141 mutants;
* bounds: every cell of the bound table's window (176 cells) flipped, an
  integer to "inf" and "inf" to 1, 176 mutants;
* shift-consistent bound pairs: each first-block window cell (i, j) flipped
  together with its copy (i + 11, j + 11), which the last block must repeat,
  55 mutants;
* chi-held ledger moves: (h0, h1) and (h1, h2) each raised by 1 on every
  determined cell below the diagonal, so the alternating sum stays, 94 mutants;
* symmetric curve-table moves: each off-diagonal cell and its mirror moved
  together by +1 and by -1, 182 mutants;
* integer leaves: every integer of chi_matrix, d8, sequence, b_relation and
  b_table moved by +1 and by -1, 584 mutants (242, 172, 48, 16 and 106).

A mutant that passes every check survives: no check reads its change. The
script prints a table of the counts per family, then one per table of the
integer-leaf family (Markdown, so CI can add them to the run summary), and
exits 1 when the survivors differ from the pinned list
in tests/data/cell_coverage_survivors.json, printing each difference. A new
survivor is a change that lost its check; a pinned survivor that now fails
shows a check that closed a gap, and the pinned list shrinks with it. It
needs only the standard library, the package under src/ and the document
edits of tests/compare_outputs.py.
"""
import copy
import json
import sys
from functools import reduce
from operator import getitem
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from barlowlat.cli import run_verification  # noqa: E402
from barlowlat.errors import ToolkitError  # noqa: E402
from barlowlat.fixtures import load_fixtures, parse_json, shipped_fixture_text  # noqa: E402
from compare_outputs import integer_leaves, set_cell  # noqa: E402

PINNED = Path(__file__).resolve().parent / "data" / "cell_coverage_survivors.json"


#: the one-entry steps and the chi-held steps of the two ledger families
ONE_ENTRY = (("h0", (1, 0, 0)), ("h1", (0, 1, 0)), ("h2", (0, 0, 1)))
CHI_HELD = (("h0h1", (1, 1, 0)), ("h1h2", (0, 1, 1)))


def ledger_mutants(raw, steps):
    """(name, document) for each step added to each determined off-diagonal cell."""
    entries = raw["ledger"]["entries"]
    n = raw["ledger"]["n"]
    for i in range(2, n + 1):
        for j in range(1, i):
            value = entries[f"{i},{j}"]
            if value == "star":
                continue
            for label, step in steps:
                moved = [h + d for h, d in zip(value, step)]
                edited = dict(entries, **{f"{i},{j}": moved})
                yield (f"ledger {i},{j} {label} {value} -> {moved}",
                       dict(raw, ledger=dict(raw["ledger"], entries=edited)))


def _flipped(value):
    """A bound cell flipped: an integer to inf, inf to 1."""
    return 1 if value == "inf" else "inf"


def bound_mutants(raw):
    """(name, document) for each window cell flipped."""
    rows = raw["ext_bounds"]["rows"]
    n = raw["ext_bounds"]["n"]
    for i in range(2, 2 * n + 1):
        for j in range(max(1, i - n), i):
            value = rows[i - 1][j - 1]
            edited = [list(row) for row in rows]
            edited[i - 1][j - 1] = _flipped(value)
            yield (f"ext_bounds {i},{j} {value} -> {_flipped(value)}",
                   dict(raw, ext_bounds=dict(raw["ext_bounds"], rows=edited)))


def bound_pair_mutants(raw):
    """(name, document) for each first-block window cell flipped with its copy."""
    rows = raw["ext_bounds"]["rows"]
    n = raw["ext_bounds"]["n"]
    for i in range(2, n + 1):
        for j in range(1, i):
            value = rows[i - 1][j - 1]
            edited = [list(row) for row in rows]
            edited[i - 1][j - 1] = edited[i + n - 1][j + n - 1] = _flipped(value)
            yield (f"ext_bounds {i},{j} and {i + n},{j + n} {value} -> {_flipped(value)}",
                   dict(raw, ext_bounds=dict(raw["ext_bounds"], rows=edited)))


def curve_mutants(raw):
    """(name, document) for each off-diagonal curve cell and its mirror moved by +1 and -1."""
    names = raw["curve_table"]["names"]
    matrix = raw["curve_table"]["matrix"]
    for a in range(len(names)):
        for b in range(a + 1, len(names)):
            for step in (1, -1):
                edited = [list(row) for row in matrix]
                edited[a][b] = edited[b][a] = matrix[a][b] + step
                yield (f"curve_table {names[a]},{names[b]} {matrix[a][b]} -> {edited[a][b]}",
                       dict(raw, curve_table=dict(raw["curve_table"], matrix=edited)))


#: the tables of the integer-leaf family
LEAF_TABLES = ("chi_matrix", "d8", "sequence", "b_relation", "b_table")


def leaf_mutants(raw):
    """(name, document) for each integer leaf of LEAF_TABLES moved by +1 and -1;
    the name starts with the leaf's path as the fixture errors write it."""
    for table in LEAF_TABLES:
        for keys in integer_leaves(raw[table]):
            path = table + "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in keys)
            value = reduce(getitem, keys, raw[table])
            for step in (1, -1):
                edited = copy.deepcopy(raw[table])
                set_cell(value + step, *keys)(edited)
                yield f"{path} {value} -> {value + step}", dict(raw, **{table: edited})


FAMILIES = {
    "ledger, one entry + 1": lambda raw: ledger_mutants(raw, ONE_ENTRY),
    "bounds, one cell flipped": bound_mutants,
    "bounds, a cell and its shifted copy flipped": bound_pair_mutants,
    "ledger, chi-held move": lambda raw: ledger_mutants(raw, CHI_HELD),
    "curve table, symmetric move": curve_mutants,
    "integer leaf, +1 or -1": leaf_mutants,
}
OUTCOMES = ("mutants", "rejected at load", "failed a check", "survived")


def sweep():
    """{family: [(name, outcome), ...]} over the families, in enumeration order."""
    raw = parse_json(shipped_fixture_text())
    results = {}
    for family, mutants in FAMILIES.items():
        outcomes = results[family] = []
        for name, doc in mutants(raw):
            try:
                fix = load_fixtures(doc, validate=False)
            except ToolkitError:
                outcomes.append((name, "rejected at load"))
                continue
            summary = run_verification(fix, "both")["summary"]
            failed = summary["fail"] or summary["skipped"]
            outcomes.append((name, "failed a check" if failed else "survived"))
    return results


def print_table(label, groups):
    """A Markdown table of the outcome counts of each group of (name, outcome)."""
    print(f"| {label} | " + " | ".join(OUTCOMES) + " |\n|---|" + "---:|" * len(OUTCOMES))
    for group, outcomes in groups.items():
        counts = [len(outcomes)] + [sum(o == key for _, o in outcomes) for key in OUTCOMES[1:]]
        print(f"| {group} | " + " | ".join(map(str, counts)) + " |")
    print()


def main() -> int:
    results = sweep()
    print_table("family", results)
    leaves = results["integer leaf, +1 or -1"]
    print_table("integer leaf table", {table: [(n, o) for n, o in leaves
                                              if n.split(".")[0].split("[")[0] == table]
                                       for table in LEAF_TABLES})
    survivors = [name for outcomes in results.values() for name, o in outcomes if o == "survived"]
    pinned = json.loads(PINNED.read_text(encoding="utf-8"))
    new = [name for name in survivors if name not in pinned]
    closed = [name for name in pinned if name not in survivors]
    for name in new:
        print(f"new survivor (no check catches this mutant): {name}")
    for name in closed:
        print(f"pinned survivor now fails (shrink {PINNED.name}): {name}")
    if new or closed:
        print(f"survivors now:\n{json.dumps(survivors, indent=1)}")
        return 1
    print(f"survivors match the {len(pinned)} pinned in {PINNED.name}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
