"""Compare the CLI outputs of two source trees, case by case.

    python tests/compare_outputs.py PARENT_SRC CHANGE_SRC

Each tree's `barlowlat.cli.main` runs in a worker process of its own, in
process, on the same cases:

* on the shipped document: verify (json and text, every --stars), roots,
  roots --count, classes, height, formality, search (limit 1, so the
  worker's first search proves its pattern on its only configuration), then
  search --limit 5 and --limit 100, the paper's decompose and chi with
  --cls and --from together, and four malformed arguments: --generators
  naming none or one twice, an unsigned second term and an empty --target;
  and an empty path given to verify --fixtures, height --matrix and
  verify --report (each names the directory ".", so each exits 2);
* decompose for a target outside its generators' span (E1 over the four
  (-2)-curves), then C1p + C2m inside that span on the same list and
  2C1p + C2m on it at --caps 3 (one worker runs every case of a tree, so
  these reuse the solver's set-up memo on both answers and then miss it on
  the caps), E1 + C1p over E1,C1p,C1m,K at --caps 3, 2K and Bm013 over the
  46 defaults, and K over e,D1,D2,K (generators of degree zero);
* decompose over the 46 defaults for 3K and 4K (6 and 22 solutions) and for
  2K + 2C1p and Bp000 + 4C1p (a (-2)-curve taken more than once), 3K over
  Bp000,E1,C1p,K,C1m,L,C2p,C2m (degree-0 classes after positive-degree
  ones) at --caps 2, and 2K at --caps 0;
* decompose K over the 46 defaults at --caps 100000, and chi of an unknown
  class name;
* chi of K and of 5K - E3p - Bp000, chi from L1 to L11 and back, from
  2K - E1 to Bp000, and from L3 to L3 (chi of the zero class), and chi of
  a K whose coefficient has 4301 digits (past Python's default limit on int
  string conversion) or 2200 digits (chi then has about 4400); both exit 2;
* decompose on a document that verifies but whose L1 has negative degree,
  with L1 among the generators;
* verify and classes on four documents that fail the canonical stage:
  D7 and D8 swapped in d8.defs; D1 + D7 - D8 for D1 with d8.gram
  recomputed, which is no longer the fork; the genus-3 base class of
  neither glue parity (b_table.c_table.C1p[0][0] + 1); and E4p's curve-table
  row made half-integral in the canonical basis;
* verify on two documents that fail at load: the doubling relation with
  b_relation.rhs.K + 1, and the ledger star of cell (11,1) moved to (10,1);
* verify on two documents that fail rows and skip none (L1 and L3 swapped
  with chi_matrix permuted to match, and every defined bound cell 0, the
  latter also under --format text), and
  on two that fail canonical-basis (E1 and C1p swapped in the curve table,
  and a curve "X" in d8.defs.D1);
* verify on two documents that pass: every JSON object's keys in a seeded
  random order, and C1p - 3K added to each of the eleven sequence classes;
* verify on a document whose bound cell (2,1) is the JSON number Infinity,
  and height --matrix on a bound table with 1e999 in its one cell; both
  exit 2, since a bound cell is an integer, "inf" or null;
* verify on nine documents that break a shape rule (SHAPE_EDITS): c_table
  without C2m, e_hit_ks without E5m, e_hit_ks.E3p with a key "2", d8.defs
  without D8, sequence without L11, b_table.l_values with an extra key
  "zero" (it verified before the key sets were exact), row 3 of
  curve_table.matrix one cell short (named as curve_table.matrix[3]),
  ledger entry 5,3 removed, and ext_bounds.n = 0; each exits 2;
* verify on nine documents with a float or true in one integer cell
  (TYPE_EDITS): b_table.k_value, b_table.l_values.plus,
  b_table.c_table.C1p[0][0], d8.gram[0][0], d8.defs.D1.K, sequence.L1.E1,
  b_relation.rhs.K, chi_matrix[0][0] and ledger.n; each exits 2, naming the
  cell;
* verify on nineteen documents with a value of the wrong JSON kind where an
  array or an object belongs (CONTAINER_EDITS): b_table.c_table.C1p as an
  object, b_table.e_hit_ks.E3p."0" as a number, a cross-block cell as a
  triple, as a single and as a number, sequence.L1 and d8.defs as arrays,
  chi_matrix[0] as a string, curve_table.matrix as an object,
  b_relation.lhs as null, the second bound row as a string,
  curve_table.names as an object keyed by the 14 names in order,
  ext_bounds.rows as an object keyed r00..r21, and the objects above the
  tables: d8 and curve_table as arrays, b_table and ledger as strings,
  b_relation and ext_bounds as numbers; each exits 2, naming the place; and
  height --matrix on a table whose rows are an object, on one whose second
  row is a string, and on a document that is an array, not an object;
* height --matrix on a bound table whose dynamic program reads a null cell;
* verify on three documents that each reach an error branch of a model
  stage: "X": 1 in sequence.L1 (an unknown class name), every
  b_table.e_hit_ks list holding k = 1 exactly when it holds k = 0 (two
  genus-3 classes coincide), and E3p's curve-table row and column set to
  K's minus C1p's with -1 on the diagonal (a root tagged both H0 and H2);
* verify on the three bound-table edits of BOUND_ORDER_EDITS, which show
  the order of the ext-bounds rules: cell (20,3) = 0 with (5,3) = 5, (5,3)
  = 5 with (20,15) = 7, and star cell (11,5) = 1 with its twist left "inf";
* verify on every variant that bench/inputs.KINDS can draw.  The module is
  read, not edited;
* verify on six documents with a 4300-digit integer n in one cell
  (LONG_INTEGER_EDITS): sequence.L1.K, d8.defs.D1.K, b_relation.rhs.E1 as n
  and as -n, ledger entry 5,3 as (n, 0, n), and n L added to each sequence
  class.  A check computes from each an integer too long to print; the first
  five fail their row, and the sixth verifies.  classes on the first and the
  sixth: the first fails its check, the sixth has a class too long to print;
* verify and height on a document whose height is 2n - 1, n of 4300 digits
  (every single-segment bound cell "inf", every other integer cell n), and
  height --matrix on an n = 2 table of the same kind (long_height_matrix).
  verify fails ext-bounds and height, naming the height by its size; height
  exits 2.

The output of a case is its exit code, stdout and stderr.  The first tree's
worker runs under PYTHONHASHSEED=0 and the second's under 1, so a report
that depends on the string hash seed differs even when both trees are the
same (python tests/compare_outputs.py src src).  The script prints the
number of outputs compared and, for each one that differs, its name, which
of exit code, stdout and stderr differ, and the first stderr line of each
tree; it exits 1 if any differs.  It needs no test dependency.
"""
from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SHIPPED_CASES = [
    *(["verify", "--format", fmt, "--stars", stars]
      for fmt in ("json", "text") for stars in ("zero", "nonzero", "both")),
    ["roots"], ["roots", "--count"], ["classes"], ["height"], ["formality"],
    ["search"], ["search", "--limit", "5"], ["search", "--limit", "100"],
    ["decompose", "--target", "5K - E3p - Bp000"],
    ["chi", "--cls", "K", "--from", "L1"],
    ["decompose", "--target", "E1", "--generators", " , "],
    ["decompose", "--target", "E1", "--generators", "E1,E1"],
    ["chi", "--cls", "K K"], ["decompose", "--target", ""],
    ["decompose", "--target", "E1", "--generators", "C1p,C1m,C2p,C2m"],
    ["decompose", "--target", "C1p + C2m", "--generators", "C1p,C1m,C2p,C2m"],
    ["decompose", "--target", "2C1p + C2m", "--generators", "C1p,C1m,C2p,C2m", "--caps", "3"],
    ["decompose", "--target", "E1 + C1p", "--generators", "E1,C1p,C1m,K", "--caps", "3"],
    ["decompose", "--target", "2K"], ["decompose", "--target", "Bm013"],
    ["decompose", "--target", "K", "--generators", "e,D1,D2,K"],
    ["decompose", "--target", "3K"], ["decompose", "--target", "4K"],
    ["decompose", "--target", "2K + 2C1p"], ["decompose", "--target", "Bp000 + 4C1p"],
    ["decompose", "--target", "3K", "--generators", "Bp000,E1,C1p,K,C1m,L,C2p,C2m",
     "--caps", "2"],
    ["decompose", "--target", "2K", "--caps", "0"],
    ["decompose", "--target", "K", "--caps", "100000"], ["chi", "--cls", "FOO"],
    ["chi", "--cls", "K"], ["chi", "--cls", "5K - E3p - Bp000"],
    ["chi", "--from", "L1", "--to", "L11"], ["chi", "--from", "L11", "--to", "L1"],
    ["chi", "--from", "2K - E1", "--to", "Bp000"], ["chi", "--from", "L3", "--to", "L3"],
    ["verify", "--fixtures", ""], ["height", "--matrix", ""], ["verify", "--report", ""],
]

#: runs (name, argv) pairs read from stdin; a crash is recorded, not raised
WORKER = """
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
from barlowlat.cli import main
out = []
for name, argv in json.load(sys.stdin):
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:
            code = f"{type(exc).__name__}: {exc}"
    out.append([code, stdout.getvalue(), stderr.getvalue()])
json.dump(out, sys.stdout)
"""


def non_fork_document(raw: dict) -> dict:
    """A copy of raw with D1 + D7 - D8 for D1 and d8.gram recomputed.

    The tips trade their half-sum weights, so e and the basis (K, e, D8..D2)
    are unchanged, and the document agrees with itself; only D1 no longer
    ends the D8 fork.
    """
    doc = json.loads(json.dumps(raw))
    defs = doc["d8"]["defs"]
    d1 = {n: defs["D1"].get(n, 0) + defs["D7"].get(n, 0) - defs["D8"].get(n, 0)
          for n in sorted({*defs["D1"], *defs["D7"], *defs["D8"]})}
    defs["D1"] = {n: c for n, c in d1.items() if c}
    m = doc["curve_table"]["matrix"]
    vecs = [[defs[f"D{i}"].get(n, 0) for n in doc["curve_table"]["names"]] for i in range(1, 9)]
    doc["d8"]["gram"] = [[sum(a[x] * m[x][y] * b[y] for x in range(14) for y in range(14))
                          for b in vecs] for a in vecs]
    return doc


def twist_sequence(raw: dict, twist: dict[str, int]) -> None:
    """The class sum(coeff * name) added to each of the eleven sequence
    classes: every difference L_i - L_j, and so every verify row, is kept."""
    for combo in raw["sequence"].values():
        for name, coeff in twist.items():
            combo[name] = combo.get(name, 0) + coeff


def shuffled_keys(node, rng: random.Random):
    """A copy of node with the keys of every JSON object in a random order."""
    if isinstance(node, dict):
        keys = list(node)
        rng.shuffle(keys)
        return {k: shuffled_keys(node[k], rng) for k in keys}
    if isinstance(node, list):
        return [shuffled_keys(x, rng) for x in node]
    return node


def negative_degree_document(raw: dict) -> dict:
    """A copy of raw with K - 5 in each of the eleven sequence classes.

    The document verifies, but L1 and L11 have degree -5 and cannot be
    decomposition generators.
    """
    doc = json.loads(json.dumps(raw))
    twist_sequence(doc, {"K": -5})
    return doc


def swap_l1_l3(raw: dict) -> None:
    """L1 and L3 trade places in sequence, with chi_matrix permuted to match.

    sequence-chi still passes; the order is no longer exceptional, and the
    ledger no longer alternates to the Euler pairing.
    """
    seq, chi = raw["sequence"], raw["chi_matrix"]
    seq["L1"], seq["L3"] = seq["L3"], seq["L1"]
    order = [2, 1, 0, *range(3, len(chi))]
    raw["chi_matrix"] = [[chi[i][j] for j in order] for i in order]


def zero_bounds(raw: dict) -> None:
    """Every defined bound cell set to 0: height -10, and no verdict."""
    raw["ext_bounds"]["rows"] = [[None if x is None else 0 for x in row]
                                 for row in raw["ext_bounds"]["rows"]]


def swap_e1_c1p(raw: dict) -> None:
    """The rows and columns of E1 and C1p swapped in the curve table."""
    table = raw["curve_table"]
    a, b = table["names"].index("E1"), table["names"].index("C1p")
    order = list(range(len(table["names"])))
    order[a], order[b] = b, a
    table["matrix"] = [[table["matrix"][i][j] for j in order] for i in order]


def unknown_curve_in_d1(raw: dict) -> None:
    raw["d8"]["defs"]["D1"]["X"] = 1


def infinite_bound(raw: dict) -> None:
    """Bound cell (2,1) as the non-standard JSON number Infinity."""
    raw["ext_bounds"]["rows"][1][0] = float("inf")


def half_integral_e4p(raw: dict) -> None:
    """E4p's row and column of the curve table set to those of E4p + v/2,
    v = (-2, 0, 1, 1, 2, 0, 0, 0, 0) in (K, e, D8..D2).

    The new row pairs integrally with every curve and keeps E4p.E4p = -1, so
    the curve table and the fork pass; E4p is not a class of the lattice.
    """
    table = raw["curve_table"]
    i = table["names"].index("E4p")
    for j, x in enumerate((-1,) * 8 + (2, 0, 0, 0, 0, 0)):
        table["matrix"][i][j] = table["matrix"][j][i] = x


def unknown_name_in_l1(raw: dict) -> None:
    raw["sequence"]["L1"]["X"] = 1


def e_hit_k1_as_k0(raw: dict) -> None:
    """In every b_table.e_hit_ks list, k = 1 a member exactly when k = 0 is:
    two genus-3 classes get the same pairing rows."""
    for lists in raw["b_table"]["e_hit_ks"].values():
        for ks in lists.values():
            ks[:] = sorted(set(ks) - {1} | ({1} if 0 in ks else set()))


def e3p_as_k_minus_c1p(raw: dict) -> None:
    """E3p's row and column of the curve table set to K's minus C1p's, with
    -1 on the diagonal: the root C1p is then a (-2)-curve and K minus an
    irreducible elliptic class at once."""
    table = raw["curve_table"]
    names, m = table["names"], table["matrix"]
    i, k, c = (names.index(n) for n in ("E3p", "K", "C1p"))
    row = [a - b for a, b in zip(m[k], m[c])]
    row[i] = -1
    for j, x in enumerate(row):
        m[i][j] = m[j][i] = x


#: bound-table edits, {(i, j): value} with 1-based cells, whose verify report
#: shows the order of the ext-bounds rules: the window before any value, a
#: first-block cell before any last-block cell, and a last-block cell that
#: must repeat the star option its first-block cell chose
BOUND_ORDER_EDITS = {
    "absent-20,3-and-ledger-5,3": {(20, 3): 0, (5, 3): 5},
    "ledger-5,3-and-shift-20,15": {(5, 3): 5, (20, 15): 7},
    "star-11,5-to-1": {(11, 5): 1},
}


def set_bound_cells(raw: dict, cells: dict[tuple[int, int], object]) -> None:
    for (i, j), value in cells.items():
        raw["ext_bounds"]["rows"][i - 1][j - 1] = value


def long_height_matrix(x: int) -> dict:
    """A bound table for n = 2 whose height is 2x - 1: each circle sums two
    bounds x, since both single-segment cells are "inf"."""
    return {"n": 2, "rows": [[None] * 4, [x, None, None, None],
                             ["inf", x, None, None], [None, "inf", x, None]]}


def long_height_bounds(raw: dict, x: int) -> None:
    """Every single-segment bound cell (i + 11, i) "inf" and every other
    integer bound cell x: the height is 2x - 1."""
    rows = raw["ext_bounds"]["rows"]
    for i, row in enumerate(rows):
        rows[i] = [x if isinstance(v, int) else v for v in row]
    for i in range(11):
        rows[i + 11][i] = "inf"


#: edits that each put an integer n in one cell, from which a check computes an
#: integer too long to print (n is the longest run of nines that parses)
LONG_INTEGER_EDITS = {
    "sequence.L1.K": lambda raw, n: raw["sequence"]["L1"].update(K=n),
    "d8.defs.D1.K": lambda raw, n: raw["d8"]["defs"]["D1"].update(K=n),
    "b_relation.rhs.E1": lambda raw, n: raw["b_relation"]["rhs"].update(E1=n),
    "b_relation.rhs.E1-negative": lambda raw, n: raw["b_relation"]["rhs"].update(E1=-n),
    "ledger.entries.5,3": lambda raw, n: raw["ledger"]["entries"].update({"5,3": [n, 0, n]}),
    "twist-nL": lambda raw, n: twist_sequence(raw, {"L": n}),
}

#: edits that each break one shape rule of the document, so that it exits 2
SHAPE_EDITS = {
    "c_table-without-C2m": lambda raw: raw["b_table"]["c_table"].pop("C2m"),
    "e_hit_ks-without-E5m": lambda raw: raw["b_table"]["e_hit_ks"].pop("E5m"),
    "e_hit_ks-E3p-key-2": lambda raw: raw["b_table"]["e_hit_ks"]["E3p"].update({"2": [0]}),
    "d8.defs-without-D8": lambda raw: raw["d8"]["defs"].pop("D8"),
    "sequence-without-L11": lambda raw: raw["sequence"].pop("L11"),
    # before, an extra key verified: the rule only asked for plus and minus
    "l_values-extra-key": lambda raw: raw["b_table"]["l_values"].update(zero=0),
    "curve_table.matrix-row-3-short": lambda raw: raw["curve_table"]["matrix"][3].pop(),
    "ledger-without-5,3": lambda raw: raw["ledger"]["entries"].pop("5,3"),
    "ext_bounds-n-0": lambda raw: raw["ext_bounds"].update(n=0),
}


def set_cell(value, *path):
    """An edit that puts value at the key path of a document."""
    def edit(raw):
        node = raw
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value

    return edit


def integer_leaves(node, keys=()):
    """The key paths of the JSON integers (not bools) under node."""
    if isinstance(node, (dict, list)):
        for key, value in node.items() if isinstance(node, dict) else enumerate(node):
            yield from integer_leaves(value, (*keys, key))
    elif type(node) is int:
        yield keys


#: edits that each put a float or true in one integer cell, so that the
#: document exits 2
TYPE_EDITS = {
    f"type {'.'.join(map(str, path))} = {json.dumps(value)}": set_cell(value, *path)
    for value, *path in ((2.0, "b_table", "k_value"), (True, "b_table", "l_values", "plus"),
                         (0.0, "b_table", "c_table", "C1p", 0, 0), (True, "d8", "gram", 0, 0),
                         (1.0, "d8", "defs", "D1", "K"), (True, "sequence", "L1", "E1"),
                         (8.0, "b_relation", "rhs", "K"), (True, "chi_matrix", 0, 0),
                         (11.0, "ledger", "n"))
}


def keyed_curve_names(raw: dict) -> None:
    """curve_table.names as an object keyed by the 14 names in order, not an
    array: read as its keys, it matched the names."""
    raw["curve_table"]["names"] = dict.fromkeys(raw["curve_table"]["names"], 1)


def keyed_bound_rows(raw: dict) -> None:
    """ext_bounds.rows as an object keyed r00..r21, not an array."""
    rows = raw["ext_bounds"]["rows"]
    raw["ext_bounds"]["rows"] = {f"r{i:02}": row for i, row in enumerate(rows)}


#: edits that each put a value of the wrong JSON kind where the document has
#: an array or an object, so that the document exits 2 naming that place
CONTAINER_EDITS = {
    **{f"container {'.'.join(map(str, path))} = {json.dumps(value)}": set_cell(value, *path)
       for value, *path in (({"a": 1}, "b_table", "c_table", "C1p"),
                            (0, "b_table", "e_hit_ks", "E3p", "0"),
                            ([0, 1, 2], "b_table", "cross_block_b_cells", 1),
                            ([0], "b_table", "cross_block_b_cells", 1),
                            (0, "b_table", "cross_block_b_cells", 1),
                            ([["E1", 1]], "sequence", "L1"), ([], "d8", "defs"),
                            ("abc", "chi_matrix", 0), ({"a": 1}, "curve_table", "matrix"),
                            (None, "b_relation", "lhs"), ("ab", "ext_bounds", "rows", 1))},
    "container curve_table.names keyed": keyed_curve_names,
    "container ext_bounds.rows keyed": keyed_bound_rows,
    # an object above a declared table, of another JSON kind
    **{f"container {key} = {json.dumps(value)}": set_cell(value, key)
       for value, key in (([], "d8"), ("b", "b_table"), (0, "b_relation"),
                          ([], "curve_table"), ("l", "ledger"), (0, "ext_bounds"))},
}

#: bound tables for height --matrix whose rows, or one row, are no array, and
#: one that is no object
CONTAINER_MATRICES = {
    "rows-object": {"n": 1, "rows": {"ab": 1, "cd": 2}},
    "row-2-string": {"n": 1, "rows": [[None, None], "ab"]},
    "document-array": [[None, None], [1, None]],
}


def write_cases(directory: Path) -> list[tuple[str, list[str]]]:
    """The (name, argv) cases; fixture documents are written to directory."""
    sys.path.insert(0, str(ROOT / "bench"))
    import inputs

    raw = inputs.shipped_raw()
    swapped, parity = (json.loads(json.dumps(raw)) for _ in range(2))
    defs = swapped["d8"]["defs"]
    defs["D7"], defs["D8"] = defs["D8"], defs["D7"]
    non_fork = non_fork_document(raw)
    parity["b_table"]["c_table"]["C1p"][0][0] += 1
    e4p = json.loads(json.dumps(raw))
    half_integral_e4p(e4p)
    canonical_failures = [("swapped-D7-D8", swapped), ("non-fork-D1", non_fork),
                          ("C1p-parity", parity), ("half-integral-E4p", e4p)]
    relation, star = (json.loads(json.dumps(raw)) for _ in range(2))
    relation["b_relation"]["rhs"]["K"] += 1
    entries = star["ledger"]["entries"]
    entries["10,1"], entries["11,1"] = entries["11,1"], entries["10,1"]
    load_failures = [("b_relation-K", relation), ("star-at-10,1", star)]
    twisted = json.loads(json.dumps(raw))
    twist_sequence(twisted, {"C1p": 1, "K": -3})
    passing = [("key-order-seed-0", shuffled_keys(raw, random.Random(0))),
               ("twist-C1p-3K", twisted)]
    docs = [(name, json.dumps(doc))
            for name, doc in canonical_failures + load_failures + passing]
    for edit in (swap_l1_l3, zero_bounds, swap_e1_c1p, unknown_curve_in_d1, infinite_bound,
                 unknown_name_in_l1, e_hit_k1_as_k0, e3p_as_k_minus_c1p):
        doc = json.loads(json.dumps(raw))
        edit(doc)
        docs.append((edit.__name__, json.dumps(doc)))
    for name, cells in BOUND_ORDER_EDITS.items():
        doc = json.loads(json.dumps(raw))
        set_bound_cells(doc, cells)
        docs.append((f"bounds {name}", json.dumps(doc)))
    for name, edit in {**TYPE_EDITS, **SHAPE_EDITS, **CONTAINER_EDITS}.items():
        doc = json.loads(json.dumps(raw))
        edit(doc)
        docs.append((name, json.dumps(doc)))
    for kind, (variants, *_) in inputs.KINDS.items():
        for variant in variants(raw):
            name = f"{kind}:{variant}"
            docs.append((name, inputs.make_mutant(raw, kind, variant, name).text))
    for name, edit in LONG_INTEGER_EDITS.items():
        doc = json.loads(json.dumps(raw))
        edit(doc, 10 ** 4300 - 1)  # 4300 digits: Python's default limit
        docs.append((f"long-integer {name}", json.dumps(doc)))
    doc = json.loads(json.dumps(raw))
    long_height_bounds(doc, 10 ** 4300 - 1)
    docs.append(("long-height", json.dumps(doc)))

    cases = [(" ".join(argv), argv) for argv in SHIPPED_CASES]
    for digits in (4301, 2200):  # past the default int digit limit: the coefficient, then chi
        cases.append((f"chi --cls {digits}-digit K", ["chi", "--cls", "9" * digits + "K"]))
    for i, (name, text) in enumerate(docs):
        path = directory / f"doc{i}.json"
        path.write_text(text)
        cases.append((f"verify {name}", ["verify", "--fixtures", str(path)]))
    names = [name for name, _ in docs]
    path = directory / f"doc{names.index('zero_bounds')}.json"
    cases.append(("verify --format text zero_bounds",
                  ["verify", "--format", "text", "--fixtures", str(path)]))
    for name in (*(n for n, _ in canonical_failures),
                 "long-integer sequence.L1.K", "long-integer twist-nL"):
        path = directory / f"doc{names.index(name)}.json"
        cases.append((f"classes {name}", ["classes", "--fixtures", str(path)]))
    rows = [[None] * 4 for _ in range(4)]
    rows[2][:2], rows[3][1:3] = [1, 1], [1, 1]  # cell (target 2, source 1) is null
    path = directory / "null-dp-cell.json"
    path.write_text(json.dumps({"n": 2, "rows": rows}))
    cases.append(("height null-dp-cell", ["height", "--matrix", str(path)]))
    path = directory / "infinite-cell.json"
    path.write_text('{"n": 1, "rows": [[null, null], [1e999, null]]}')
    cases.append(("height infinite-cell", ["height", "--matrix", str(path)]))
    for name, matrix in CONTAINER_MATRICES.items():
        path = directory / f"{name}.json"
        path.write_text(json.dumps(matrix))
        cases.append((f"height {name}", ["height", "--matrix", str(path)]))
    path = directory / f"doc{names.index('long-height')}.json"
    cases.append(("height long-height", ["height", "--fixtures", str(path)]))
    path = directory / "long-height-matrix.json"
    path.write_text(json.dumps(long_height_matrix(10 ** 4300 - 1)))
    cases.append(("height long-height-matrix", ["height", "--matrix", str(path)]))
    path = directory / "negative-degree.json"
    path.write_text(json.dumps(negative_degree_document(raw)))
    cases.append(("decompose negative-degree", ["decompose", "--fixtures", str(path),
                                                "--target", "K", "--generators", "L1,E1"]))
    return cases


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "FIXTURES_DIR")}
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    with tempfile.TemporaryDirectory() as tmp:
        cases = write_cases(Path(tmp))
        payload = json.dumps(cases)
        workers = [
            subprocess.Popen(
                [sys.executable, "-c", WORKER, str(Path(src).resolve())],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
                env=dict(env, PYTHONHASHSEED=str(seed)),
            )
            for seed, src in enumerate(argv)
        ]
        outputs = [w.communicate(payload)[0] for w in workers]
    if any(w.returncode for w in workers):
        print("a worker failed", file=sys.stderr)
        return 2
    parent, change = (json.loads(o) for o in outputs)
    differ = [(name, a, b) for (name, _), a, b in zip(cases, parent, change) if a != b]
    print(f"compared {len(cases)} outputs: {len(cases) - len(differ)} identical, "
          f"{len(differ)} differ")
    for name, a, b in differ:
        parts = [part for part, x, y in zip(("exit code", "stdout", "stderr"), a, b) if x != y]
        print(f"differs: {name} ({', '.join(parts)})")
        for tree, (_, _, err) in zip(("first", "second"), (a, b)):
            line = err.partition("\n")[0]
            print(f"  {tree} stderr: {line}")
    return 1 if differ else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
