"""Compare the CLI outputs of two source trees, case by case.

    python tests/compare_outputs.py PARENT_SRC CHANGE_SRC

Each tree's `barlowlat.cli.main` runs in a worker process of its own, in
process, on the same cases:

* on the shipped document: verify (json and text, every --stars), roots,
  roots --count, classes, height, formality, search --limit 100, the
  paper's decompose and chi with --cls and --from together, and four
  malformed arguments: --generators naming none or one twice, an unsigned
  second term and an empty --target;
* verify and classes on three documents that fail the canonical stage:
  D7 and D8 swapped in d8.defs; D1 + D7 - D8 for D1 with d8.gram
  recomputed, which is no longer the fork; and the genus-3 base class of
  neither glue parity (b_table.c_table.C1p[0][0] + 1);
* verify on every variant that bench/inputs.KINDS can draw.  The module is
  read, not edited.

The output of a case is its exit code, stdout and stderr.  The script
prints the number of outputs compared and the name of each one that
differs, and exits 1 if any differs.  It needs no test dependency.
"""
from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SHIPPED_CASES = [
    *(["verify", "--format", fmt, "--stars", stars]
      for fmt in ("json", "text") for stars in ("zero", "nonzero", "both")),
    ["roots"], ["roots", "--count"], ["classes"], ["height"], ["formality"],
    ["search", "--limit", "100"], ["decompose", "--target", "5K - E3p - Bp000"],
    ["chi", "--cls", "K", "--from", "L1"],
    ["decompose", "--target", "E1", "--generators", " , "],
    ["decompose", "--target", "E1", "--generators", "E1,E1"],
    ["chi", "--cls", "K K"], ["decompose", "--target", ""],
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
    canonical_failures = [("swapped-D7-D8", swapped), ("non-fork-D1", non_fork),
                          ("C1p-parity", parity)]
    docs = [(name, json.dumps(doc)) for name, doc in canonical_failures]
    for kind, (variants, *_) in inputs.KINDS.items():
        for variant in variants(raw):
            name = f"{kind}:{variant}"
            docs.append((name, inputs.make_mutant(raw, kind, variant, name).text))

    cases = [(" ".join(argv), argv) for argv in SHIPPED_CASES]
    for i, (name, text) in enumerate(docs):
        path = directory / f"doc{i}.json"
        path.write_text(text)
        cases.append((f"verify {name}", ["verify", "--fixtures", str(path)]))
    for i, (name, _) in enumerate(canonical_failures):
        cases.append((f"classes {name}", ["classes", "--fixtures", str(directory / f"doc{i}.json")]))
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
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=env,
            )
            for src in argv
        ]
        outputs = [w.communicate(payload)[0] for w in workers]
    if any(w.returncode for w in workers):
        print("a worker failed", file=sys.stderr)
        return 2
    parent, change = (json.loads(o) for o in outputs)
    differ = [name for (name, _), a, b in zip(cases, parent, change) if a != b]
    print(f"compared {len(cases)} outputs: {len(cases) - len(differ)} identical, "
          f"{len(differ)} differ")
    for name in differ:
        print(f"differs: {name}")
    return 1 if differ else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
