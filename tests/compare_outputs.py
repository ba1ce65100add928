"""Compare the CLI outputs of two source trees, case by case.

    python tests/compare_outputs.py PARENT_SRC CHANGE_SRC

Each tree's `barlowlat.cli.main` runs in a worker process of its own, in
process, on the same cases:

* on the shipped document: verify (json and text, every --stars), roots,
  roots --count, classes, height, formality, search --limit 100, the
  paper's decompose and chi with --cls and --from together;
* verify and classes on the document with D7 and D8 swapped in d8.defs;
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


def write_cases(directory: Path) -> list[tuple[str, list[str]]]:
    """The (name, argv) cases; fixture documents are written to directory."""
    sys.path.insert(0, str(ROOT / "bench"))
    import inputs

    raw = inputs.shipped_raw()
    swapped = json.loads(json.dumps(raw))
    defs = swapped["d8"]["defs"]
    defs["D7"], defs["D8"] = defs["D8"], defs["D7"]
    docs = [("swapped-D7-D8", json.dumps(swapped))]
    for kind, (variants, *_) in inputs.KINDS.items():
        for variant in variants(raw):
            name = f"{kind}:{variant}"
            docs.append((name, inputs.make_mutant(raw, kind, variant, name).text))

    cases = [(" ".join(argv), argv) for argv in SHIPPED_CASES]
    for i, (name, text) in enumerate(docs):
        path = directory / f"doc{i}.json"
        path.write_text(text)
        cases.append((f"verify {name}", ["verify", "--fixtures", str(path)]))
    cases.append(("classes swapped-D7-D8", ["classes", "--fixtures", str(directory / "doc0.json")]))
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
