#!/usr/bin/env python3
"""Benchmark of the barlowlat checker, run from the root of a checkout.

    python3 bench/run.py --workload verify_pass --seed 1 --seconds 20 --trace 0

Workloads (see NOTES.md for why each exists):
  verify_pass  cold `barlowlat verify` processes on re-serialized copies of
               the shipped fixture, one at a time
  verify_fail  the same on seeded single-mutation fixtures, each of which
               must fail a known check or exit 2
  search       in-process `search_configs` calls on seeded root orders
  decompose    in-process `decompose_effective` on seeded targets

With `--trace 0` the run measures for about `--seconds` seconds (whole
rounds of the workload's inputs) and prints the end-to-end metrics, with
every time scaled to a reference machine speed (speed.py).  With
`--trace 1` it runs a fixed schedule of operations in-process, first
untraced and then with every public layer function wrapped, and prints the
per-layer metrics; the spans go to `.bench_out/`.  The last line of stdout
is the result: {"correct", "attempted", "failed", "metrics"}.  The line
before it records the machine and the sample counts.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path

import inputs
import oracles
import speed
from tracing import Tracer

ROOT = inputs.ROOT
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
WORK_DIR = ROOT / ".bench_work"
SETUP_PROBES = 7
TAIL_PCT = 80
SEARCH_LIMIT = 100
SEARCH_ORDERS = 4
DECOMPOSE_CAP = 8
OP_TIMEOUT_S = 120


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _in_process_main(argv: list[str]) -> tuple[int, str, str]:
    """`barlowlat.cli.main` with stdout and stderr captured; an escaping
    exception counts as the traceback and exit 1 a process would give."""
    from barlowlat import cli

    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # the benchmark records the crash and goes on
        rc = 1
        err.write(traceback.format_exc())
    return rc, out.getvalue(), err.getvalue()


# ------------------------------------------------------------------ workloads

class Verify:
    """Closed loop of one client: one cold `verify` process at a time."""

    def __init__(self, name: str, seed: int, workdir: Path) -> None:
        self.name, self.seed, self.workdir = name, seed, workdir
        self.docs: list[inputs.Doc] = []
        self.peak_kb = 0

    def setup(self) -> None:
        if self.name == "verify_pass":
            self.docs = inputs.pass_docs(self.seed, 4)
        else:
            self.docs = inputs.fail_docs(self.seed)
        self.workdir.mkdir(parents=True, exist_ok=True)
        for i, doc in enumerate(self.docs):
            (self.workdir / f"doc{i:02d}.json").write_text(doc.text)
        # warm the byte-code and file caches with a run that verifies nothing
        self._spawn(["--version"], speed.Meter(sample=False))

    def round(self) -> list:
        return list(range(len(self.docs)))

    def schedule(self) -> list:
        return self.round()

    def traced_setup(self) -> None:
        pass

    def label(self, op: int) -> str:
        return self.docs[op].name

    def known_failure(self, op: int) -> bool:
        return self.docs[op].known_failure

    def run(self, op: int, meter: speed.Meter, in_process: bool = False) -> str | None:
        argv = ["verify", "--stars", "both", "--fixtures", str(self.workdir / f"doc{op:02d}.json")]
        if in_process:
            with meter.timing():
                rc, out, err = _in_process_main(argv)
        else:
            rc, out, err = self._spawn(argv, meter)
        return oracles.check_verify(self.docs[op], rc, out, err)

    def _spawn(self, argv: list[str], meter: speed.Meter) -> tuple[int, str, str]:
        """Run one `verify` process; its own peak RSS comes from wait4."""
        out_path, err_path = self.workdir / "stdout", self.workdir / "stderr"
        with open(out_path, "w") as out, open(err_path, "w") as err:
            with meter.timing():
                proc = subprocess.Popen(
                    [sys.executable, "-m", "barlowlat.cli", *argv],
                    stdout=out, stderr=err, cwd=ROOT, env=_child_env(),
                )
                killer = threading.Timer(OP_TIMEOUT_S, proc.kill)
                killer.start()
                try:
                    _, status, usage = os.wait4(proc.pid, 0)
                finally:
                    killer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_kb = max(self.peak_kb, usage.ru_maxrss)
        return proc.returncode, out_path.read_text(), err_path.read_text()

    def peak_rss_mb(self) -> float:
        return self.peak_kb / 1024


class InProcess:
    """Shared set-up of the in-process workloads: the validated model."""

    def __init__(self, name: str, seed: int, workdir: Path) -> None:
        self.name, self.seed = name, seed

    def build_model(self):
        import barlowlat

        fix = barlowlat.load_fixtures(None, validate=False)
        fix.validate()
        lat = fix.lattice
        if lat.gram != oracles.CANONICAL_GRAM or lat.k.coords != oracles.CANONICAL_K:
            raise SetupError("canonical Gram or K differs from 1 + (-E8)")
        rs = barlowlat.enumerate_roots(lat)
        if len(rs) != 240:
            raise SetupError(f"{len(rs)} roots, expected 240")
        return fix, rs

    def traced_setup(self) -> None:
        self.build_model()

    def known_failure(self, op) -> bool:
        return False

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class Search(InProcess):
    def setup(self) -> None:
        from barlowlat import RootSet

        fix, rs = self.build_model()
        self.k = fix.lattice.k
        self.root_sets = [
            RootSet(lattice=fix.lattice, roots=tuple(rs.roots[i] for i in order))
            for order in inputs.root_orders(
                self.seed, SEARCH_ORDERS, [r.coords for r in rs.roots]
            )
        ]

    def round(self) -> list:
        return list(range(len(self.root_sets)))

    def schedule(self) -> list:
        return self.round()

    def label(self, op: int) -> str:
        return f"order{op}"

    def run(self, op: int, meter: speed.Meter, in_process: bool = True) -> str | None:
        from barlowlat import search_configs

        with meter.timing():
            configs = search_configs(self.root_sets[op], self.k, SEARCH_LIMIT)
        found = [
            (tuple(r.coords for r in c.a), tuple(r.coords for r in c.b)) for c in configs
        ]
        return oracles.check_search(found, SEARCH_LIMIT)


class Decompose(InProcess):
    def setup(self) -> None:
        from barlowlat import DecompositionProblem, DivisorClass
        from barlowlat.fixtures import CURVE_NAMES

        fix, _ = self.build_model()
        self.lat = fix.lattice
        b_names = sorted(fix.b_classes())
        names = list(CURVE_NAMES) + b_names
        self.gens = [fix.curve_class(n).coords for n in names]
        for name, g in zip(names, self.gens):
            want = 0 if name[0] == "C" else 2 if name[0] == "B" else 1
            if oracles.pair(g, oracles.CANONICAL_K) != want:
                raise SetupError(f"generator {name} has degree != {want}")
        self.cases = []
        for label, combo in inputs.decompose_targets(self.seed, b_names):
            target = [0] * 9
            for name, c in combo.items():
                target = [t + c * x for t, x in zip(target, self.gens[names.index(name)])]
            construction = None
            if min(combo.values()) >= 0:
                construction = tuple(combo.get(n, 0) for n in names)
            problem = DecompositionProblem.create(
                DivisorClass(tuple(target)), list(zip(names, map(DivisorClass, self.gens))),
                caps=DECOMPOSE_CAP,
            )
            self.cases.append((label, tuple(target), construction, problem))

    def round(self) -> list:
        return list(range(len(self.cases)))

    def schedule(self) -> list:
        return self.round()[:4]

    def label(self, op) -> str:
        return self.cases[op][0]

    def run(self, op: int, meter: speed.Meter, in_process: bool = True) -> str | None:
        from barlowlat import decompose_effective

        _, target, construction, problem = self.cases[op]
        with meter.timing():
            solutions = decompose_effective(self.lat, problem)
        return oracles.check_decomposition(
            target, self.gens, DECOMPOSE_CAP, solutions, construction
        )


WORKLOADS = {
    "verify_pass": Verify,
    "verify_fail": Verify,
    "search": Search,
    "decompose": Decompose,
}


class SetupError(Exception):
    """The model built during set-up contradicts the benchmark's own facts."""


# --------------------------------------------------------------------- runs

class Tally:
    """Operation times and oracle failures of one pass."""

    def __init__(self, workload, sample_speed: bool = False) -> None:
        self.workload = workload
        self.sample_speed = sample_speed
        self.times: list[float] = []
        self.scaled: list[float] = []   # times at reference speed, if sampled
        self.labels: list[str] = []
        self.failures: list[dict] = []

    def run(self, op, in_process: bool = False) -> None:
        meter = speed.Meter(self.sample_speed)
        try:
            error = self.workload.run(op, meter, in_process)
        except Exception as exc:  # an operation that raises is a failed operation
            error = f"raised {type(exc).__name__}: {exc}"
        self.times.append(meter.elapsed)
        if self.sample_speed:
            self.scaled.append(meter.scaled())
        self.labels.append(self.workload.label(op))
        if error:
            self.failures.append({
                "op": self.workload.label(op),
                "error": error,
                "known": self.workload.known_failure(op),
            })

    def unexpected(self) -> list[dict]:
        return [f for f in self.failures if not f["known"]]


def percentile(values: list[float], pct: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def timed_run(wl, seconds: float) -> tuple[Tally, dict]:
    """Whole rounds over the workload's inputs until the next round would end
    further from `seconds`, with the set-up probes spread over the run.
    Operation and set-up times are scaled to the reference speed (speed.py)."""
    tally = Tally(wl, sample_speed=True)
    setups: list[float] = []
    busy = 0.0   # time in operations and oracles, without the set-up probes
    rounds = 0
    while True:
        for op in wl.round():
            start = time.perf_counter()
            tally.run(op)
            busy += time.perf_counter() - start
            if len(setups) < SETUP_PROBES and busy >= len(setups) * seconds / SETUP_PROBES:
                setups.append(setup_probe(wl.name, wl.seed))
        rounds += 1
        if rounds == 1:
            # after a fixed amount of work: the high-water mark of the
            # in-process workloads rises with the number of rounds a run fits
            peak_rss_mb = wl.peak_rss_mb()
        if busy + busy / rounds / 2 >= seconds:
            break
    while len(setups) < SETUP_PROBES:
        setups.append(setup_probe(wl.name, wl.seed))
    per_input: dict[str, list[float]] = {}
    for label, t in zip(tally.labels, tally.scaled):
        per_input.setdefault(label, []).append(t)
    typical = [statistics.median(ts) for ts in per_input.values()]
    n = len(tally.times)
    values = {
        "setup_s": (statistics.median(setups), "s"),
        "op_s_p50": (statistics.median(typical), "s"),
        "op_s_tail": (percentile(typical, TAIL_PCT), "s"),
        "ops_per_s": (len(typical) / sum(typical), "1/s"),
        "ok_ops_ratio": ((n - len(tally.failures)) / n, "ratio"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    metrics = {name: {"value": v, "unit": u} for name, (v, u) in values.items()}
    info = {
        "rounds": rounds, "inputs": len(typical), "ops": n,
        "tail_percentile": TAIL_PCT, "setup_probes_s": setups, "timed_phase_s": busy,
        "measured_op_s_p50": statistics.median(tally.times),
        "reference_s": speed.REFERENCE_S,
        "speed_factor_p50": statistics.median(
            s / t for s, t in zip(tally.scaled, tally.times) if t
        ),
    }
    return tally, {"metrics": metrics, "info": info}


def setup_probe(name: str, seed: int) -> float:
    """Set-up time of the workload in a fresh interpreter, at reference speed."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", name,
         "--seed", str(seed), "--seconds", "1", "--trace", "0", "--setup-probe"],
        capture_output=True, text=True, cwd=ROOT, timeout=OP_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise SetupError(f"set-up probe failed: {proc.stderr.strip()[-300:]}")
    return float(proc.stdout.strip().splitlines()[-1])


def cold_import_s() -> float:
    code = (
        "import time; t = time.perf_counter(); import barlowlat.cli; "
        "print(time.perf_counter() - t)"
    )
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            cwd=ROOT, env=_child_env(), timeout=OP_TIMEOUT_S, check=True,
        )
        times.append(float(proc.stdout))
    return statistics.median(times)


def traced_run(wl, out_dir: Path) -> tuple[list[Tally], dict]:
    """The fixed schedule in-process, untraced then traced."""
    import barlowlat.cli  # noqa: F401  (the tracer wraps loaded modules only)

    schedule = wl.schedule()
    untraced = Tally(wl)
    for op in schedule:
        untraced.run(op, in_process=True)
    tracer = Tracer()
    tracer.install()
    traced = Tally(wl)
    try:
        wl.traced_setup()
        for i, op in enumerate(schedule):
            tracer.op = f"{i}:{wl.label(op)}"
            traced.run(op, in_process=True)
    finally:
        tracer.uninstall()
    trace_path = out_dir / f"trace-{wl.name}-seed{wl.seed}.json"
    tracer.write(trace_path)
    metrics = tracer.metrics(
        cold_import_s(),
        statistics.median(untraced.times),
        statistics.median(traced.times),
    )
    info = {"ops": len(schedule), "spans_file": str(trace_path.relative_to(ROOT))}
    return [untraced, traced], {"metrics": metrics, "info": info}


# --------------------------------------------------------------------- info

def machine_info() -> dict:
    cpu = None
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "machine": platform.machine(),
        "platform": platform.platform(),
        "cpu": cpu,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
    }


def git_commit() -> str | None:
    """HEAD of the checkout, read without running git; None outside a repository."""
    head = ROOT / ".git" / "HEAD"
    with contextlib.suppress(OSError):
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        ref_file = ROOT / ".git" / name
        if ref_file.exists():
            return ref_file.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


# --------------------------------------------------------------------- main

def parse_args(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "barlowlat" / "__init__.py").is_file():
        print(f"no barlowlat sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    machine = machine_info()
    cpu = speed.pin()
    workdir = WORK_DIR / f"{args.workload}-{args.seed}-{os.getpid()}"
    wl = WORKLOADS[args.workload](args.workload, args.seed, workdir)
    try:
        setup = speed.Meter()
        with setup.timing():
            wl.setup()
        if args.setup_probe:
            print(setup.scaled())
            return 0
        OUT_DIR.mkdir(exist_ok=True)
        if args.trace:
            tallies, run = traced_run(wl, OUT_DIR)
        else:
            tally, run = timed_run(wl, args.seconds)
            tallies = [tally]
    except SetupError as exc:
        print(f"set-up failed: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failures = [f for t in tallies for f in t.failures]
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        **machine,
        "git_commit": git_commit(),
        "fixture_sha256": inputs.canonical_sha256(inputs.shipped_raw()),
        "pinned_cpu": cpu,
        "main_setup_s": setup.elapsed,
        **run["info"],
        "failures": failures,
    }
    result = {
        "correct": not any(t.unexpected() for t in tallies),
        "attempted": sum(len(t.times) for t in tallies),
        "failed": len(failures),
        "metrics": run["metrics"],
    }
    stem = f"run-{args.workload}-seed{args.seed}-trace{args.trace}"
    samples = [{"op": t.labels, "s": t.times, "scaled_s": t.scaled} for t in tallies]
    (OUT_DIR / f"{stem}.json").write_text(
        json.dumps({"info": info, "result": result, "samples": samples}, indent=1)
    )
    print(json.dumps({"run_info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
