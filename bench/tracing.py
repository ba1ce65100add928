"""In-memory spans around the public functions of the barlowlat modules.

`Tracer.install()` wraps each function listed in TRACED in every
`barlowlat` namespace that binds it by name (a module-level import such as
`from .roots import enumerate_roots` makes a second binding), and patches
methods on their class.  Each wrapped call records its inclusive time and
its self time: its duration minus the time its traced callees took.  Calls
of boundary functions are also kept as spans (name, start, end, parent,
operation id) and written out when the run ends; the hot leaf
`PicardLattice.pair` is only aggregated, and `DivisorClass` arithmetic only
counted, because they run tens of thousands of times per operation.
"""
from __future__ import annotations

import functools
import json
import sys
import time
from pathlib import Path

#: (layer name, module, attribute path, mode); mode "span" keeps spans,
#: "hot" aggregates only, "count" counts calls only
TRACED = (
    ("cli.run_verification", "barlowlat.cli", "run_verification", "span"),
    ("fixtures.load_fixtures", "barlowlat.fixtures", "load_fixtures", "span"),
    ("fixtures.build_canonical", "barlowlat.fixtures", "FixtureSet.build_canonical", "span"),
    ("fixtures.validate_b_classes", "barlowlat.fixtures", "FixtureSet.validate_b_classes", "span"),
    ("fixtures.validate_sequence", "barlowlat.fixtures", "FixtureSet.validate_sequence", "span"),
    ("fixtures.validate_ext_bounds", "barlowlat.fixtures", "FixtureSet.validate_ext_bounds", "span"),
    ("linalg.rank_exact", "barlowlat.linalg", "rank_exact", "span"),
    ("linalg.det_exact", "barlowlat.linalg", "det_exact", "span"),
    ("linalg.invert_exact", "barlowlat.linalg", "invert_exact", "span"),
    ("linalg.solve_overdetermined", "barlowlat.linalg", "solve_overdetermined", "span"),
    ("linalg.signature_symmetric", "barlowlat.linalg", "signature_symmetric", "span"),
    ("linalg.ldl_positive", "barlowlat.linalg", "ldl_positive", "span"),
    ("linalg.integer_kernel", "barlowlat.linalg", "integer_kernel", "span"),
    ("lattice.pair", "barlowlat.lattice", "PicardLattice.pair", "hot"),
    ("lattice.class_from_pairings", "barlowlat.lattice", "PicardLattice.class_from_pairings", "span"),
    ("lattice.divisor_arith", "barlowlat.lattice", "DivisorClass.__add__", "count"),
    ("lattice.divisor_arith", "barlowlat.lattice", "DivisorClass.__sub__", "count"),
    ("lattice.divisor_arith", "barlowlat.lattice", "DivisorClass.__rmul__", "count"),
    ("roots.enumerate_roots", "barlowlat.roots", "enumerate_roots", "span"),
    ("roots.partition_roots", "barlowlat.roots", "partition_roots", "span"),
    ("roots.vanishing_classification", "barlowlat.roots", "vanishing_classification", "span"),
    ("exceptional.search_configs", "barlowlat.exceptional", "search_configs", "span"),
    ("exceptional.sequence_from_config", "barlowlat.exceptional", "sequence_from_config", "span"),
    ("exceptional.is_num_exceptional", "barlowlat.exceptional", "is_num_exceptional", "span"),
    ("exceptional.decompose_effective", "barlowlat.exceptional", "decompose_effective", "span"),
    ("homledger.validate_ledger", "barlowlat.homledger", "validate_ledger", "span"),
    ("homledger.formality_report", "barlowlat.homledger", "formality_report", "span"),
    ("homledger.min_chain_degree", "barlowlat.homledger", "min_chain_degree", "span"),
    ("heights.height", "barlowlat.heights", "height", "span"),
)

#: the per-layer metrics of a traced run, with units; BENCHMARK.json lists
#: the same names
PER_LAYER = (
    ("cli.import.s", "s"),
    ("cli.run_verification.calls", "count"),
    ("cli.run_verification.s", "s"),
    ("cli.run_verification.self_s", "s"),
    ("fixtures.load_fixtures.s", "s"),
    ("fixtures.load_fixtures.self_s", "s"),
    ("fixtures.build_canonical.s", "s"),
    ("fixtures.build_canonical.self_s", "s"),
    ("fixtures.validate_b_classes.s", "s"),
    ("fixtures.validate_b_classes.self_s", "s"),
    ("fixtures.validate_sequence.s", "s"),
    ("fixtures.validate_ext_bounds.s", "s"),
    *(
        (f"linalg.{fn}.{what}", "count" if what == "calls" else "s")
        for fn in (
            "rank_exact", "det_exact", "invert_exact", "solve_overdetermined",
            "signature_symmetric", "ldl_positive", "integer_kernel",
        )
        for what in ("calls", "s")
    ),
    ("lattice.pair.calls", "count"),
    ("lattice.pair.s", "s"),
    ("lattice.class_from_pairings.calls", "count"),
    ("lattice.class_from_pairings.s", "s"),
    ("lattice.divisor_arith.calls", "count"),
    ("roots.enumerate_roots.calls", "count"),
    ("roots.enumerate_roots.s", "s"),
    ("roots.found", "count"),
    ("roots.partition_roots.s", "s"),
    ("roots.vanishing_classification.s", "s"),
    ("exceptional.search_configs.calls", "count"),
    ("exceptional.search_configs.s", "s"),
    ("exceptional.search_configs.self_s", "s"),
    ("exceptional.sequence_from_config.calls", "count"),
    ("exceptional.sequence_from_config.s", "s"),
    ("exceptional.is_num_exceptional.calls", "count"),
    ("exceptional.decompose_effective.calls", "count"),
    ("exceptional.decompose_effective.s", "s"),
    ("exceptional.decompose_effective.self_s", "s"),
    ("exceptional.solutions_found", "count"),
    ("exceptional.decompose.solutions_per_branch", "ratio"),
    ("homledger.validate_ledger.s", "s"),
    ("homledger.formality_report.s", "s"),
    ("homledger.min_chain_degree.calls", "count"),
    ("heights.height.calls", "count"),
    ("heights.height.s", "s"),
    ("trace.spans", "count"),
    ("trace.untraced_op_s_p50", "s"),
    ("trace.traced_op_s_p50", "s"),
    ("trace.overhead_s", "s"),
)


def _resolve(owner, path: str):
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


class Tracer:
    """Collects spans and per-layer totals while installed."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.totals: dict[str, list[float]] = {}   # name -> [calls, incl, self]
        self.counts: dict[str, int] = {}
        self.op: str = "setup"
        self._stack: list[list] = []   # open spans: [child time, span id]
        self._next_id = 0
        self._subs = 0                 # DivisorClass subtractions so far
        self._branches = 0             # ... of them inside decompose_effective
        self._undo: list[tuple] = []

    # ------------------------------------------------------------- wrapping

    def install(self) -> None:
        for name, module, path, mode in TRACED:
            owner, attr = _resolve(sys.modules[module], path)
            original = getattr(owner, attr)
            if mode == "count":
                wrapper = self._counter(name, original, attr == "__sub__")
            else:
                wrapper = self._timer(name, original, mode == "span")
            targets = [(owner, attr)]
            if "." not in path:
                targets = [
                    (mod, key)
                    for mod_name, mod in list(sys.modules.items())
                    if mod_name == "barlowlat" or mod_name.startswith("barlowlat.")
                    for key, value in list(vars(mod).items())
                    if value is original
                ]
            for obj, key in targets:
                self._undo.append((obj, key, original))
                setattr(obj, key, wrapper)

    def uninstall(self) -> None:
        for obj, key, original in reversed(self._undo):
            setattr(obj, key, original)
        self._undo.clear()

    def _counter(self, name: str, fn, is_sub: bool):
        self.counts.setdefault(name, 0)
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args):
            counts[name] += 1
            if is_sub:
                self._subs += 1
            return fn(*args)

        return wrapper

    def _timer(self, name: str, fn, keep_spans: bool):
        totals = self.totals.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1][1] if stack else None
            self._next_id += 1
            frame = [0.0, self._next_id]
            subs_before = self._subs
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                totals[0] += 1
                totals[1] += duration
                totals[2] += duration - frame[0]
                if stack:
                    stack[-1][0] += duration
                if keep_spans:
                    self.spans.append((frame[1], name, start, end, parent, self.op))
            self._observe(name, result, self._subs - subs_before)
            return result

        return wrapper

    def _observe(self, name: str, result, subs: int) -> None:
        if name == "roots.enumerate_roots":
            self.counts["roots.found"] = max(self.counts.get("roots.found", 0), len(result))
        elif name == "exceptional.decompose_effective":
            key = "exceptional.solutions_found"
            self.counts[key] = self.counts.get(key, 0) + len(result)
            self._branches += subs

    # -------------------------------------------------------------- results

    def metrics(self, import_s: float, untraced_p50: float, traced_p50: float) -> dict:
        def total(name: str, idx: int) -> float:
            return self.totals.get(name, [0, 0.0, 0.0])[idx]

        solutions = self.counts.get("exceptional.solutions_found", 0)
        values = {
            "cli.import.s": import_s,
            "roots.found": self.counts.get("roots.found", 0),
            "exceptional.solutions_found": solutions,
            "exceptional.decompose.solutions_per_branch":
                solutions / self._branches if self._branches else 0.0,
            "lattice.divisor_arith.calls": self.counts.get("lattice.divisor_arith", 0),
            "trace.spans": len(self.spans),
            "trace.untraced_op_s_p50": untraced_p50,
            "trace.traced_op_s_p50": traced_p50,
            "trace.overhead_s": traced_p50 - untraced_p50,
        }
        out = {}
        for metric, unit in PER_LAYER:
            if metric in values:
                value = values[metric]
            else:
                name, what = metric.rsplit(".", 1)
                value = total(name, {"calls": 0, "s": 1, "self_s": 2}[what])
                if what == "calls":
                    value = int(value)
            out[metric] = {"value": value, "unit": unit}
        return out

    def write(self, path: Path) -> None:
        keys = ("id", "name", "start", "end", "parent", "op")
        with open(path, "w") as fh:
            json.dump([dict(zip(keys, span)) for span in self.spans], fh)
