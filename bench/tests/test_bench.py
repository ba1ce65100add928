"""Tests of the benchmark itself: seeded inputs, oracles, tracer and a smoke run.

    python3 -m unittest discover -s bench/tests      (or: python3 -m pytest bench/tests)
"""
from __future__ import annotations

import contextlib
import functools
import io
import json
import subprocess
import sys
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import inputs  # noqa: E402
import oracles  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402

B_NAMES = [
    f"B{q}{i}{j}{k}" for q in "mp" for i in range(2) for j in range(2) for k in range(4)
]


@functools.cache
def _roots() -> list[tuple[int, ...]]:
    import barlowlat

    return [r.coords for r in barlowlat.enumerate_roots(barlowlat.load_fixtures().lattice).roots]


def _dump(obj) -> bytes:
    return json.dumps(obj, default=repr).encode()


def _verify_in_process(doc: inputs.Doc, tmp: Path) -> tuple[int, str, str]:
    from barlowlat import cli

    path = tmp / "doc.json"
    path.write_text(doc.text)
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(["verify", "--stars", "both", "--fixtures", str(path)])
    except Exception as exc:  # a crash is an outcome the oracle must see
        rc, err = 1, io.StringIO(f"Traceback: {exc!r}")
    return rc, out.getvalue(), err.getvalue()


class SeededInputs(unittest.TestCase):
    def test_same_seed_gives_identical_bytes(self):
        for seed in (0, 7):
            self.assertEqual(_dump(inputs.pass_docs(seed, 8)), _dump(inputs.pass_docs(seed, 8)))
            self.assertEqual(_dump(inputs.fail_docs(seed)), _dump(inputs.fail_docs(seed)))
            self.assertEqual(_dump(inputs.root_orders(seed, 4, _roots())), _dump(inputs.root_orders(seed, 4, _roots())))
            self.assertEqual(
                _dump(inputs.decompose_targets(seed, B_NAMES)),
                _dump(inputs.decompose_targets(seed, B_NAMES)),
            )

    def test_other_seed_gives_other_inputs(self):
        self.assertNotEqual(_dump(inputs.fail_docs(1)), _dump(inputs.fail_docs(2)))
        self.assertNotEqual(_dump(inputs.root_orders(1, 4, _roots())), _dump(inputs.root_orders(2, 4, _roots())))

    def test_root_orders_keep_every_pairing(self):
        roots = _roots()
        order = inputs.root_orders(4, 1, roots)[0]
        self.assertEqual(sorted(order), list(range(240)))
        for i in range(0, 240, 7):
            for j in range(0, 240, 11):
                self.assertEqual(
                    oracles.pair(roots[order[i]], roots[order[j]]),
                    oracles.pair(roots[i], roots[j]),
                )

    def test_fail_round_has_fixed_composition(self):
        for seed in (1, 2, 3):
            kinds = sorted(d.kind for d in inputs.fail_docs(seed))
            want = sorted(k for k, n in inputs.FAIL_MIX for _ in range(n))
            self.assertEqual(kinds, want)

    def test_reserialized_documents_keep_the_hash(self):
        want = inputs.canonical_sha256(inputs.shipped_raw())
        for doc in inputs.pass_docs(5, 8):
            self.assertEqual(inputs.canonical_sha256(json.loads(doc.text)), want)


class VerifyOracle(unittest.TestCase):
    def setUp(self):
        self.tmp = ROOT / ".bench_work" / "test-oracle"
        self.tmp.mkdir(parents=True, exist_ok=True)

    def tearDown(self):
        for p in self.tmp.iterdir():
            p.unlink()
        self.tmp.rmdir()

    def test_shipped_report_passes_and_flipped_exit_code_fails(self):
        doc = inputs.pass_docs(0, 1)[0]
        rc, out, err = _verify_in_process(doc, self.tmp)
        self.assertIsNone(oracles.check_verify(doc, rc, out, err))
        self.assertIsNotNone(oracles.check_verify(doc, 1, out, err))
        tampered = json.loads(out)
        tampered["fixture_hash"] = "0" * 64
        self.assertIsNotNone(oracles.check_verify(doc, rc, json.dumps(tampered), err))
        tampered = json.loads(out)
        tampered["checks"][14]["witness"]["height"] = 3
        self.assertIsNotNone(oracles.check_verify(doc, rc, json.dumps(tampered), err))

    def test_each_mutation_kind_meets_its_expectation(self):
        raw = inputs.shipped_raw()
        for kind, (variants, _, expect, target, known) in inputs.KINDS.items():
            options = variants(raw)
            for variant in (options[0], options[-1]):
                doc = inputs.make_mutant(raw, kind, variant, kind)
                rc, out, err = _verify_in_process(doc, self.tmp)
                verdict = oracles.check_verify(doc, rc, out, err)
                if not known:
                    self.assertIsNone(verdict, f"{kind} {variant}: {verdict}")
                # a flipped exit code is always caught
                self.assertIsNotNone(oracles.check_verify(doc, 0 if rc else 1, out, ""))

    def test_traceback_is_a_failure(self):
        doc = inputs.make_mutant(inputs.shipped_raw(), "drop_key", "d8", "d")
        self.assertIsNone(oracles.check_verify(doc, 2, "", "fixture error: 'd8'"))
        self.assertIsNotNone(oracles.check_verify(doc, 2, "", "Traceback (most recent call last)"))


class SearchOracle(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        import barlowlat

        fix = barlowlat.load_fixtures()
        rs = barlowlat.enumerate_roots(fix.lattice)
        cfg = barlowlat.search_configs(rs, fix.lattice.k, 2)
        cls.configs = [
            (tuple(r.coords for r in c.a), tuple(r.coords for r in c.b)) for c in cfg
        ]

    def test_valid_configurations_pass(self):
        self.assertIsNone(oracles.check_search(self.configs, 2))

    def test_tampered_configuration_fails(self):
        a, b = self.configs[0]
        swapped = ((a[1], a[0], *a[2:]), b)
        negated = (a, (b[0], tuple(-x for x in b[1])))
        for bad in (swapped, negated, (a, (b[1], b[0]))):
            self.assertIsNotNone(oracles.check_configuration(*bad))
        self.assertIsNotNone(oracles.check_search([self.configs[0]] * 2, 2))
        self.assertIsNotNone(oracles.check_search(self.configs[:1], 2))


class DecomposeOracle(unittest.TestCase):
    gens = [(1, 0, 0, 0, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0, 0, 0, 0), (1, 1, 0, 0, 0, 0, 0, 0, 0)]
    target = (2, 1, 0, 0, 0, 0, 0, 0, 0)

    def test_resubstituting_solutions_pass(self):
        sols = [(1, 0, 1), (2, 1, 0)]
        self.assertIsNone(oracles.check_decomposition(self.target, self.gens, 8, sols, (2, 1, 0)))

    def test_planted_wrong_solutions_fail(self):
        check = oracles.check_decomposition
        self.assertIsNotNone(check(self.target, self.gens, 8, [(1, 1, 1)], None))
        self.assertIsNotNone(check(self.target, self.gens, 1, [(2, 1, 0)], None))
        self.assertIsNotNone(check(self.target, self.gens, 8, [(1, 0, 1)], (2, 1, 0)))
        self.assertIsNotNone(check(self.target, self.gens, 8, [], None))


class MeterTest(unittest.TestCase):
    def test_samples_during_the_block_and_takes_them_out(self):
        import signal
        import time

        meter = speed.Meter()
        start = time.perf_counter()
        with meter.timing():
            while time.perf_counter() - start < 0.3:
                pass
        wall = time.perf_counter() - start
        inside = sum(meter.kernel_s[1:-1])
        self.assertGreaterEqual(len(meter.kernel_s), 4)
        self.assertLess(meter.elapsed, wall - inside + 1e-3)
        self.assertEqual(signal.getsignal(signal.SIGALRM), signal.SIG_DFL)
        self.assertEqual(signal.getitimer(signal.ITIMER_REAL), (0.0, 0.0))
        fmean = sum(meter.kernel_s) / len(meter.kernel_s)
        self.assertAlmostEqual(meter.scaled(), meter.elapsed * speed.REFERENCE_S / fmean)

    def test_samples_while_waiting_for_a_child(self):
        meter = speed.Meter()
        with meter.timing():
            subprocess.run([sys.executable, "-c", "import time; time.sleep(0.2)"], check=True)
        self.assertGreaterEqual(len(meter.kernel_s), 5)
        self.assertGreater(meter.elapsed, 0.2 - sum(meter.kernel_s))

    def test_unsampled_meter_only_times(self):
        meter = speed.Meter(sample=False)
        with meter.timing():
            pass
        self.assertEqual(meter.kernel_s, [])
        self.assertEqual(meter.scaled(), meter.elapsed)


class TracerTest(unittest.TestCase):
    def test_install_wraps_every_binding_and_uninstall_restores(self):
        import barlowlat
        from barlowlat import cli, roots

        original = roots.enumerate_roots
        tracer = tracing.Tracer()
        tracer.install()
        try:
            self.assertIsNot(cli.enumerate_roots, original)
            self.assertIs(cli.enumerate_roots, roots.enumerate_roots)
            self.assertIs(barlowlat.enumerate_roots, roots.enumerate_roots)
            fix = barlowlat.load_fixtures()
            barlowlat.enumerate_roots(fix.lattice)
        finally:
            tracer.uninstall()
        self.assertIs(cli.enumerate_roots, original)
        metrics = tracer.metrics(0.1, 0.2, 0.3)
        self.assertEqual(metrics["roots.enumerate_roots.calls"]["value"], 1)
        self.assertEqual(metrics["roots.found"]["value"], 240)
        self.assertGreater(metrics["lattice.pair.calls"]["value"], 0)
        s, self_s = (metrics[f"fixtures.build_canonical.{k}"]["value"] for k in ("s", "self_s"))
        self.assertLess(self_s, s)


class SmokeRun(unittest.TestCase):
    def run_bench(self, *args: str) -> dict:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), *args],
            capture_output=True, text=True, cwd=ROOT, timeout=170,
        )
        self.assertEqual(proc.returncode, 0, proc.stderr)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], proc.stdout)
        return result

    def test_untraced_and_traced_runs(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        base = ["--workload", "verify_pass", "--seed", "3", "--seconds", "0.1"]
        result = self.run_bench(*base, "--trace", "0")
        self.assertEqual(set(result["metrics"]), {m["name"] for m in spec["end_to_end"]})
        first = self.run_bench(*base, "--trace", "1")
        self.assertEqual(set(first["metrics"]), {m["name"] for m in spec["per_layer"]})
        self.assertEqual([n for n, _ in tracing.PER_LAYER], [m["name"] for m in spec["per_layer"]])
        second = self.run_bench(*base, "--trace", "1")
        for name, metric in first["metrics"].items():
            if metric["unit"] == "count":
                self.assertEqual(metric["value"], second["metrics"][name]["value"], name)


if __name__ == "__main__":
    unittest.main()
