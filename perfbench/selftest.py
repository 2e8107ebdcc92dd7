"""Tests of the benchmark itself. Run from the root of a source checkout:

    python3 -m unittest perfbench/selftest.py

They take about two minutes: two of them run a whole cli-session.
"""

import contextlib
import io
import json
import os
import signal
import subprocess
import sys
import time
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import session  # noqa: E402
import speed  # noqa: E402
from tracer import Observers, Tracer  # noqa: E402

SMALL_GRID = [
    ["verify", "--suite", "hopf-axioms", "--m", "1", "--max-n", "3"],
    ["verify", "--suite", "gamma-morphism", "--m", "2", "--max-n", "3"],
    ["verify", "--suite", "lambda-morphism", "--m", "1", "--max-n", "3"],
    ["verify", "--suite", "antipode-consistency", "--m", "1", "--max-n", "3"],
    ["verify", "--suite", "oracle-equivalence", "--m", "1", "--max-n", "3",
     "--max-N", "2"],
    ["verify", "--suite", "character-group", "--m", "1", "--max-n", "3"],
    ["verify", "--suite", "nu-counting", "--m", "1", "--max-n", "3"],
]


def worker(trace):
    spec = json.dumps({"calls": SMALL_GRID, "trace": trace})
    code, out, err, _ = run.run_child(
        [sys.executable, os.path.join(HERE, "worker.py"), "calls", spec],
        run.child_env())
    if code != 0:
        raise AssertionError(err)
    return run.last_json(out)


def bench(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise AssertionError(proc.stderr)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


class SessionGenerator(unittest.TestCase):
    def test_deterministic_per_seed(self):
        for seed in (0, 1, 17, 2024):
            self.assertEqual(session.generate(seed), session.generate(seed))
        self.assertNotEqual(session.generate(0), session.generate(1))

    def test_covers_every_verb_op_pair(self):
        self.assertEqual(len(set(session.ALL_PAIRS)), 42)
        for seed in range(5):
            calls = session.generate(seed)
            self.assertEqual({session.verb_op(c["argv"]) for c in calls},
                             set(session.ALL_PAIRS))

    def test_malformed_share_and_known_defects(self):
        for seed in range(5):
            calls = session.generate(seed)
            self.assertEqual(len(calls), 100)
            bad = [c for c in calls if c["expect"] == "error"]
            self.assertEqual(len(bad), 10)
            defects = sorted(c["known_defect"] for c in calls
                             if c["known_defect"])
            self.assertEqual(defects, ["poset-check-typeerror"] * 2
                             + ["zero-denominator"])


class DriftGuard(unittest.TestCase):
    def test_changed_output_fails_unless_it_failed_when_recorded(self):
        golden = [{"op": "a", "ok": True, "output": 1},
                  {"op": "b", "ok": False, "output": 2}]
        ops = [{"op": "a", "ok": True, "output": 9, "known_defect": None},
               {"op": "b", "ok": True, "output": 3, "known_defect": None},
               {"op": "c", "ok": True, "output": 4, "known_defect": None}]
        self.assertEqual(run.judge({"ops": ops}, golden), (3, 1, 1))
        self.assertTrue(ops[0]["drift"])

    def test_known_defects_count_but_keep_the_run_correct(self):
        ops = [{"op": "a", "ok": False, "output": 1,
                "known_defect": "poset-check-typeerror"}]
        self.assertEqual(run.judge({"ops": ops}, None), (1, 1, 0))


class SpeedReference(unittest.TestCase):
    def test_stretches_scale_by_the_samples_at_their_ends(self):
        d = speed.LOOP_S
        sampler = speed.Sampler()
        sampler.samples = [(0.0, 2 * d), (0.1 + 2 * d, 2 * d),
                           (0.2 + 4 * d, d)]
        raw, scaled = sampler.between(0, 2)
        self.assertAlmostEqual(raw, 0.2)
        self.assertAlmostEqual(scaled, 0.1 / 2 + 0.1 / 1.5)

    def test_sampler_samples_and_restores_the_handler(self):
        before = signal.getsignal(signal.SIGALRM)
        sampler = speed.Sampler().start()
        try:
            first = sampler.mark()
            deadline = time.perf_counter() + 0.4
            while time.perf_counter() < deadline:
                speed.ref_loop()
            last = sampler.mark()
        finally:
            sampler.stop()
        self.assertIs(signal.getsignal(signal.SIGALRM), before)
        self.assertGreater(last - first, 3)
        raw, scaled = sampler.between(first, last)
        self.assertGreater(raw, 0.3)
        self.assertGreater(scaled, 0.0)


class TracerTransparency(unittest.TestCase):
    def test_identical_reports_and_repeatable_counts(self):
        plain, traced, again = worker(False), worker(True), worker(True)
        self.assertEqual([c["stdout"] for c in plain["calls"]],
                         [c["stdout"] for c in traced["calls"]])
        for c in plain["calls"]:
            report = json.loads(c["stdout"])
            self.assertTrue(report["ok"], c["argv"])
        calls = {k: v["calls"] for k, v in traced["trace"].items()}
        self.assertEqual(calls, {k: v["calls"]
                                 for k, v in again["trace"].items()})
        self.assertEqual(traced["observed"], again["observed"])
        self.assertGreater(calls["poset.product_key"], 0)
        self.assertGreater(calls["qsym.multiply"], 0)

    def test_originals_restored(self):
        import cqsym
        import cqsym.cli  # noqa: F401

        def snapshot():
            out = {}
            for name, mod in sys.modules.items():
                if name == "cqsym" or name.startswith("cqsym."):
                    for k, v in vars(mod).items():
                        out[name, k] = v
                        if isinstance(v, type):
                            for a, w in vars(v).items():
                                out[name, k, a] = w
            return out

        before = snapshot()
        tracer = Tracer(Observers().table()).install()
        try:
            self.assertIsNot(cqsym.multiply, before["cqsym", "multiply"])
            with contextlib.redirect_stdout(io.StringIO()):
                cqsym.cli.main(["dims", "--m", "1", "--max-n", "2"])
        finally:
            tracer.restore()
        after = snapshot()
        self.assertEqual(before.keys(), after.keys())
        for key, value in before.items():
            self.assertIs(after[key], value, key)
        self.assertEqual(tracer.stats["cli.main"][0], 1)


class Output(unittest.TestCase):
    def check(self, result, declared):
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        metrics = result["metrics"]
        self.assertEqual(set(metrics), {m["name"] for m in declared})
        for m in declared:
            self.assertEqual(metrics[m["name"]]["unit"], m["unit"], m["name"])
            self.assertIsInstance(metrics[m["name"]]["value"], (int, float))

    def test_end_to_end_metrics(self):
        result = bench("cli-session", 0)
        self.check(result, spec()["end_to_end"])
        self.assertEqual(result["failed"], 3)    # the known defects

    def test_per_layer_metrics(self):
        result = bench("cli-session", 1)
        self.check(result, spec()["per_layer"])
        self.assertGreater(result["metrics"]["trace.overhead_ratio"]["value"],
                           1.0)


if __name__ == "__main__":
    unittest.main()
