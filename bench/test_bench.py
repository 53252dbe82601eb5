"""Self-tests of the benchmark: seeded inputs, answer checks and tracing.

    python3 -m unittest discover -s bench -p "test_*.py"
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from sparse2dc import coloring, io, potential, reductions  # noqa: E402

KIND_LOG = tracing.KindLog()


def _texts(ops):
    return [(op.family, op.text) for op in ops]


class TestInputs(unittest.TestCase):
    def test_same_seed_gives_identical_text(self):
        for workload in workloads.WORKLOADS:
            with self.subTest(workload=workload):
                self.assertEqual(_texts(workloads.build(workload, 11)),
                                 _texts(workloads.build(workload, 11)))

    def test_other_seed_changes_inputs_not_classes(self):
        for workload in workloads.WORKLOADS:
            with self.subTest(workload=workload):
                a, b = workloads.build(workload, 11), workloads.build(workload, 12)
                self.assertNotEqual(_texts(a), _texts(b))
                self.assertEqual([op.family for op in a], [op.family for op in b])
        bands = {f"solve_{name}": band for name, _, _, band in workloads.SOLVE_CLASSES}
        for op in workloads.build("large-solve", 12):
            self.assertTrue(bands[op.family][0] <= op.n <= bands[op.family][1], op.n)

    def test_own_graph6_encoder_round_trips(self):
        for op in workloads.build("exact-oracles", 3, "tiny"):
            if op.family != "rho_star":
                g = io.from_graph6(op.text)
                self.assertEqual((g.n, g.edges()), (op.n, op.edges))


class TestChecks(unittest.TestCase):
    """Each oracle rejects a wrong answer."""

    def setUp(self):
        self.ops = {op.family: op for op in workloads.build("exact-oracles", 5, "tiny")}
        self.solve = workloads.build("large-solve", 5, "tiny")[0]

    def test_coloring_conflict_is_caught(self):
        phi = reductions.constructive_color(io.autodetect(self.solve.text))
        workloads.check(self.solve, phi)
        u, v = self.solve.edges[0]
        phi.set(u, phi.get(v))
        with self.assertRaises(workloads.CheckFailed):
            workloads.check(self.solve, phi)

    def test_wrong_chi2_is_caught(self):
        moore = workloads.build("exact-oracles", 5, "tiny")[1]  # Petersen, 10
        self.assertEqual(workloads.check(moore, 10), {"chi2": 10})
        with self.assertRaises(workloads.CheckFailed):
            workloads.check(moore, 9)

    def test_wrong_mad_witness_is_caught(self):
        op = self.ops["mad"]
        value, witness = potential.mad_exact(io.autodetect(op.text))
        workloads.check(op, (value, witness))
        with self.assertRaises(workloads.CheckFailed):
            workloads.check(op, (value + 1, witness))

    def test_wrong_rho_star_is_caught(self):
        op = self.ops["rho_star"]
        g = io.autodetect(self.ops["load"].text)
        u, v = (int(x) for x in op.text.split())
        result = potential.rho_star(g, {u, v})
        workloads.check(op, result)
        for bad in (potential.PotentialResult(result.value - 1, result.witness, result.params),
                    potential.PotentialResult(result.value, result.witness - {u}, result.params)):
            with self.assertRaises(workloads.CheckFailed):
                workloads.check(op, bad)

    def test_budget_interval_is_a_failed_operation(self):
        answer = workloads.check(self.ops["chi2"], (4, 6))
        self.assertEqual(workloads.failure_of(answer), "BudgetExhausted")


class TestSmoke(unittest.TestCase):
    """All three workloads at tiny size, untraced then traced."""

    def test_tiny_workloads_pass_every_check(self):
        for workload in workloads.WORKLOADS:
            with self.subTest(workload=workload):
                ops = workloads.build(workload, 2, "tiny")
                tracer = tracing.Tracer()
                with run.SpeedSampler() as sampler:
                    plain = run.run_pass(ops, KIND_LOG, sampler)
                    mark = len(KIND_LOG.kinds)
                    tracer.install()
                    try:
                        traced = run.run_pass(ops, KIND_LOG, sampler, tracer)
                    finally:
                        tracer.uninstall()
                self.assertEqual(plain["errors"], [])
                self.assertEqual(plain["failures"], [])
                self.assertEqual(plain["digest"], traced["digest"])
                layers = tracer.metrics(1, KIND_LOG.kinds[mark:])
                self.assertEqual(tracing.expectation_errors(workload, layers), [])

    def test_uninstall_restores_every_binding(self):
        before = (reductions.mad_exact, coloring.is_valid_2distance, reductions.Graph.__init__)
        tracer = tracing.Tracer()
        tracer.install()
        self.assertIsNot(reductions.mad_exact, before[0])
        tracer.uninstall()
        self.assertEqual(before, (reductions.mad_exact, coloring.is_valid_2distance,
                                  reductions.Graph.__init__))


def _command(*args: str, cwd=None) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(BENCH / "run.py") if cwd is None else "bench/run.py",
                           *args], cwd=cwd, capture_output=True, text=True, timeout=300)


class TestCommand(unittest.TestCase):
    def test_same_seed_gives_same_digest_in_two_processes(self):
        reports = []
        for _ in range(2):
            done = _command("--workload", "all", "--seed", "4", "--seconds", "0.2",
                            "--scale", "tiny")
            self.assertEqual(done.returncode, 0, done.stderr)
            reports.append(json.loads(done.stdout.splitlines()[-1]))
        for workload in workloads.WORKLOADS:
            with self.subTest(workload=workload):
                first, second = (r[workload] for r in reports)
                self.assertEqual(first["check_errors"], [])
                self.assertEqual(first["digest"], second["digest"])

    def test_fails_without_the_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copytree(BENCH, Path(tmp) / "bench",
                            ignore=shutil.ignore_patterns("out", "__pycache__"))
            done = _command("--workload", "hunt-stream", "--seed", "1", "--seconds", "1",
                            "--trace", "0", cwd=tmp)
        self.assertNotEqual(done.returncode, 0)
        self.assertEqual(done.stdout, "")


if __name__ == "__main__":
    unittest.main()
