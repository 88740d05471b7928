"""Self-tests of the benchmark: known answers, negative controls, tracing, output.

    python3 -m unittest perfbench/test_perfbench.py

Stdlib only; pytest collects the same tests.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
import unittest
from fractions import Fraction
from pathlib import Path
from unittest import mock

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

run.import_linfty()
BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def first_jobs(name, count, workdir):
    workload = workloads.WORKLOADS[name]
    ctx = workload.setup()
    ctx["workdir"] = workdir
    return workload, ctx, workload.make_jobs(ctx, 7, count)


def main_output(argv):
    """run.main on short blocks of the cheapest hkr slices, with one setup probe."""
    out = io.StringIO()
    with mock.patch.object(run, "SETUP_PROBES", 1), \
            mock.patch.object(workloads.Hkr, "BLOCK", 2), \
            mock.patch.object(workloads.Hkr, "SLICES", workloads.Hkr.SLICES[:4]), \
            contextlib.redirect_stdout(out):
        code = run.main(argv)
    return code, [json.loads(line) for line in out.getvalue().splitlines()]


class KnownAnswers(unittest.TestCase):

    def setUp(self):
        run.WORK.mkdir(parents=True, exist_ok=True)
        self.tmp = tempfile.TemporaryDirectory(dir=run.WORK)
        self.addCleanup(self.tmp.cleanup)

    def test_every_workload_meets_its_known_answer(self):
        for name in workloads.WORKLOADS:
            workload, ctx, jobs = first_jobs(name, 3, self.tmp.name)
            loop = run.Loop(workload, ctx, jobs)
            loop.for_jobs(len(jobs))
            self.assertEqual(loop.failures, [], name)

    def test_wrong_expected_answer_is_reported(self):
        workload, ctx, jobs = first_jobs("hkr", 2, self.tmp.name)
        jobs[1]["expect"]["rank_H"] = [r + 1 for r in jobs[1]["expect"]["rank_H"]]
        loop = run.Loop(workload, ctx, jobs)
        loop.for_jobs(2)
        self.assertEqual([f["job"] for f in loop.failures], [1])
        self.assertIn("rank_H", loop.failures[0]["mismatch"][0])

    def test_a_job_that_raises_is_a_failure(self):
        workload, ctx, jobs = first_jobs("bracket", 1, self.tmp.name)
        jobs[0]["n"] = 0  # Poly rejects zero variables
        loop = run.Loop(workload, ctx, jobs)
        loop.for_jobs(1)
        self.assertIn("error", loop.failures[0])

    def test_closed_form_residue_matches_the_library(self):
        from linfty import jsonio
        from linfty.linf import mc_residue
        workload, ctx, jobs = first_jobs("twist", 40, self.tmp.name)
        verdicts = set()
        for job in jobs:
            doc = json.loads(Path(job["argv"][2]).read_text())
            algebra, omega, _ = jsonio.instance_from_json(doc)
            closed = workloads.mc_residue_closed_form(doc)
            self.assertEqual(bool(closed), bool(mc_residue(algebra, omega)))
            verdicts.add(bool(closed))
        self.assertEqual(verdicts, {False, True})

    def test_closed_form_residue_by_hand(self):
        C = {"basis": [{"name": n, "degree": 0} for n in ("1", "h", "h^2")],
             "unit": 0, "ideal": [1, 2], "d": [],
             "mul": [[i, j, [[i + j, "1"]] if i + j < 3 else []]
                     for i in range(3) for j in range(3)]}
        doc = {"coeff": C, "algebra": {
            "basis": [{"name": "x", "degree": 0}, {"name": "y", "degree": 1},
                      {"name": "z", "degree": 2}],
            "d": [], "bracket": [[["y", "y"], {"z": "1"}]]}}
        self.assertEqual(workloads.mc_residue_closed_form({**doc, "omega": {"y": {"h": "2"}}}),
                         {"z": {2: Fraction(2)}})  # 1/2 [2h y, 2h y] = 2 h^2 z
        self.assertEqual(workloads.mc_residue_closed_form({**doc, "omega": {"y": {"h^2": "1"}}}),
                         {})


class Tracing(unittest.TestCase):

    def test_self_times_account_for_the_wall_and_uninstall_restores(self):
        from linfty import hkr, linalg, scalars
        before = (hkr.rank, linalg.row_reduce, scalars.DgaElem.__add__)
        run.WORK.mkdir(parents=True, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=run.WORK) as tmp:
            loops = [run.Loop(*first_jobs(name, 1, tmp)) for name in ("bracket", "hkr")]
            tracer = tracing.Tracer()
            tracer.install()
            try:
                self.assertIsNot(hkr.rank, before[0])
                wall = sum(loop.for_jobs(1, tracer.run_job) for loop in loops)
            finally:
                tracer.uninstall()
        self.assertEqual((hkr.rank, linalg.row_reduce, scalars.DgaElem.__add__), before)
        self.assertEqual([f for loop in loops for f in loop.failures], [])
        values = tracer.metrics(wall, wall)
        layers = [*tracing.LAYERS, "bench"]
        self.assertAlmostEqual(sum(values[f"{x}.self_s"][0] for x in layers), wall, places=6)
        for name in ("scalars.add_calls", "poly.mul_calls", "diffop.gerstenhaber_calls",
                     "linalg.calls", "hkr.matrix_rows", "cli.calls", "jsonio.bytes_out"):
            self.assertGreater(values[name][0], 0, name)
        self.assertTrue(all(s[5] is not None for s in tracer.spans))


class Output(unittest.TestCase):

    def test_benchmark_json_names_the_metrics_the_runs_print(self):
        self.assertEqual([m["name"] for m in BENCHMARK["end_to_end"]],
                         [name for name, _ in run.E2E_METRICS])
        self.assertEqual([(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]],
                         list(tracing.LAYER_METRICS))
        self.assertEqual([w["name"] for w in BENCHMARK["workloads"]],
                         list(workloads.WORKLOADS))

    def test_result_line(self):
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            code, lines = main_output(["--workload", "hkr", "--seed", "3",
                                       "--seconds", "0.3", "--trace", str(trace)])
            self.assertEqual(code, 0)
            result = lines[-1]
            self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
            self.assertTrue(result["correct"])
            self.assertEqual(list(result["metrics"]),
                             [m["name"] for m in BENCHMARK[section]])
            self.assertIn("nproc", lines[-2]["report"]["provenance"])

    def test_times_are_scaled_by_the_calibration_kernel(self):
        code, lines = main_output(["--workload", "hkr", "--seed", "3",
                                   "--seconds", "0.3", "--trace", "0"])
        self.assertEqual(code, 0)
        report, metrics = lines[-2]["report"], lines[-1]["metrics"]
        cal = report["calibration"]
        self.assertGreaterEqual(cal["kernels"], 1)
        scale = cal["nominal_kernel_s"] / cal["mean_kernel_s"]
        self.assertAlmostEqual(metrics["jobs_per_s"]["value"] * scale,
                               report["wall_clock"]["jobs_per_s"])
        self.assertAlmostEqual(metrics["latency_p90_ms"]["value"],
                               report["wall_clock"]["latency_p90_ms"] * scale)

    def test_wrong_answer_fails_the_run(self):
        make_jobs = workloads.Hkr.make_jobs

        def wrong(self, ctx, seed, count):
            jobs = make_jobs(self, ctx, seed, count)
            jobs[0]["expect"]["ok"] = False
            return jobs

        with mock.patch.object(workloads.Hkr, "make_jobs", wrong):
            code, lines = main_output(["--workload", "hkr", "--seed", "3",
                                       "--seconds", "0.3", "--trace", "0"])
        self.assertEqual(code, 1)
        self.assertFalse(lines[-1]["correct"])
        self.assertGreaterEqual(lines[-1]["failed"], 1)
        self.assertGreater(lines[-2]["report"]["error_rate"], 0)


if __name__ == "__main__":
    unittest.main()
