#!/usr/bin/env python3
"""Closed-loop benchmark of linfty: one client, one checked verdict per job.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py                # every workload, untraced and traced

A run imports ``linfty`` from ``src/`` of the checkout it sits in, builds the
workload's fixed objects, generates the job inputs from the seed, and then
submits the next job only when the previous verdict has returned and been
checked against its known answer.

``--trace 0`` warms up on a few untimed jobs, measures for ``--seconds``,
rounded up to a whole block of jobs (see ``workloads``), and reports the
end-to-end metrics in reference seconds (see ``calibration_kernel``).
``--trace 1`` runs a fixed number of whole blocks (in proportion to ``--seconds``, so counts
repeat exactly for a seed) once untraced and once
under ``tracing.Tracer``, and reports the per-layer metrics and the tracing
overhead.  The last line of stdout is the result object; the line before it
carries provenance and detail.  The exit code is 1 when any verdict is wrong
or any job raised, and 2 when ``linfty`` cannot be imported from the checkout.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

from tracing import Tracer
from workloads import WORKLOADS, check_verdict

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"

SETUP_PROBES = 11
# Jobs generated per second of --seconds: 1.3 to 3 times what linfty 0.1.0
# completes on a 2-core 2.1 GHz machine, so a run rarely cycles its pool.
POOL_PER_S = {"bracket": 40, "twist": 50, "extend": 25, "hkr": 30}
# Jobs per second of --seconds in a traced run: with the untraced pass over
# the same jobs and the tracing overhead, a traced run of linfty 0.1.0 takes
# about --seconds on that machine.
TRACE_PER_S = {"bracket": 9, "twist": 16, "extend": 5, "hkr": 5}
MIN_JOBS = 100  # so that p90 has ten samples beyond it
WARMUP_SHARE = 0.05  # untimed jobs before the timed window, as a share of it
CAL_EVERY_S = 0.05  # one calibration kernel per this much verdict time
CAL_NOMINAL_S = 0.004  # the kernel's time on the reference machine (see below)
SETUP_KERNELS = 10  # calibration kernels after each set-up probe

E2E_METRICS = (("jobs_per_s", "1/s"), ("latency_p50_ms", "ms"),
               ("latency_p90_ms", "ms"), ("setup_s", "s"), ("peak_rss_mb", "MB"))


def import_linfty():
    """Import linfty from this checkout's src/ and nowhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import linfty
        where = Path(linfty.__file__).resolve()
    except ImportError as ex:
        where = ex
    if not isinstance(where, Path) or SRC.resolve() not in where.parents:
        print(f"perfbench: cannot import linfty from {SRC}: {where}", file=sys.stderr)
        sys.exit(2)


def calibration_kernel():
    """A fixed sparse product of Fraction-valued, tuple-keyed dicts.

    It does the kind of work linfty does and shares no code with it.  A
    shared 2-core 2.1 GHz cloud machine was seen to change speed by 15-40 %
    from one minute to the next, and by up to 2x from one second to the next.
    Timing this kernel between jobs measures that speed, and every end-to-end
    time is reported in reference seconds: raw seconds times CAL_NOMINAL_S
    over the kernel's mean time in the same run.  A slower program still
    reads slower; a slower machine does not.
    """
    a = {(i, j, i * j % 3): Fraction(i - j, j + 1) for i in range(6) for j in range(6)}
    b = {(i, j, (i + j) % 2): Fraction(i + 2, j + 3) for i in range(5) for j in range(5)}
    out = {}
    for ka, x in a.items():
        for kb, y in b.items():
            k = (ka[0] + kb[0], ka[1] + kb[1], ka[2] + kb[2])
            out[k] = out.get(k, 0) + x * y
    return sum(1 for v in out.values() if v)


def time_kernel():
    """Seconds for one calibration kernel.  The garbage collector is off, so
    the kernel does not pay for collecting the program's objects."""
    gc.disable()
    try:
        t0 = time.perf_counter()
        calibration_kernel()
        return time.perf_counter() - t0
    finally:
        gc.enable()


def setup_probe(name):
    """In a fresh process: reference seconds to import linfty and build the
    fixed objects."""
    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    WORKLOADS[name].setup()
    seconds = time.perf_counter() - t0
    time_kernel()  # its first run also loads the kernel's own code
    kernel_s = statistics.mean(time_kernel() for _ in range(SETUP_KERNELS))
    print(seconds * CAL_NOMINAL_S / kernel_s)


def measure_setup(name):
    times = []
    for _ in range(SETUP_PROBES):
        out = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                              "--setup-probe", name], cwd=ROOT, check=True,
                             capture_output=True, text=True, timeout=60)
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


class Loop:
    """The closed loop: runs jobs, times each verdict, checks it."""

    def __init__(self, workload, ctx, jobs):
        self.workload, self.ctx, self.jobs = workload, ctx, jobs
        self.latencies = []  # seconds to each verdict in the timed window
        self.kernel_s = []  # calibration kernel times in the timed window
        self.failures = []
        self.attempted = 0

    def run_one(self, k, call=None):
        """Job ``k`` of the pool, checked; returns the seconds to its verdict."""
        job = self.jobs[k % len(self.jobs)]
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            if call is None:
                verdict = self.workload.run(self.ctx, job)
            else:
                verdict = call(k, self.workload.run, self.ctx, job)
        except Exception:  # a job that raises is a failed verdict, not a crash
            self.failures.append({"job": k, "error": traceback.format_exc(limit=3)})
            return time.perf_counter() - t0
        latency = time.perf_counter() - t0
        mismatch = check_verdict(job["expect"], verdict)
        if mismatch:
            self.failures.append({"job": k, "mismatch": mismatch})
        return latency

    def warm_up(self, seconds):
        """Untimed jobs from the end of the pool for ``seconds``; at least one."""
        t0 = time.perf_counter()
        k = 0
        while not k or time.perf_counter() - t0 < seconds:
            k += 1
            self.run_one(-k)
        return k

    def for_seconds(self, seconds):
        """Jobs for ``seconds``, then on to the end of the current block, with
        one calibration kernel after each CAL_EVERY_S of verdict time."""
        block = self.workload.BLOCK
        t0 = time.perf_counter()
        k, owed = 0, 0.0
        while k % block or time.perf_counter() - t0 < seconds:
            latency = self.run_one(k)
            self.latencies.append(latency)
            owed += latency
            while owed >= CAL_EVERY_S or not self.kernel_s:
                self.kernel_s.append(time_kernel())
                owed = max(0.0, owed - CAL_EVERY_S)
            k += 1
        return time.perf_counter() - t0

    def for_jobs(self, count, call=None):
        t0 = time.perf_counter()
        for k in range(count):
            self.run_one(k, call)
        return time.perf_counter() - t0


def end_to_end(latencies, scale, setup_s):
    """The metrics from verdict latencies in seconds, times ``scale``.

    jobs_per_s is verdicts per second of verdict time, so the calibration
    kernels between jobs do not count against it."""
    lat = [scale * seconds for seconds in latencies]
    return {"jobs_per_s": len(lat) / sum(lat),
            "latency_p50_ms": 1000 * statistics.median(lat),
            "latency_p90_ms": 1000 * statistics.quantiles(lat, n=10, method="inclusive")[8],
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}


def traced(loop, count, name):
    """Untraced then traced pass over the same jobs; per-layer metrics."""
    untraced_wall = loop.for_jobs(count)
    tracer = Tracer()
    tracer.install()
    try:
        wall = loop.for_jobs(count, tracer.run_job)
    finally:
        tracer.uninstall()
    with open(WORK / f"spans_{name}.jsonl", "w") as fh:
        for span in tracer.spans:
            fh.write(json.dumps(span) + "\n")
    return tracer.metrics(wall, untraced_wall), tracer


def git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else []:
        if line.endswith(" " + ref[5:]):
            return line.split()[0]
    return None


def provenance(args):
    digest = hashlib.sha256()
    for path in sorted((SRC / "linfty").glob("*.py")):
        digest.update(path.name.encode() + path.read_bytes())
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "platform": platform.platform(), "seed": args.seed,
            "git_commit": git_commit(), "src_sha256": digest.hexdigest(),
            "workload": args.workload, "seconds": args.seconds, "trace": args.trace}


def run_workload(args):
    import_linfty()
    workload = WORKLOADS[args.workload]
    setup_s = measure_setup(args.workload) if not args.trace else None
    WORK.mkdir(parents=True, exist_ok=True)
    workdir = WORK / f"work-{os.getpid()}"
    workdir.mkdir()
    try:
        ctx = workload.setup()
        ctx["workdir"] = str(workdir)
        per_s = (TRACE_PER_S if args.trace else POOL_PER_S)[args.workload]
        count = workload.BLOCK * max(1, round(per_s * args.seconds / workload.BLOCK))
        jobs = workload.make_jobs(ctx, args.seed, count)
        loop = Loop(workload, ctx, jobs)
        if args.trace:
            values, tracer = traced(loop, count, args.workload)
            metrics = {k: {"value": v, "unit": u} for k, (v, u) in values.items()}
            detail = {"traced_jobs": count, "spans": len(tracer.spans),
                      "dropped_spans": tracer.dropped_spans}
        else:
            warmup_jobs = loop.warm_up(WARMUP_SHARE * args.seconds)
            wall = loop.for_seconds(args.seconds)
            kernel_s = statistics.mean(loop.kernel_s)
            values = end_to_end(loop.latencies, CAL_NOMINAL_S / kernel_s, setup_s)
            metrics = {k: {"value": values[k], "unit": u} for k, u in E2E_METRICS}
            raw = end_to_end(loop.latencies, 1.0, setup_s)
            samples = len(loop.latencies)
            detail = {"warmup_jobs": warmup_jobs, "latency_samples": samples,
                      "measured_s": wall, "enough_samples": samples >= MIN_JOBS,
                      "calibration": {"kernels": len(loop.kernel_s),
                                      "mean_kernel_s": kernel_s,
                                      "nominal_kernel_s": CAL_NOMINAL_S},
                      "wall_clock": {k: raw[k] for k in
                                     ("jobs_per_s", "latency_p50_ms", "latency_p90_ms")}}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    attempted, failed = loop.attempted, len(loop.failures)
    report = {"provenance": provenance(args), "jobs_attempted": attempted,
              "jobs_generated": len(jobs), "error_rate": failed / attempted,
              **detail, "failures": loop.failures[:5]}
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": not failed, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 1 if failed else 0


def run_all(args):
    """Every workload, untraced and traced, in turn; one table of every metric."""
    status = 0
    for name in WORKLOADS:
        for trace in (0, 1):
            argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                    "--seed", str(args.seed), "--seconds", str(args.seconds),
                    "--trace", str(trace)]
            proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
            if proc.returncode == 2 or not proc.stdout.strip():
                sys.stderr.write(proc.stderr)
                return 2
            *_, report, result = map(json.loads, proc.stdout.strip().splitlines())
            status = max(status, proc.returncode)
            print(f"{name} trace={trace}: attempted {result['attempted']}, "
                  f"error_rate {report['report']['error_rate']}")
            for metric, m in result["metrics"].items():
                print(f"  {metric:32s} {m['value']:14.6g} {m['unit']}")
    return status


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", choices=list(WORKLOADS), help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.setup_probe:
        return setup_probe(args.setup_probe)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
