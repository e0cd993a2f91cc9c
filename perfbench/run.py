"""seqht benchmark: one closed-loop client running a workload's jobs.

    python3 perfbench/run.py --workload exact-fit --seed 0 --seconds 35 --trace 0

Run from the root of a source checkout; seqht is imported from ``src/``. One
client sends jobs back to back in one process, because seqht is used as a
batch tool, not as a server. ``--trace 0`` measures end-to-end metrics with
tracing off. ``--trace 1`` first runs untraced passes, then wraps the
library's public functions (see ``layers.py``) and runs traced passes; it
reports per-layer metrics, the tracing overhead, and writes the spans to
``.perfbench_out/``. The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_PROBES = 5
MAX_REPORTED_FAILURES = 5


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def setup_seconds(config_dir: Path) -> list[float]:
    """Fresh-process times of ``import seqht.cli`` plus loading the configs."""
    probe = BENCH_DIR / "setup_probe.py"
    times = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, str(probe), str(config_dir), str(SRC)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return times


class Runner:
    """Runs passes over the jobs, timing each job and checking its output."""

    def __init__(self, jobs, reference: dict):
        self.jobs = jobs
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.job_ids = 0

    def _check(self, job, out) -> str | None:
        values = job.values(out)
        if job.ref_key is not None:
            reason = workloads.compare(values, self.reference.get(job.ref_key), job.rel_tol)
            if reason:
                return reason
        return job.oracle(out) if job.oracle else None

    def _fail(self, job, reason: str) -> None:
        self.failed += 1
        if self.failed <= MAX_REPORTED_FAILURES:
            print(f"FAIL {job.name}: {reason}", file=sys.stderr)

    def run_pass(self, tracer=None) -> dict[str, float]:
        times = {}
        for job in self.jobs:
            self.attempted += 1
            if tracer is not None:
                tracer.job = self.job_ids
                tracer.job_threads = job.threads
            self.job_ids += 1
            t0 = time.perf_counter()
            try:
                out = tracer.run_span("job." + job.name, job.run) if tracer else job.run()
            except Exception:
                times[job.name] = time.perf_counter() - t0
                self._fail(job, traceback.format_exc(limit=3).strip().splitlines()[-1])
                continue
            times[job.name] = time.perf_counter() - t0
            try:
                reason = self._check(job, out)
            except Exception:
                reason = traceback.format_exc(limit=3).strip().splitlines()[-1]
            if reason:
                self._fail(job, reason)
        return times

    def run_for(self, seconds: float, tracer=None, on_pass=None) -> list[dict[str, float]]:
        """Whole passes while the next one is expected to end within ``seconds``."""
        passes = []
        start = time.perf_counter()
        while True:
            passes.append(self.run_pass(tracer))
            if on_pass:
                on_pass()
            last = sum(passes[-1].values())
            if time.perf_counter() - start + last > seconds:
                return passes


def headline(jobs, passes: list[dict[str, float]], latencies_ns: list[int]) -> dict[str, tuple[float, str]]:
    """Workload-specific end-to-end figures from untraced passes (0 where absent)."""
    fit = [p["fit"] for p in passes if "fit" in p]
    mc = [j for j in jobs if j.mc_trial_samples]
    mc_time = sum(p[j.name] for p in passes for j in mc)
    mc_samples = sum(j.mc_trial_samples for j in mc) * len(passes)
    p50 = p99 = 0.0
    if latencies_ns:
        cuts = statistics.quantiles(latencies_ns, n=100, method="inclusive")
        p50, p99 = cuts[49] / 1e3, cuts[98] / 1e3
    return {
        "fit_s": (statistics.median(fit) if fit else 0.0, "s"),
        "mc_trial_samples_per_s": (mc_samples / mc_time if mc_time else 0.0, "1/s"),
        "protocol_call_p50_us": (p50, "us"),
        "protocol_call_p99_us": (p99, "us"),
    }


def job_medians(passes: list[dict[str, float]]) -> dict[str, float]:
    return {name: statistics.median(p[name] for p in passes) for name in passes[0]}


def summary_lines(label: str, passes, runner: Runner, extra: dict) -> list[str]:
    totals = [sum(p.values()) for p in passes]
    q1, q2, q3 = _quartiles(totals)
    lines = [
        f"{label}: {len(passes)} passes, pass_s median {q2:.4f} (q1 {q1:.4f}, q3 {q3:.4f}); "
        f"jobs attempted {runner.attempted}, failed {runner.failed}, fail_ratio {runner.failed / runner.attempted:.4f}"
    ]
    lines += [
        f"  job {name}: median {sec:.4f} s, passes " + " ".join(f"{p[name]:.4f}" for p in passes)
        for name, sec in job_medians(passes).items()
    ]
    lines += [f"  {name}: {value:.6g} {unit}" for name, (value, unit) in extra.items()]
    return lines


def load_library():
    """Import seqht from this checkout's ``src/``, never an installed copy."""
    sys.path.insert(0, str(SRC))
    import seqht.cli

    if Path(seqht.cli.__file__).resolve().parent.parent != SRC.resolve():
        raise SystemExit(f"error: imported seqht from {seqht.cli.__file__}, not from {SRC}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=workloads.SIZES, default="full", help="tiny is for the self-test")
    parser.add_argument("--reference", type=Path, default=BENCH_DIR / "reference.json")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    if not (SRC / "seqht" / "__init__.py").is_file():
        print(f"error: no seqht sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    reference = json.loads(args.reference.read_text())
    run_dir = OUT / f"{args.workload}-seed{args.seed}-{args.size}"
    config_dir = run_dir / "configs"
    workloads.write_configs(args.workload, args.seed, args.size, config_dir)
    setup = setup_seconds(config_dir) if args.trace == 0 else []

    load_library()
    _, jobs = workloads.load_jobs(config_dir)
    # Warm-up: one untimed pass of the tiny form of the workload, so lazy
    # imports and first-call costs stay out of the timed passes.
    warm_dir = run_dir / "warmup"
    workloads.write_configs(args.workload, args.seed, "tiny", warm_dir)
    Runner(workloads.load_jobs(warm_dir)[1], reference).run_pass()

    runner = Runner(jobs, reference)
    latencies: list[int] = []
    collect = lambda: latencies.extend(l for j in jobs for l in j.latencies_ns)
    budget = args.seconds if args.trace == 0 else args.seconds / 2
    start = time.perf_counter()
    passes = runner.run_for(budget, on_pass=collect)
    figures = headline(jobs, passes, latencies)

    if args.trace == 0:
        for line in summary_lines(args.workload, passes, runner, figures):
            print(line)
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "pass_s": (statistics.median(sum(p.values()) for p in passes), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    else:
        from layers import POINTS, baseline_rows, layer_metrics
        from tracing import Tracer

        tracer = Tracer()
        tracer.install(POINTS)
        try:
            remaining = max(args.seconds - (time.perf_counter() - start), 0.0)
            traced = runner.run_for(remaining, tracer=tracer)
        finally:
            tracer.uninstall()
        untraced_s = statistics.median(sum(p.values()) for p in passes)
        traced_s = statistics.median(sum(p.values()) for p in traced)
        metrics = layer_metrics(tracer, len(traced))
        metrics["trace.overhead_s"] = (traced_s - untraced_s, "s")
        metrics.update(figures)
        metrics["fail_ratio"] = (runner.failed / runner.attempted, "ratio")
        for line in summary_lines(f"{args.workload} untraced", passes, runner, figures):
            print(line)
        print(f"{args.workload} traced: {len(traced)} passes, pass_s median {traced_s:.4f}")
        for line in baseline_rows(tracer, job_medians(passes)):
            print("baseline " + line)
        span_file = run_dir / "spans.csv.gz"
        tracer.write(span_file)
        print(f"spans: {len(tracer.spans) // 6} written to {span_file.relative_to(ROOT)}")

    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
