"""Print every benchmark metric, end to end and per layer, for every workload.

    python3 perfbench/report.py [--seed 0] [--seconds <run_seconds of BENCHMARK.json>]

Runs ``run.py`` once with tracing off and once with it on for each workload,
as separate processes, and prints one table per workload: metric, unit,
value. Exits non-zero if any job failed its output check.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import workloads

BENCH_DIR = Path(__file__).resolve().parent
RUN_SECONDS = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())["run_seconds"]


def run_bench(workload: str, trace: int, seed: int = 0, seconds: float = RUN_SECONDS, root: Path | None = None,
              extra: tuple[str, ...] = ()) -> tuple[int, str, dict | None]:
    """One benchmark run in a fresh process: (exit code, stdout, final JSON or None)."""
    root = root or BENCH_DIR.parent
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace), *extra],
        cwd=root, capture_output=True, text=True, timeout=600,
    )
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
    return done.returncode, done.stdout, result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    args = parser.parse_args()
    all_correct = True
    for workload in workloads.WORKLOADS:
        print(f"== {workload} (seed {args.seed}, {args.seconds:g} s a run)")
        for trace in (0, 1):
            code, stdout, result = run_bench(workload, trace, args.seed, args.seconds)
            if code != 0 or result is None:
                print(f"run failed with exit code {code}")
                all_correct = False
                continue
            all_correct &= result["correct"]
            print("\n".join(stdout.strip().splitlines()[:-1]))
            print(f"correct={result['correct']} attempted={result['attempted']} failed={result['failed']}")
            for name, metric in result["metrics"].items():
                print(f"  {name:<55} {metric['unit']:>6}  {metric['value']:.6g}")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
