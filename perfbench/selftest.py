"""Self-test of the benchmark itself, at a tiny size (about two minutes).

    python3 perfbench/selftest.py

Checks, for every workload:
* a run with tracing off prints exactly the end-to-end metrics of
  BENCHMARK.json, and one with tracing on exactly its per-layer metrics,
  each with its unit, and every job passes its output check;
* a corrupted reference value is counted as a failure, not as a pass.
Also checks that the benchmark exits non-zero without printing a result in a
directory holding only BENCHMARK.json and the benchmark's own files.
"""

from __future__ import annotations

import json
import math
import shutil
import sys

import workloads
from report import BENCH_DIR, run_bench
from run import OUT

ROOT = BENCH_DIR.parent
TINY = ("--size", "tiny")


def _expected(section: str) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def check_metrics(workload: str, trace: int) -> None:
    section = "per_layer" if trace else "end_to_end"
    code, _, result = run_bench(workload, trace, seconds=1, extra=TINY)
    assert code == 0 and result is not None, f"{workload} trace={trace}: exit {code}"
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, result
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    assert units == _expected(section), f"{workload} {section}: {sorted(set(units) ^ set(_expected(section)))}"
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)) and math.isfinite(metric["value"]), name
        if not trace:
            assert metric["value"] > 0, f"{workload} {name} is not positive"


def _corrupt(reference: dict, key: str, field: str) -> dict:
    bad = json.loads(json.dumps(reference))
    value = bad[key][field]
    if isinstance(value, str):
        bad[key][field] = "0" + value[1:] if value[0] != "0" else "1" + value[1:]
    else:
        # Far beyond the 1e-12 tolerance of exact values, yet small enough
        # that only a real comparison catches it.
        bad[key][field] = value * (1 + 1e-9) if value else 1e-300
    return bad


def check_corrupted_reference(workload: str, key: str, field: str) -> None:
    reference = json.loads((BENCH_DIR / "reference.json").read_text())
    path = OUT / "selftest" / f"reference-{workload}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(_corrupt(reference, key, field)))
    code, _, result = run_bench(workload, 0, seconds=1, extra=TINY + ("--reference", str(path)))
    assert code == 0 and result is not None, f"{workload}: exit {code}"
    assert result["failed"] >= 1 and not result["correct"], f"corrupted {key}.{field} passed: {result}"


def check_bare_directory() -> None:
    bare = OUT / "selftest" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH_DIR, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    code, stdout, result = run_bench("exact-fit", 0, seconds=1, root=bare)
    assert code != 0 and result is None, f"bare directory: exit {code}, output {stdout!r}"


def main() -> int:
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            check_metrics(workload, trace)
            print(f"ok: {workload} trace={trace} prints every metric with its unit")
    # One corrupted value per kind of check: an exact evaluation (relative
    # tolerance), a Monte Carlo estimate (exact match) and a trace digest.
    for workload, key, field in (
        ("exact-fit", "tiny:exact-binary-n2000", "alpha"),
        ("mc-stream", "tiny:mc-n200@v0", "e_t_h1"),
        ("scalar-calls", "tiny:run-protocol@v0", "digest"),
    ):
        check_corrupted_reference(workload, key, field)
        print(f"ok: corrupted {key}.{field} counts as a failure")
    check_bare_directory()
    print("ok: a directory without the sources exits non-zero and prints no result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
