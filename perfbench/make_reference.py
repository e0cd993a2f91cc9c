"""Regenerate ``reference.json``: the expected output of every benchmark job.

    python3 perfbench/make_reference.py

Runs each job once per size and input variant on the current sources and
stores the values its check compares. Run it only on code whose outputs are
trusted; a refactor must reproduce these values, not replace them. Takes
about five minutes on two cores.
"""

from __future__ import annotations

import json
import sys

import workloads
from run import BENCH_DIR, OUT, load_library


def main() -> int:
    load_library()
    reference: dict[str, dict] = {}
    for size in workloads.SIZES:
        for variant in range(workloads.VARIANTS):
            for workload in workloads.WORKLOADS:
                config_dir = OUT / "reference" / f"{workload}-{size}-v{variant}"
                workloads.write_configs(workload, variant, size, config_dir)
                _, jobs = workloads.load_jobs(config_dir)
                for job in jobs:
                    if job.ref_key in reference:
                        continue
                    out = job.run()
                    values = job.values(out)
                    reason = job.oracle(out) if job.oracle else None
                    if reason:
                        raise SystemExit(f"{job.name} (variant {variant}): {reason}")
                    if job.ref_key is not None:
                        reference[job.ref_key] = values
                print(f"{size} v{variant} {workload}: done", file=sys.stderr)
    path = BENCH_DIR / "reference.json"
    path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    # The stored values must survive the JSON round trip bit for bit.
    stored = json.loads(path.read_text())
    for key, values in reference.items():
        if workloads.compare(values, stored[key], 0.0) is not None:
            raise SystemExit(f"{key} does not round-trip through JSON")
    print(f"wrote {len(reference)} references to {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
