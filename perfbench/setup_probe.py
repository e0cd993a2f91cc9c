"""Set-up probe, run in a fresh process: prints the seconds taken to import
``seqht.cli`` and load one workload's configs.

    python3 perfbench/setup_probe.py <config dir> <src dir>
"""

import sys
import time
from pathlib import Path

import workloads


def main() -> None:
    config_dir, src = Path(sys.argv[1]), sys.argv[2]
    t0 = time.perf_counter()
    sys.path.insert(0, src)
    import seqht.cli  # noqa: F401  (the import is what is timed)

    workloads.load_jobs(config_dir)
    print(time.perf_counter() - t0)


if __name__ == "__main__":
    main()
