"""One set-up, timed from a fresh interpreter; prints the CPU seconds it took.

Set-up is importing ``repro`` and building the workload's runtime (or
resolving the campaign's corpus).  ``run.py`` starts this script several
times and reports the median as ``setup_s``.

    python3 perfbench/setup_probe.py <workload> <seed>
"""

import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> None:
    workload, seed = sys.argv[1], int(sys.argv[2])
    sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]
    start = time.process_time()
    import bench_workloads

    bench_workloads.WORKLOADS[workload].setup(seed)
    print(repr(time.process_time() - start))


if __name__ == "__main__":
    main()
