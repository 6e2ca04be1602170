"""Record the expected output digest of every workload on every pool seed.

    python3 perfbench/record_digests.py [WORKLOAD ...]

Run it only after a change that is meant to alter a workload's output (its
race records, final shared values, simulated time, message counts or
campaign report); review the diff of ``expected_digests.json`` like any
other change in behaviour.  A repetition that fails a check other than its
digest is refused, not recorded.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import bench_workloads  # noqa: E402
from host_speed import HostSpeed  # noqa: E402


def main(names) -> int:
    path = bench_workloads.DIGEST_FILE
    digests = json.loads(path.read_text()) if path.exists() else {}
    for name in names or sorted(bench_workloads.WORKLOADS):
        workload = bench_workloads.WORKLOADS[name]
        recorded = {}
        for seed in range(bench_workloads.SEED_POOL):
            rep = workload.repetition(seed, HostSpeed())
            if rep.failed_schedules:
                print(f"{name} seed {seed}: {rep.failed_schedules} schedules failed",
                      file=sys.stderr)
                return 1
            recorded[str(seed)] = rep.digest
            print(f"{name} seed {seed}: {rep.digest}", flush=True)
        digests[name] = recorded
    path.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
