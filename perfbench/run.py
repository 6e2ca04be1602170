"""Host-speed benchmark of the simulator, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  ``--trace 0`` measures the end-to-end
metrics: repetitions of the workload run back to back, untraced, for
``--seconds`` (at least ``MIN_REPETITIONS`` of them), and set-up is timed
``SETUP_SAMPLES`` times in fresh interpreters.  ``--trace 1`` measures the
per-layer metrics on the first repetition's input, in three passes: untraced
(the base of ``tracing_overhead_ratio``), under the call-counting profiler
(``*.py_calls_per_event``) and under the layer tracer (call counts, self
times); the spans are written to ``.perfbench_out/``.

Every repetition's output digest is checked against
``expected_digests.json``.  The metric names and units come from
``BENCHMARK.json``.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPAN_DIR = ROOT / ".perfbench_out"
SETUP_SAMPLES = 5
MIN_REPETITIONS = 3


def parse_args(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return parser.parse_args(argv)


def failed_schedules(repetitions, expected: Dict[str, str]) -> int:
    """Schedules that failed a check; a digest mismatch fails the whole repetition."""
    failed = 0
    for rep in repetitions:
        if rep.digest != expected.get(str(rep.seed)):
            failed += rep.schedules
        else:
            failed += rep.failed_schedules
    return failed


def setup_seconds(workload: str, seed: int, host) -> List[float]:
    """Set-up seconds from ``SETUP_SAMPLES`` fresh interpreters, at reference host speed."""
    intervals = []
    for _ in range(SETUP_SAMPLES):
        probe = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
            check=True, capture_output=True, text=True, timeout=120,
        )
        intervals.append(host.record(float(probe.stdout.split()[-1])))
        host.sample()
    return [host.reference_seconds(i) for i in intervals]


def end_to_end(workload, name: str, seed: int, seconds: float):
    """Untraced repetitions for *seconds*; returns (values, repetitions, notes).

    Every timing is taken at reference host speed (see ``host_speed.py``).
    """
    import bench_workloads
    from host_speed import REFERENCE_KERNEL_SECONDS, HostSpeed

    host = HostSpeed()
    host.sample()
    setup = setup_seconds(name, seed, host)
    workload.setup(seed)  # import and lazy set-up in this process, untimed
    repetitions = []
    started = time.perf_counter()
    while len(repetitions) < MIN_REPETITIONS or time.perf_counter() - started < seconds:
        repetitions.append(workload.repetition(
            bench_workloads.pool_seed(seed, len(repetitions)), host
        ))
    schedule_ms = [1000.0 * s for rep in repetitions for s in rep.schedule_seconds]
    p95 = statistics.quantiles(schedule_ms, n=20, method="inclusive")[-1]
    values = {
        "events_per_s": statistics.median(r.events / r.reference_seconds for r in repetitions),
        "messages_per_s": statistics.median(r.messages / r.reference_seconds for r in repetitions),
        "schedules_per_s": statistics.median(r.schedules / r.reference_seconds for r in repetitions),
        "schedule_ms_p50": statistics.median(schedule_ms),
        "schedule_ms_p95": p95,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    factors = [s / REFERENCE_KERNEL_SECONDS for s in host.samples]
    notes = [
        f"repetitions {len(repetitions)}, schedules {len(schedule_ms)} "
        f"(latency samples beyond p95: {sum(ms > p95 for ms in schedule_ms)})",
        f"host speed factor {min(factors):.3f}..{max(factors):.3f}, median "
        f"{statistics.median(factors):.3f}, over {len(factors)} samples",
        "set-up seconds at reference speed " + ", ".join(f"{s:.4f}" for s in setup)
        + "; raw repetition seconds " + ", ".join(f"{r.seconds:.4f}" for r in repetitions),
    ]
    return values, repetitions, notes


class RunStats:
    """Totals the traced pass reads from each finished run and each message."""

    def __init__(self) -> None:
        self.checks = self.compares = self.epoch_hits = 0
        self.detection_messages = self.total_messages = 0
        self.retries = self.lock_requests = self.lock_contended = 0
        self.clock_wire_bytes = 0
        self.failed_completions = 0

    def install_hooks(self, tracer) -> None:
        tracer.after("runtime.runtime.DSMRuntime.run", self._on_run)
        tracer.after("net.fabric.Fabric.send", self._on_send)
        tracer.after("net.fabric.Fabric.send_datagram", self._on_send)
        tracer.after("verbs.completion_queue.CompletionQueue.push",
                     lambda args, kwargs, result: self._on_completions([args[1]]))
        tracer.after("verbs.completion_queue.CompletionQueue.push_batch",
                     lambda args, kwargs, result: self._on_completions(args[1]))

    @staticmethod
    def _metric_total(metrics: Dict[str, object], name: str) -> int:
        return sum(
            value for key, value in metrics.items()
            if key.split("{")[0] == name and isinstance(value, int)
        )

    def _on_run(self, args, kwargs, result) -> None:
        for bucket in result.detection_profile.values():
            self.checks += bucket["checks"]
            self.compares += bucket["compares"]
            self.epoch_hits += bucket["epoch_hits"]
        self.detection_messages += result.fabric_stats.detection_messages
        self.total_messages += result.fabric_stats.total_messages
        self.retries += self._metric_total(result.metrics, "nic.rnr_retries")
        self.retries += result.clock_transport_stats.get("ud_retransmits", 0)
        self.lock_requests += self._metric_total(result.metrics, "memory.lock_requests")
        self.lock_contended += self._metric_total(result.metrics, "memory.lock_contended")

    def _on_send(self, args, kwargs, result) -> None:
        from repro.net.message import MessageKind

        message = result[1]
        if message.kind is MessageKind.CLOCK_UPDATE:
            self.clock_wire_bytes += message.payload_bytes
        else:
            self.clock_wire_bytes += message.clock_wire_bytes

    def _on_completions(self, completions) -> None:
        from repro.verbs.work import CompletionStatus

        self.failed_completions += sum(
            c.status is not CompletionStatus.SUCCESS for c in completions
        )


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def per_layer(workload, name: str, seed: int):
    """Untraced, call-counted and traced passes over one input."""
    import bench_workloads
    from call_counts import count_calls
    from host_speed import HostSpeed
    from layer_trace import LAYERS, RUN_ENTRY_POINT, LayerTracer

    workload.setup(seed)
    input_seed = bench_workloads.pool_seed(seed, 0)
    # Calibration samples only between repetitions: a sample inside one
    # would land in the spans of the layer that called back into the
    # benchmark.
    host = HostSpeed(sample_interval=math.inf)
    host.sample()
    untraced = workload.repetition(input_seed, host)
    counted, py_calls = count_calls(lambda: workload.repetition(input_seed, host))

    tracer = LayerTracer()
    stats = RunStats()
    stats.install_hooks(tracer)
    started = time.perf_counter()
    with tracer:
        traced = workload.repetition(input_seed, host)
    traced_wall = time.perf_counter() - started
    tracer.write(SPAN_DIR / f"spans-{name}-seed{seed}.npz")

    self_s = tracer.self_seconds()
    values: Dict[str, float] = {"sim.events": traced.events}
    for layer in LAYERS:
        values[f"{layer}.self_s"] = self_s[layer]
        values[f"{layer}.py_calls_per_event"] = py_calls[layer] / counted.events
    values.update(tracer.call_counts())
    values.update({
        "net.detection_message_share": _share(stats.detection_messages, stats.total_messages),
        "net.retries": stats.retries,
        "net.clock_wire_bytes_per_message": _share(stats.clock_wire_bytes, stats.total_messages),
        "verbs.failed_completions": stats.failed_completions,
        "core.compares_per_check": _share(stats.compares, stats.checks),
        "core.epoch_hit_share": _share(stats.epoch_hits, stats.checks),
        "memory.lock_contended_share": _share(stats.lock_contended, stats.lock_requests),
        "runtime.build_s": tracer.inclusive_seconds(RUN_ENTRY_POINT),
        "explore.distinct_schedule_share": _share(traced.distinct_schedules, traced.schedules),
        "explore.decisions_per_schedule": _share(traced.decisions, traced.schedules),
        "tracing_overhead_ratio": traced.seconds / untraced.seconds,
    })
    notes = [
        f"spans {tracer.span_count} over {tracer.run_id} runs; summed self time "
        f"{sum(self_s.values()):.3f} s of {traced_wall:.3f} s traced wall time",
    ]
    return values, [untraced, counted, traced], notes


def main(argv: List[str]) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import bench_workloads

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in bench_workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    workload = bench_workloads.WORKLOADS[args.workload]
    expected = bench_workloads.load_expected()[args.workload]
    if args.trace:
        values, repetitions, notes = per_layer(workload, args.workload, args.seed)
        wanted = spec["per_layer"]
    else:
        values, repetitions, notes = end_to_end(
            workload, args.workload, args.seed, args.seconds
        )
        wanted = spec["end_to_end"]
    attempted = sum(rep.schedules for rep in repetitions)
    failed = failed_schedules(repetitions, expected)

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}; "
          f"python {platform.python_version()}, nproc {len(os.sched_getaffinity(0))}")
    for note in notes:
        print(f"  {note}")
    for metric in wanted:
        print(f"  {metric['name']:36s} {values[metric['name']]:>16.6g} {metric['unit']}")
    print(f"  {'failed_run_share':36s} {failed / attempted:>16.6g} ({failed} of {attempted})")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
