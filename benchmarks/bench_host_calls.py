"""Host cost as a deterministic count: ``repro`` Python frames per simulated event.

Wall-clock throughput is noisy on shared CI runners, but the number of Python
frames the package enters to simulate one event is a pure function of the
code and the seed.  This benchmark runs two small fixed workloads under a
``sys.setprofile`` hook — the paper's blocking path (random access with an
Algorithm 5 clock round trip per remote access) and an RPC echo over
piggybacked delta-encoded clocks — counts every frame entered (calls and
generator resumes alike), charges it to the ``repro`` subpackage that owns the
code, and writes ``BENCH_host_calls.json``.  For those two the run and its
result collection are counted, not the runtime build.  A third section, ``campaign-schedules``,
counts what an exploration campaign pays per schedule: a fixed set of
fuzzed ``repro.explore.runner.run_schedule`` calls on default-corpus
patterns, each covering the runtime build, the run and the reduction of its
result.  ``tools/perf_gate.py`` gates the ``*calls*`` leaves at zero
tolerance, so a change that adds interpreter work to the per-event path or
to the per-schedule build must refresh the baseline and say so.

Comprehension and generator-expression code objects are not counted: Python
3.12 inlines comprehensions into the enclosing frame, and skipping them keeps
the counts equal on Python 3.10 to 3.12.  Neither are dataclass-generated
methods such as ``__init__``: their code is compiled from a string, so their
filename is ``<string>`` and no layer owns them.  The cyclic garbage collector
is off while counting, because the frames it runs (finalizers of collected
generators) depend on when it fires, not on the code under test.
"""

import gc
import json
import os
import sys
from pathlib import Path

from conftest import record

import repro
from repro.explore.fuzzer import ScheduleFuzzer
from repro.explore.runner import run_schedule
from repro.runtime.runtime import RuntimeConfig
from repro.workloads import RandomAccessWorkload, RPCEchoWorkload
from repro.workloads.racy_patterns import pattern_corpus

#: Where the per-push perf artifact lands (CI uploads it).
BENCH_JSON = os.environ.get("REPRO_BENCH_JSON", "BENCH_host_calls.json")

PACKAGE_ROOT = Path(repro.__file__).resolve().parent

#: Code objects that are frames on some Python versions and not on others.
INLINED_NAMES = frozenset({"<listcomp>", "<dictcomp>", "<setcomp>", "<genexpr>"})

SEED = 3

WORKLOADS = {
    "random-access-roundtrip": lambda: RandomAccessWorkload(
        world_size=8, operations_per_rank=40, hotspot_fraction=0.3, write_fraction=0.5,
    ),
    "rpc-echo-piggyback": lambda: RPCEchoWorkload(
        num_clients=3, requests_per_client=12, payload_cells=4,
        config=RuntimeConfig(clock_transport="piggyback", clock_wire="delta"),
    ),
}


#: The ``campaign-schedules`` section: default-corpus patterns (racy and
#: race-free, one-sided and lock-heavy) times exploration seeds, one fuzzed
#: schedule each, seeded the way ``Explorer.explore_fuzzed`` seeds schedule 1.
CAMPAIGN_PATTERNS = (
    "fig5c-arrival-race",
    "producer-consumer-unsync",
    "stencil-no-barriers",
    "master-worker",
)
CAMPAIGN_SEEDS = (3, 11)


def _layer(filename, cache):
    """The ``repro`` subpackage that owns *filename* ("" outside the package)."""
    layer = cache.get(filename)
    if layer is None:
        path = Path(filename).resolve()
        try:
            parts = path.relative_to(PACKAGE_ROOT).parts
        except ValueError:
            parts = ()
        layer = (parts[0] if len(parts) > 1 else "repro") if parts else ""
        cache[filename] = layer
    return layer


def count_frames(work):
    """Run *work* under a frame counter; return ``{layer: frames}``."""
    by_code = {}

    def profile(frame, event, _arg):
        if event == "call":
            code = frame.f_code
            by_code[code] = by_code.get(code, 0) + 1

    gc.collect()
    gc.disable()
    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        work()
    finally:
        sys.setprofile(previous)
        gc.enable()
    counts = {}
    cache = {}
    for code, frames in by_code.items():
        if code.co_name in INLINED_NAMES:
            continue
        layer = _layer(code.co_filename, cache)
        if layer:
            counts[layer] = counts.get(layer, 0) + frames
    return dict(sorted(counts.items()))


def _section(counts, events):
    return {
        "sim_events": events,
        "py_calls": counts,
        "py_calls_total": sum(counts.values()),
        "py_calls_per_event": {
            layer: round(frames / events, 4) for layer, frames in counts.items()
        },
        "py_calls_per_event_total": round(sum(counts.values()) / events, 4),
    }


def measure(name):
    runtime = WORKLOADS[name]().build(SEED)
    counts = count_frames(runtime.run)
    return _section(counts, runtime.sim.events_processed)


def measure_campaign_schedules():
    """Frames of whole fuzzed schedules: build, run and reduction."""
    builds = {pattern.name: pattern.build for pattern in pattern_corpus()}
    outcomes = []

    def work():
        for name in CAMPAIGN_PATTERNS:
            for seed in CAMPAIGN_SEEDS:
                strategy = ScheduleFuzzer(seed=seed * 1_000_003 + 1)
                outcomes.append(run_schedule(builds[name], seed, strategy, schedule_id=1))

    counts = count_frames(work)
    section = _section(counts, sum(o.events_processed for o in outcomes))
    schedules = len(outcomes)
    section["schedules"] = schedules
    section["py_calls_per_schedule"] = {
        layer: round(frames / schedules, 2) for layer, frames in counts.items()
    }
    section["py_calls_per_schedule_total"] = round(sum(counts.values()) / schedules, 2)
    return section


def test_frame_counts_are_deterministic_and_recorded(benchmark):
    report = {name: measure(name) for name in WORKLOADS}
    benchmark.pedantic(lambda: measure("rpc-echo-piggyback"), rounds=1, iterations=1)

    for name, section in report.items():
        # The count is a property of the code and the seed, not of the run.
        assert measure(name) == section, name
        assert section["sim_events"] > 0
        # The clock layer's cost stays a small share of the per-event work.
        assert section["py_calls"]["core"] < section["py_calls_total"] / 4, name

    campaign = measure_campaign_schedules()
    assert measure_campaign_schedules() == campaign
    assert campaign["schedules"] == len(CAMPAIGN_PATTERNS) * len(CAMPAIGN_SEEDS)
    report["campaign-schedules"] = campaign

    payload = {
        "format": "repro-bench-host-calls",
        "version": 1,
        "python": f"{sys.version_info.major}.{sys.version_info.minor}",
        "seed": SEED,
        "workloads": report,
    }
    with open(BENCH_JSON, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    record(
        benchmark,
        **{
            f"{name}_py_calls_per_event": section["py_calls_per_event_total"]
            for name, section in report.items()
        },
    )
