"""Self-checks of the benchmark: output checks, layer accounting, metric coverage.

    python3 -m pytest perfbench/tests -q

Each workload is run once per mode through the command line, with
``--seconds 0`` (the minimum number of repetitions); the results are shared
by the tests below.
"""

from __future__ import annotations

import inspect
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import bench_workloads  # noqa: E402
from host_speed import HostSpeed  # noqa: E402
from layer_trace import LAYERS, LayerTracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SEED = 1

#: Layers that must do no work on a workload: their call counters read 0.
IDLE_LAYERS = {
    "random-access-roundtrip": ("verbs", "explore", "detectors"),
    "rpc-echo-piggyback": ("explore", "detectors"),
}


def run_cli(workload: str, trace: int, root: Path = ROOT, hash_seed: str = "0"):
    """Run the benchmark command; return (exit code, stdout, stderr)."""
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    proc = subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "0", "--trace", str(trace)],
        cwd=root, env=env, capture_output=True, text=True, timeout=900,
    )
    return proc.returncode, proc.stdout, proc.stderr


class Results:
    """Command-line results, each computed once per session."""

    def __init__(self) -> None:
        self._cache = {}

    def get(self, workload: str, trace: int, hash_seed: str = "0") -> dict:
        key = (workload, trace, hash_seed)
        if key not in self._cache:
            code, out, err = run_cli(workload, trace, hash_seed=hash_seed)
            assert code == 0, err
            self._cache[key] = json.loads(out.splitlines()[-1])
        return self._cache[key]


@pytest.fixture(scope="session")
def results() -> Results:
    return Results()


def _copy_benchmark(destination: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", destination / "BENCHMARK.json")
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, destination / path,
                        ignore=shutil.ignore_patterns("__pycache__"))


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_reported_with_its_unit(results, workload, trace):
    result = results.get(workload, trace)
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted
    }
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", sorted(IDLE_LAYERS))
def test_idle_layers_do_no_work(results, workload):
    metrics = results.get(workload, 1)["metrics"]
    for layer in IDLE_LAYERS[workload]:
        counters = [name for name in metrics if name.startswith(f"{layer}.") and name.endswith(".calls")]
        assert counters
        assert {name: metrics[name]["value"] for name in counters} == dict.fromkeys(counters, 0)
    assert metrics["verbs.failed_completions"]["value"] == 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counts_repeat_exactly_across_processes(results, workload):
    first = results.get(workload, 1, hash_seed="0")["metrics"]
    second = results.get(workload, 1, hash_seed="12345")["metrics"]
    deterministic = [
        name for name, m in first.items()
        if name.endswith((".calls", ".py_calls_per_event")) or m["unit"] == "count"
    ]
    assert len(deterministic) >= 2 * len(LAYERS)
    differing = {
        name: (first[name]["value"], second[name]["value"])
        for name in deterministic if first[name]["value"] != second[name]["value"]
    }
    assert differing == {}


def test_corrupted_expected_digest_fails_every_run(tmp_path):
    _copy_benchmark(tmp_path)
    (tmp_path / "src").symlink_to(ROOT / "src", target_is_directory=True)
    digests_file = tmp_path / "perfbench" / "expected_digests.json"
    digests = json.loads(digests_file.read_text())
    workload = "random-access-roundtrip"
    digests[workload] = {seed: "0" * 64 for seed in digests[workload]}
    digests_file.write_text(json.dumps(digests))
    code, out, err = run_cli(workload, 0, root=tmp_path)
    assert code == 0, err
    result = json.loads(out.splitlines()[-1])
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] >= 1
    share = next(line for line in out.splitlines() if line.split()[:1] == ["failed_run_share"])
    assert float(share.split()[1]) == 1.0


def test_refuses_to_run_without_the_program(tmp_path):
    _copy_benchmark(tmp_path)
    code, out, _err = run_cli("random-access-roundtrip", 0, root=tmp_path)
    assert code != 0
    assert '"metrics"' not in out


def test_self_time_never_exceeds_traced_wall_time():
    workload = bench_workloads.WORKLOADS["random-access-roundtrip"]
    tracer = LayerTracer()
    started = time.perf_counter()
    with tracer:
        rep = workload.repetition(SEED, HostSpeed())
    wall = time.perf_counter() - started
    self_s = tracer.self_seconds()
    assert all(seconds >= 0 for seconds in self_s.values())
    assert 0 < sum(self_s.values()) <= wall
    # Tracing observes; it does not change the output.
    assert rep.digest == bench_workloads.load_expected()["random-access-roundtrip"][str(SEED)]


def test_generator_spans_cover_every_resume():
    from repro import DSMRuntime, RuntimeConfig
    from repro.runtime.api import ProcessAPI

    assert inspect.isgeneratorfunction(ProcessAPI.get)
    tracer = LayerTracer()
    with tracer:
        runtime = DSMRuntime(RuntimeConfig(world_size=2, latency="uniform"))
        runtime.declare_scalar("x", owner=1, initial=7)

        def program(api):
            value = yield from api.get("x")
            api.private.write("seen", value)

        runtime.set_spmd_program(program)
        result = runtime.run()
    get = tracer.names.index("runtime.api.ProcessAPI.get")
    resumes = sum(1 for name in tracer.span_name if name == get)
    assert tracer.calls[get] == 2
    # The remote get of rank 0 waits on the network: several resumes.
    assert resumes > tracer.calls[get]
    assert [result.per_rank_private[rank]["seen"] for rank in (0, 1)] == [7, 7]
    # Uninstalled: the original generator function is back.
    assert not hasattr(ProcessAPI.get, "__wrapped__")
