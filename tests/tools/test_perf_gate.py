"""The perf gate demonstrably fails on an injected regression.

Acceptance for the CI satellite: ``tools/perf_gate.py`` compares fresh
benchmark artifacts against committed baselines, tolerates noise and
improvements, and exits non-zero the moment a cost metric (messages, bytes,
events, ...) grows beyond the tolerance — including the sneaky case of a
metric silently disappearing from the artifact.
"""

import copy
import importlib.util
import json
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]

spec = importlib.util.spec_from_file_location(
    "perf_gate", REPO_ROOT / "tools" / "perf_gate.py"
)
perf_gate = importlib.util.module_from_spec(spec)
sys.modules["perf_gate"] = perf_gate
spec.loader.exec_module(perf_gate)


@pytest.fixture(autouse=True)
def _no_ambient_step_summary(monkeypatch):
    """Keep test invocations of main() out of the real CI run summary."""
    monkeypatch.delenv("GITHUB_STEP_SUMMARY", raising=False)


BASELINE = {
    "format": "repro-bench-clock-wire",
    "version": 1,
    "workloads": {
        "ring": {
            "delta": {
                "total_messages": 200,
                "clock_bytes_per_message": 14.5,
                "wire_bytes_saved": 4000,
                "joins_elided": 12,
                "races": 0,
            },
            "full": {"total_messages": 200, "clock_bytes_per_message": 256.0},
        }
    },
}


class TestCompareTrees:
    def test_identical_trees_pass(self):
        regressions, improvements = perf_gate.compare_trees(
            copy.deepcopy(BASELINE), BASELINE
        )
        assert regressions == [] and improvements == []

    def test_injected_regression_fails(self):
        fresh = copy.deepcopy(BASELINE)
        fresh["workloads"]["ring"]["delta"]["total_messages"] = 260  # +30%
        regressions, _ = perf_gate.compare_trees(fresh, BASELINE, tolerance=0.05)
        assert [f.path for f in regressions] == [
            "workloads.ring.delta.total_messages"
        ]
        assert "200" in regressions[0].describe()

    def test_growth_within_tolerance_passes(self):
        fresh = copy.deepcopy(BASELINE)
        fresh["workloads"]["ring"]["delta"]["clock_bytes_per_message"] = 14.9
        regressions, _ = perf_gate.compare_trees(fresh, BASELINE, tolerance=0.05)
        assert regressions == []

    def test_improvement_is_reported_but_never_fails(self):
        fresh = copy.deepcopy(BASELINE)
        fresh["workloads"]["ring"]["delta"]["total_messages"] = 150
        regressions, improvements = perf_gate.compare_trees(fresh, BASELINE)
        assert regressions == []
        assert [f.path for f in improvements] == [
            "workloads.ring.delta.total_messages"
        ]

    def test_benefit_metrics_are_never_gated(self):
        # joins_elided and wire_bytes_saved DROPPING is not a regression:
        # they are higher-is-better figures, excluded from the cost gate.
        fresh = copy.deepcopy(BASELINE)
        fresh["workloads"]["ring"]["delta"]["wire_bytes_saved"] = 1
        fresh["workloads"]["ring"]["delta"]["joins_elided"] = 0
        regressions, _ = perf_gate.compare_trees(fresh, BASELINE)
        assert regressions == []

    def test_zero_baseline_tolerates_no_growth(self):
        fresh = copy.deepcopy(BASELINE)
        fresh["workloads"]["ring"]["delta"]["races"] = 1
        regressions, _ = perf_gate.compare_trees(fresh, BASELINE)
        assert [f.path for f in regressions] == ["workloads.ring.delta.races"]

    def test_disappeared_metric_is_a_regression(self):
        fresh = copy.deepcopy(BASELINE)
        del fresh["workloads"]["ring"]["delta"]["total_messages"]
        regressions, _ = perf_gate.compare_trees(fresh, BASELINE)
        assert any(f.missing for f in regressions)

    def test_interpreter_call_counts_are_gated_at_zero_tolerance(self):
        baseline = {
            "workloads": {
                "random-access": {
                    "py_calls": {"core": 1000, "sim": 2000},
                    "py_calls_per_event": {"core": 5.5},
                    "seed": 3,
                }
            }
        }
        assert perf_gate.is_gated_cost("workloads.random-access.py_calls.core")
        assert perf_gate.is_gated_cost("workloads.random-access.py_calls_per_event.core")
        assert not perf_gate.is_gated_cost("workloads.random-access.seed")
        fresh = copy.deepcopy(baseline)
        fresh["workloads"]["random-access"]["py_calls"]["core"] = 1001
        fresh["workloads"]["random-access"]["py_calls_per_event"]["core"] = 5.5001
        regressions, _ = perf_gate.compare_trees(fresh, baseline, tolerance=0.0)
        assert sorted(f.path for f in regressions) == [
            "workloads.random-access.py_calls.core",
            "workloads.random-access.py_calls_per_event.core",
        ]
        fewer = copy.deepcopy(baseline)
        fewer["workloads"]["random-access"]["py_calls"]["sim"] = 1999
        regressions, improvements = perf_gate.compare_trees(fewer, baseline, tolerance=0.0)
        assert regressions == []
        assert [f.path for f in improvements] == ["workloads.random-access.py_calls.sim"]

    def test_new_fresh_metrics_pass_until_baselined(self):
        fresh = copy.deepcopy(BASELINE)
        fresh["workloads"]["ring"]["delta"]["completion_events"] = 999
        regressions, _ = perf_gate.compare_trees(fresh, BASELINE)
        assert regressions == []


class TestCliGate:
    def _write(self, directory, name, tree):
        path = directory / name
        path.write_text(json.dumps(tree))
        return path

    def test_exit_zero_on_clean_artifact(self, tmp_path):
        baselines = tmp_path / "baselines"
        baselines.mkdir()
        self._write(baselines, "BENCH_x.json", BASELINE)
        fresh = self._write(tmp_path, "BENCH_x.json", BASELINE)
        assert perf_gate.main([str(fresh), "--baselines", str(baselines)]) == 0

    def test_exit_one_on_injected_regression(self, tmp_path, capsys):
        baselines = tmp_path / "baselines"
        baselines.mkdir()
        self._write(baselines, "BENCH_x.json", BASELINE)
        broken = copy.deepcopy(BASELINE)
        broken["workloads"]["ring"]["full"]["total_messages"] = 400
        fresh = self._write(tmp_path, "BENCH_x.json", broken)
        assert perf_gate.main([str(fresh), "--baselines", str(baselines)]) == 1
        out = capsys.readouterr().out
        assert "REGRESSED" in out and "total_messages" in out

    def test_missing_baseline_fails_with_the_fix(self, tmp_path, capsys):
        fresh = self._write(tmp_path, "BENCH_new.json", BASELINE)
        assert (
            perf_gate.main([str(fresh), "--baselines", str(tmp_path / "nowhere")])
            == 1
        )
        assert "cp " in capsys.readouterr().out

    def test_missing_fresh_artifact_fails(self, tmp_path):
        baselines = tmp_path / "baselines"
        baselines.mkdir()
        assert (
            perf_gate.main(
                [str(tmp_path / "BENCH_absent.json"), "--baselines", str(baselines)]
            )
            == 1
        )

    def test_gates_the_real_committed_baselines(self):
        """The committed baselines gate themselves: byte-identical artifacts
        pass, and the gate actually has something to protect."""
        baselines = REPO_ROOT / "benchmarks" / "baselines"
        artifacts = sorted(baselines.glob("BENCH_*.json"))
        assert artifacts, "no committed baselines under benchmarks/baselines/"
        assert (
            perf_gate.main(
                [str(a) for a in artifacts] + ["--baselines", str(baselines)]
            )
            == 0
        )


#: A critical-path-bearing artifact in the shape BENCH_critical_path.json
#: writes: total run time plus per-category path attribution.
PATH_BASELINE = {
    "format": "repro-bench-critical-path",
    "version": 1,
    "rmw-with-barriers": {
        "total_sim_time": 100.0,
        "critical_path": {
            "path_sim_time": 100.0,
            "segments": 40,
            "dominant": "network",
            "categories": {
                "network": 60.0,
                "barrier_wait": 25.0,
                "compute": 15.0,
            },
        },
    },
}


class TestRegressionExplainer:
    """Acceptance: a deliberately injected slowdown is correctly attributed."""

    def _inject_network_slowdown(self, factor=1.2):
        fresh = copy.deepcopy(PATH_BASELINE)
        section = fresh["rmw-with-barriers"]
        extra = section["critical_path"]["categories"]["network"] * (factor - 1.0)
        section["critical_path"]["categories"]["network"] += extra
        section["critical_path"]["path_sim_time"] += extra
        section["total_sim_time"] += extra
        return fresh, extra

    def test_explainer_attributes_the_injected_category(self):
        fresh, extra = self._inject_network_slowdown()
        lines = perf_gate.explain_regression(fresh, PATH_BASELINE)
        assert lines, "a moved critical path must produce an explanation"
        # Header names the section and the total movement.
        assert "critical_path" in lines[0]
        assert f"+{extra:g}" in lines[0]
        # The injected category is the first (biggest) mover, owning 100%
        # of the delta; untouched categories do not appear.
        assert lines[1].split()[0] == "network"
        assert "100% of the delta" in lines[1]
        assert all("barrier_wait" not in line for line in lines)
        assert all("compute" not in line for line in lines)

    def test_explainer_is_silent_when_nothing_moved(self):
        assert perf_gate.explain_regression(PATH_BASELINE, PATH_BASELINE) == []

    def test_gate_prints_the_explanation_on_a_path_regression(
        self, tmp_path, capsys
    ):
        baselines = tmp_path / "baselines"
        baselines.mkdir()
        (baselines / "BENCH_cp.json").write_text(json.dumps(PATH_BASELINE))
        fresh, _ = self._inject_network_slowdown()
        fresh_path = tmp_path / "BENCH_cp.json"
        fresh_path.write_text(json.dumps(fresh))
        assert perf_gate.main([str(fresh_path), "--baselines", str(baselines)]) == 1
        out = capsys.readouterr().out
        assert "REGRESSED" in out and "sim_time" in out
        assert "EXPLAIN" in out and "network" in out

    def test_explain_flag_prints_even_when_the_gate_passes(
        self, tmp_path, capsys
    ):
        baselines = tmp_path / "baselines"
        baselines.mkdir()
        (baselines / "BENCH_cp.json").write_text(json.dumps(PATH_BASELINE))
        improved = copy.deepcopy(PATH_BASELINE)
        section = improved["rmw-with-barriers"]
        section["critical_path"]["categories"]["network"] = 50.0
        section["critical_path"]["path_sim_time"] = 90.0
        section["total_sim_time"] = 90.0
        fresh_path = tmp_path / "BENCH_cp.json"
        fresh_path.write_text(json.dumps(improved))
        status = perf_gate.main(
            [str(fresh_path), "--baselines", str(baselines), "--explain"]
        )
        assert status == 0
        out = capsys.readouterr().out
        assert "EXPLAIN" in out and "network" in out


class TestStepSummary:
    """Acceptance: the verdict table lands in $GITHUB_STEP_SUMMARY."""

    def _setup(self, tmp_path, fresh_tree):
        baselines = tmp_path / "baselines"
        baselines.mkdir()
        (baselines / "BENCH_cp.json").write_text(json.dumps(PATH_BASELINE))
        fresh_path = tmp_path / "BENCH_cp.json"
        fresh_path.write_text(json.dumps(fresh_tree))
        return fresh_path, baselines

    def test_passing_gate_appends_an_ok_row(self, tmp_path, monkeypatch):
        summary = tmp_path / "summary.md"
        monkeypatch.setenv("GITHUB_STEP_SUMMARY", str(summary))
        fresh_path, baselines = self._setup(tmp_path, PATH_BASELINE)
        assert perf_gate.main([str(fresh_path), "--baselines", str(baselines)]) == 0
        text = summary.read_text()
        assert "## Perf gate" in text
        assert "| `BENCH_cp.json` | ✅ OK | 0 | 0 | — |" in text

    def test_regression_row_names_the_worst_offender_and_explains(
        self, tmp_path, monkeypatch
    ):
        summary = tmp_path / "summary.md"
        monkeypatch.setenv("GITHUB_STEP_SUMMARY", str(summary))
        fresh = copy.deepcopy(PATH_BASELINE)
        section = fresh["rmw-with-barriers"]
        section["critical_path"]["categories"]["network"] = 90.0
        section["critical_path"]["path_sim_time"] = 130.0
        section["total_sim_time"] = 130.0
        fresh_path, baselines = self._setup(tmp_path, fresh)
        assert perf_gate.main([str(fresh_path), "--baselines", str(baselines)]) == 1
        text = summary.read_text()
        assert "❌ REGRESSED" in text
        assert "total_sim_time" in text
        # The --explain attribution rides along on a regression.
        assert "critical-path movement" in text and "network" in text

    def test_appends_rather_than_overwrites(self, tmp_path, monkeypatch):
        summary = tmp_path / "summary.md"
        summary.write_text("## Earlier step\n")
        monkeypatch.setenv("GITHUB_STEP_SUMMARY", str(summary))
        fresh_path, baselines = self._setup(tmp_path, PATH_BASELINE)
        perf_gate.main([str(fresh_path), "--baselines", str(baselines)])
        text = summary.read_text()
        assert text.startswith("## Earlier step\n")
        assert "## Perf gate" in text

    def test_missing_artifact_becomes_an_error_row(self, tmp_path, monkeypatch):
        summary = tmp_path / "summary.md"
        monkeypatch.setenv("GITHUB_STEP_SUMMARY", str(summary))
        baselines = tmp_path / "baselines"
        baselines.mkdir()
        assert (
            perf_gate.main(
                [str(tmp_path / "BENCH_gone.json"), "--baselines", str(baselines)]
            )
            == 1
        )
        text = summary.read_text()
        assert "⚠️ ERROR" in text and "BENCH_gone.json" in text

    def test_no_env_var_writes_nothing(self, tmp_path):
        fresh_path, baselines = self._setup(tmp_path, PATH_BASELINE)
        assert perf_gate.main([str(fresh_path), "--baselines", str(baselines)]) == 0
        assert not (tmp_path / "summary.md").exists()
