"""The one home of the runtime knobs: ``RuntimeConfig``.

Every knob in ``RUNTIME_KNOBS`` is a ``RuntimeConfig`` field, applied at
construction and on a built runtime through ``DSMRuntime.configure`` — the
single pre-run path the campaign runner's configure hook also uses.  The
runtime resolves knobs into private copies of its ``RuntimeConfig`` and
``DetectorConfig``, so nothing it decides reaches the caller's objects.
"""

import dataclasses

import pytest

from repro.core.detector import DetectorConfig
from repro.explore.campaign import CampaignConfig, _knob_configure
from repro.net.nic import NICConfig
from repro.runtime.runtime import RUNTIME_KNOBS, DSMRuntime, RunResult, RuntimeConfig
from repro.workloads import RandomAccessWorkload, RPCEchoWorkload

from tests.detectors.differential import run_result_digest

#: A base that exercises every knob: two-sided SEND/RECV through an SRQ,
#: piggybacked delta-encoded clocks, jittered latency.
BASE = RuntimeConfig(clock_transport="piggyback", clock_wire="delta")

#: ``(knob, campaign CLI value, RuntimeConfig value)`` — each differs from BASE.
KNOB_CASES = [
    ("clock_transport", "roundtrip", "roundtrip"),
    ("clock_wire", "truncated", "truncated"),
    ("clock_wire_resync", "3", 3),
    ("transport", "ud", "ud"),
    ("detector_epochs", "off", "off"),
    ("cq_moderation", True, True),
    ("cq_moderation_timer", "4,2.0", (4, 2.0)),
    ("flow_control", "credit", "credit"),
]


def rpc_echo(config):
    return RPCEchoWorkload(
        num_clients=2, requests_per_client=3, payload_cells=2, config=config
    ).build(seed=5)


def idle(api):
    yield from api.compute(0.0)


class TestOneKnobPath:
    def test_cases_cover_every_knob(self):
        assert sorted(case[0] for case in KNOB_CASES) == sorted(RUNTIME_KNOBS)

    @pytest.mark.parametrize(
        "knob, campaign_value, runtime_value", KNOB_CASES, ids=lambda v: str(v)
    )
    def test_campaign_hook_equals_construction(
        self, knob, campaign_value, runtime_value
    ):
        built = rpc_echo(dataclasses.replace(BASE, **{knob: runtime_value}))
        hooked = rpc_echo(BASE)
        _knob_configure(CampaignConfig(**{knob: campaign_value}))(hooked)
        assert getattr(hooked.config, knob) == runtime_value
        assert hooked.config == built.config
        assert run_result_digest(hooked.run()) == run_result_digest(built.run())

    def test_no_hook_without_overrides(self):
        assert _knob_configure(CampaignConfig()) is None

    def test_setters_and_mirrors_are_gone(self):
        for knob in RUNTIME_KNOBS:
            assert not hasattr(DSMRuntime, f"set_{knob}")
        mirrors = {f.name for f in dataclasses.fields(RunResult)} & set(RUNTIME_KNOBS)
        assert not mirrors

    @pytest.mark.parametrize(
        "name, value",
        [
            ("clock_transport", "roundtrip"),
            ("clock_wire", "full"),
            ("clock_wire_resync", 64),
            ("transport", "ud"),
        ],
    )
    def test_nic_config_has_no_mode_fields(self, name, value):
        with pytest.raises(TypeError):
            NICConfig(**{name: value})

    def test_unknown_or_structural_fields_rejected(self):
        runtime = DSMRuntime(world_size=2)
        with pytest.raises(TypeError, match="unknown knobs"):
            runtime.configure(world_size=3)
        with pytest.raises(TypeError, match="unknown knobs"):
            runtime.configure(clock_wires="delta")

    def test_rejected_value_leaves_the_runtime_unchanged(self):
        runtime = DSMRuntime(world_size=2, clock_wire="delta")
        before = dataclasses.replace(runtime.config)
        with pytest.raises(ValueError, match="clock_transport"):
            runtime.configure(clock_wire="full", clock_transport="carrier-pigeon")
        assert runtime.config == before
        assert runtime.nics[0].clock_transport.wire_format == "delta"

    def test_configure_reaches_every_layer(self):
        runtime = DSMRuntime(world_size=3)
        runtime.configure(
            clock_transport="piggyback", clock_wire="delta",
            clock_wire_resync="adaptive", transport="ud",
            cq_moderation_timer=(2, 1.0), flow_control="credit",
        )
        for nic, context in zip(runtime.nics, runtime.verbs_contexts):
            assert nic.transport == "ud"
            assert nic.clock_transport.piggyback
            assert nic.clock_transport.wire_format == "delta"
            assert nic.clock_transport.resync == "adaptive"
            assert context.flow_control == "credit"
            assert context.cq_moderator.count == 2
        runtime.configure(cq_moderation_timer=None)
        assert all(c.cq_moderator is None for c in runtime.verbs_contexts)

    def test_configure_after_run_rejected(self):
        runtime = DSMRuntime(world_size=2)
        runtime.set_spmd_program(idle)
        runtime.run()
        with pytest.raises(RuntimeError, match="before run"):
            runtime.configure(transport="ud")


class TestCallerConfigUntouched:
    def test_piggyback_run_does_not_leak_into_a_shared_detector_config(self):
        shared = DetectorConfig()

        def run(transport, detector):
            return RandomAccessWorkload(
                world_size=4, operations_per_rank=10,
                config=RuntimeConfig(detector=detector, clock_transport=transport),
            ).build(1).run()

        run("piggyback", shared)
        reused = run("roundtrip", shared)
        fresh = run("roundtrip", DetectorConfig())
        assert shared == DetectorConfig()
        assert reused.detection_control_messages == fresh.detection_control_messages
        assert fresh.detection_control_messages > 0
        assert run_result_digest(reused) == run_result_digest(fresh)

    def test_switching_transport_restores_the_given_figure(self):
        given = DetectorConfig(control_messages_per_check=3)
        runtime = DSMRuntime(RuntimeConfig(world_size=2, detector=given))
        runtime.configure(clock_transport="piggyback")
        assert runtime.detector.config.control_messages_per_check == 0
        runtime.configure(clock_transport="roundtrip")
        assert runtime.detector.config.control_messages_per_check == 3
        built_piggyback = DSMRuntime(
            RuntimeConfig(world_size=2, detector=given, clock_transport="piggyback")
        )
        built_piggyback.configure(clock_transport="roundtrip")
        assert built_piggyback.detector.config.control_messages_per_check == 3
        assert given == DetectorConfig(control_messages_per_check=3)

    def test_resolution_stays_on_the_runtime(self, monkeypatch):
        monkeypatch.setenv("REPRO_DETECTOR_EPOCHS", "off")
        config = RuntimeConfig(world_size=2)
        runtime = DSMRuntime(config)
        assert runtime.config.detector_epochs == "off"
        assert runtime.detector.config.epochs is False
        assert config.detector_epochs is None
        assert config.detector.epochs is True
        runtime.configure(clock_transport="piggyback")
        assert config.clock_transport == "roundtrip"

    def test_explicit_epoch_knob_beats_the_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_DETECTOR_EPOCHS", "off")
        runtime = DSMRuntime(RuntimeConfig(world_size=2, detector_epochs="on"))
        assert runtime.detector.config.epochs is True

    def test_malformed_environment_epoch_mode_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_DETECTOR_EPOCHS", "maybe")
        with pytest.raises(ValueError, match="detector_epochs"):
            DSMRuntime(world_size=2)


class TestRankValidation:
    def test_api_rejects_out_of_range_ranks(self):
        runtime = DSMRuntime(world_size=3)
        for rank in (-1, 3):
            with pytest.raises(ValueError, match="rank"):
                runtime.api(rank)

    def test_api_rejects_non_int_ranks(self):
        runtime = DSMRuntime(world_size=3)
        for rank in (True, 1.0, "1"):
            with pytest.raises(TypeError, match="rank"):
                runtime.api(rank)

    def test_set_program_rejects_bad_ranks(self):
        runtime = DSMRuntime(world_size=3)
        with pytest.raises(TypeError, match="bool"):
            runtime.set_program(True, idle)
        for rank in (-1, 3):
            with pytest.raises(ValueError, match="rank"):
                runtime.set_program(rank, idle)
        runtime.set_program(2, idle)
        assert runtime.api(2).rank == 2
