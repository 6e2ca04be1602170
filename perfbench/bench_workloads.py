"""The benchmark's workloads: seeded inputs, timed repetitions, output digests.

Every workload runs in the calling process with no worker processes and no
threads.  One *repetition* is one complete unit a user waits for: a single
simulated run for the two runtime workloads, one whole exploration campaign
for the campaign workload.  Every simulated execution is one *schedule* (the
campaign explores 600 of them; a runtime run executes exactly one), so the
per-schedule metrics are defined on every workload.

Inputs come from a pool of ``SEED_POOL`` workload seeds: repetition ``r`` of
a run started with ``--seed s`` uses pool seed ``(s + r) % SEED_POOL``.  The
expected digest of every pool seed is stored in ``expected_digests.json``
(regenerate with ``python3 perfbench/record_digests.py`` after a deliberate
behaviour change), so every repetition is checked against a known output.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List

from repro.explore import runner as explore_runner
from repro.explore.campaign import CampaignConfig, run_campaign
from repro.runtime.runtime import RunResult, RuntimeConfig
from repro.sim.engine import Simulator
from repro.sim.events import SimulationError
from repro.workloads import RandomAccessWorkload, RPCEchoWorkload
from repro.workloads.racy_patterns import pattern_corpus

from host_speed import HostSpeed

SEED_POOL = 32
#: Simulated events per timed slice of a runtime run (about 0.1 s of host time).
SLICE_EVENTS = 2000
DIGEST_FILE = Path(__file__).with_name("expected_digests.json")

#: The clock every timed region reads: process CPU time of this
#: single-threaded process.  It is host time (not simulated time) but, unlike
#: wall time, it does not count the periods the process is descheduled by
#: other tenants of a shared machine.
clock = time.process_time


def pool_seed(seed: int, repetition: int) -> int:
    """The workload seed of repetition *repetition* of a run seeded *seed*."""
    return (seed + repetition) % SEED_POOL


@dataclass
class Repetition:
    """What one timed repetition produced."""

    seed: int
    #: Host CPU seconds of the repetition, and the same at reference host
    #: speed (see ``host_speed.py``).
    seconds: float
    reference_seconds: float
    events: int
    messages: int
    #: Host latency of each schedule at reference host speed.
    schedule_seconds: List[float]
    digest: str
    #: Schedules of this repetition that failed a check other than the
    #: digest (a process failed or never finished, a completion failed).
    failed_schedules: int = 0
    decisions: int = 0
    distinct_schedules: int = 0

    @property
    def schedules(self) -> int:
        return len(self.schedule_seconds)


def _sha256(payload: object) -> str:
    text = json.dumps(payload, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode()).hexdigest()


def run_digest(result: RunResult) -> str:
    """Digest of a runtime run: races, final shared values, sim time, traffic."""
    races = [
        [
            str(r.address), r.symbol, r.current_rank, r.current_kind.value,
            [int(c) for c in r.current_clock], r.previous_rank,
            r.previous_kind.value, [int(c) for c in r.previous_clock],
            repr(r.time), r.operation, r.detail,
        ]
        for r in result.races.records()
    ]
    return _sha256(
        {
            "races": races,
            "final_shared_values": result.final_shared_values,
            "elapsed_sim_time": repr(result.elapsed_sim_time),
            "fabric": result.fabric_stats.as_dict(),
        }
    )


class RuntimeWorkload:
    """A workload whose repetition is one :class:`DSMRuntime` run (one schedule)."""

    def __init__(self, scenario: Callable[[], object],
                 check: Callable[[RunResult], bool]) -> None:
        self._scenario = scenario
        self._check = check

    def setup(self, seed: int) -> object:
        """Build the runtime for *seed* (the set-up a user pays per run)."""
        return self._scenario().build(seed)

    def repetition(self, seed: int, host: HostSpeed) -> Repetition:
        """Run once, timed in slices of ``SLICE_EVENTS`` simulated events.

        ``DSMRuntime.run`` drives the simulator through ``sim.run``; the
        replacement below runs the same events in the same order, a slice at
        a time, so *host* can take its calibration samples between slices.
        """
        runtime = self.setup(seed)
        sim = runtime.sim
        slices: List[int] = []

        def run_in_slices(until=None):
            while True:
                begin = clock()
                now = Simulator.run(sim, until=until, max_events=SLICE_EVENTS)
                slices.append(host.record(clock() - begin))
                upcoming = sim.peek()
                if upcoming == math.inf or (until is not None and upcoming > until):
                    return now

        sim.run = run_in_slices
        sampled = host.sampling_seconds
        start = clock()
        try:
            result = runtime.run()
        except SimulationError:
            # A failed process re-raises at the end of its slice: the run
            # failed its output check.
            result = None
        seconds = clock() - start - (host.sampling_seconds - sampled)
        host.sample()
        reference = host.scaled(slices, seconds)
        ok = (
            result is not None and sim.all_finished() and not sim.failures
            and self._check(result)
        )
        return Repetition(
            seed, seconds, reference, sim.events_processed,
            runtime.fabric.stats.total_messages, [reference],
            digest=run_digest(result) if result is not None else "",
            failed_schedules=0 if ok else 1,
        )


class CampaignWorkload:
    """The default-corpus fuzz campaign; a repetition is one whole campaign."""

    budget = 40

    def setup(self, seed: int) -> object:
        """Resolve the corpus (builds every pattern's closures)."""
        return pattern_corpus()

    def repetition(self, seed: int, host: HostSpeed) -> Repetition:
        """Run one campaign, timing each schedule around ``run_schedule``."""
        intervals: List[int] = []
        failed = [0]
        original = explore_runner.run_schedule

        def timed_run_schedule(factory, *args, **kwargs):
            built = []

            def capture(schedule_seed):
                runtime = factory(schedule_seed)
                built.append(runtime)
                return runtime

            begin = clock()
            outcome = original(capture, *args, **kwargs)
            intervals.append(host.record(clock() - begin))
            sim = built[0].sim
            if sim.failures or not sim.all_finished():
                failed[0] += 1
            return outcome

        config = CampaignConfig(strategy="fuzz", budget=self.budget, seed=seed, workers=0)
        explore_runner.run_schedule = timed_run_schedule
        sampled = host.sampling_seconds
        try:
            start = clock()
            report = run_campaign(config, corpus="default")
            seconds = clock() - start - (host.sampling_seconds - sampled)
        finally:
            explore_runner.run_schedule = original
        host.sample()
        outcomes = [o for p in report.per_pattern for o in p["outcomes"]]
        return Repetition(
            seed, seconds, host.scaled(intervals, seconds),
            events=sum(o["events_processed"] for o in outcomes),
            messages=sum(o["total_messages"] for o in outcomes),
            schedule_seconds=[host.reference_seconds(i) for i in intervals],
            digest=hashlib.sha256(report.to_json().encode()).hexdigest(),
            failed_schedules=failed[0],
            decisions=sum(o["decisions"] for o in outcomes),
            distinct_schedules=sum(p["distinct_fingerprints"] for p in report.per_pattern),
        )


RPC_ECHO_REQUESTS = 120


def _echo_complete(result: RunResult) -> bool:
    private = result.per_rank_private
    clients = [rank for rank in private if rank != 0]
    return private[0].get("echoed") == RPC_ECHO_REQUESTS * len(clients) and all(
        private[rank].get("all_echoed") is True for rank in clients
    )


WORKLOADS: Dict[str, object] = {
    "random-access-roundtrip": RuntimeWorkload(
        lambda: RandomAccessWorkload(
            world_size=16, operations_per_rank=200,
            hotspot_fraction=0.3, write_fraction=0.5,
        ),
        check=lambda result: True,
    ),
    "rpc-echo-piggyback": RuntimeWorkload(
        lambda: RPCEchoWorkload(
            num_clients=7, requests_per_client=RPC_ECHO_REQUESTS, payload_cells=4,
            config=RuntimeConfig(clock_transport="piggyback", clock_wire="delta"),
        ),
        check=_echo_complete,
    ),
    "campaign-default-fuzz": CampaignWorkload(),
}


def load_expected() -> Dict[str, Dict[str, str]]:
    """``{workload: {pool seed: digest}}`` as stored beside this file."""
    return json.loads(DIGEST_FILE.read_text())
