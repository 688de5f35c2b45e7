"""Golden tests for the post-mortem explain engine (PROTOCOL.md §10).

One fixed-seed crash-during-recovery run under a replicated control
plane is the acceptance scenario: the flight dump must let
``explain --recovery`` reconstruct the full causal chain -- suspicion,
corroboration, the election that installed the leader, its journal
write-aheads, the state fetches, and the fenced re-steer -- and every
phase-boundary event must match the RecoveryTimeline bit-for-bit.
"""

import itertools
import json

import pytest

from repro.chaos import FaultInjector, FaultPlan, ShadowOracle
from repro.scenario import CTRLPLANE_ELECTION, SOAK_COSTS
from repro.core import FTCChain
from repro.flight import (
    FlightRecorder,
    crosscheck_recovery,
    explain_epoch,
    explain_packet,
    explain_recovery,
    load_dump,
    walk_back,
)
from repro.middlebox import ch_n
from repro.net import TrafficGenerator, balanced_flows
from repro.orchestration import OrchestratorEnsemble
from repro.sim import Simulator
from repro.telemetry import Telemetry


def _crash_during_recovery_dump(seed=11, capacity=65536):
    """A fixed-seed run: p1 crashes, and while its recovery is in the
    fetching phase p3 crashes too (the §5.2 worst case).  Ch-5 with
    f=1 keeps the two failures in disjoint replication groups, so both
    recoveries must commit."""
    # Packet ids come from a process-global counter; pin it so two
    # harness runs in one process produce byte-identical dumps (across
    # processes the seed alone suffices).
    from repro.net import packet as packet_module
    packet_module._packet_ids = itertools.count(1)
    sim = Simulator()
    oracle = ShadowOracle()
    flight = FlightRecorder(capacity=capacity)
    flight.set_context(seed=seed, chain_length=5, f=1)
    telemetry = Telemetry(flight=flight)
    chain = FTCChain(sim, ch_n(5, n_threads=2), f=1, deliver=oracle,
                     costs=SOAK_COSTS, n_threads=2, seed=seed,
                     telemetry=telemetry)
    chain.start()
    ensemble = OrchestratorEnsemble(sim, chain, n=3,
                                    election=CTRLPLANE_ELECTION,
                                    heartbeat_interval_s=1e-3,
                                    corroborate_suspects=True)
    ensemble.start()
    plan = (FaultPlan()
            .crash(position=1, at_s=15e-3)
            .crash_during_recovery(position=3, phase="fetching"))
    injector = FaultInjector(chain, ensemble, plan, seed=seed,
                             ensemble=ensemble)
    injector.start()
    generator = TrafficGenerator(sim, chain.ingress, rate_pps=2e4,
                                 flows=balanced_flows(8, 2))
    sim.run(until=60e-3)
    generator.stop()
    sim.run(until=0.12)
    ensemble.stop()
    assert len(injector.injected) == 2, injector.injected
    assert any(event.recovered for event in ensemble.history)
    return flight.dump(reason="demand", telemetry=telemetry)


@pytest.fixture(scope="module")
def dump():
    return _crash_during_recovery_dump()


class TestExplainRecovery:
    def test_reconstructs_full_causal_chain(self, dump):
        text = explain_recovery(dump, 1)
        assert "recovery of p1: committed" in text
        # The §10 acceptance chain: suspect -> corroborate ->
        # elect/journal -> fetch -> re-steer -> committed, in order.
        order = ["orch/suspected", "orch/corroborated", "orch/confirmed",
                 "recovery/initializing", "journal/spawn",
                 "recovery/fetching", "recovery/fetched",
                 "recovery/rerouting", "journal/re-steer",
                 "fencing/applied", "recovery/committed"]
        positions = [text.index(marker) for marker in order]
        assert positions == sorted(positions), text
        # The chain is rooted in the leadership that ran it.
        assert "election/elected" in text or "journal/declare-failed" in text

    def test_phase_boundaries_match_timeline_exactly(self, dump):
        text = explain_recovery(dump, 1)
        assert "timeline cross-check: OK" in text, text
        assert "MISMATCH" not in text
        # And the second, crash-during-recovery position too.
        text2 = explain_recovery(dump, 3)
        assert "timeline cross-check: OK" in text2, text2

    def test_crosscheck_rejects_doctored_timestamps(self, dump):
        doctored = json.loads(json.dumps(dump))
        for event in doctored["events"]:
            if event["kind"] == "committed" and event["component"] == "recovery":
                event["t"] += 1e-9
        chain = [e for e in doctored["events"]
                 if e["component"] == "recovery"]
        problems = crosscheck_recovery(doctored, chain)
        assert problems, "1ns skew must break the exact-match cross-check"
        assert "MISMATCH" in explain_recovery(doctored, 1)

    def test_unknown_position_reports_cleanly(self, dump):
        assert "no committed or abandoned recovery" in \
            explain_recovery(dump, 99)


class TestExplainPacketAndEpoch:
    def test_packet_journey_is_linear_and_complete(self, dump):
        pids = sorted({e["pid"] for e in dump["events"]
                       if e.get("pid") is not None
                       and e["component"] == "buffer"
                       and e["kind"] == "release"})
        assert pids, "no released packets in the dump"
        text = explain_packet(dump, pids[0])
        assert "stm/commit" in text
        assert "piggyback/append" in text
        assert "buffer/release" in text

    def test_epoch_story_names_its_election(self, dump):
        epochs = sorted({e["epoch"] for e in dump["events"]
                         if e.get("epoch") is not None})
        assert epochs
        text = explain_epoch(dump, epochs[0])
        assert "won at" in text
        assert "election/campaign" in text

    def test_unknown_epoch_reports_cleanly(self, dump):
        assert "no flight events" in explain_epoch(dump, 999)


class TestDumpProperties:
    def test_same_seed_dumps_are_byte_identical(self, dump):
        again = _crash_during_recovery_dump()
        assert json.dumps(dump, sort_keys=True) == \
            json.dumps(again, sort_keys=True)
        assert explain_recovery(dump, 1) == explain_recovery(again, 1)

    def test_truncated_ring_reports_shed_history(self):
        small = _crash_during_recovery_dump(capacity=64)
        assert small["dropped"] > 0
        text = explain_recovery(small, 1)
        # Either the full chain survived in the tail window or the walk
        # must say exactly where it was cut -- never silently shortened.
        assert ("causal chain truncated" in text
                or "no committed or abandoned recovery" in text
                or "timeline cross-check" in text)

    def test_walk_back_terminates_on_cycles(self, dump):
        refs = [e["ref"] for e in dump["events"]]
        chain, truncated = walk_back(dump, refs[-1])
        assert len(chain) <= len(refs)

    def test_load_dump_rejects_non_dumps(self, tmp_path):
        bogus = tmp_path / "not-a-dump.json"
        bogus.write_text("[1, 2, 3]")
        with pytest.raises(ValueError, match="not a flight dump"):
            load_dump(str(bogus))
