"""Chrome trace coverage for the control plane (satellite of §10).

A run under a replicated orchestrator ensemble must emit trace_event
spans for elections (async ``lead:mN`` spans), journal quorum writes,
and fenced commands on the dedicated control-plane track (tid 9998),
and the whole export must pass :func:`validate_chrome_trace`.
"""

import json

from repro.scenario import CTRLPLANE_ELECTION, SOAK_COSTS
from repro.core import FTCChain
from repro.middlebox import ch_n
from repro.net import TrafficGenerator, balanced_flows
from repro.orchestration import OrchestratorEnsemble
from repro.sim import Simulator
from repro.telemetry import Telemetry, validate_chrome_trace

CTRL_TID = 9998


def _ctrlplane_run(seed=4):
    sim = Simulator()
    telemetry = Telemetry()
    chain = FTCChain(sim, ch_n(3, n_threads=2), f=1,
                     deliver=lambda packet: None, costs=SOAK_COSTS,
                     n_threads=2, seed=seed, telemetry=telemetry)
    chain.start()
    ensemble = OrchestratorEnsemble(sim, chain, n=3,
                                    election=CTRLPLANE_ELECTION,
                                    heartbeat_interval_s=1e-3)
    ensemble.start()
    generator = TrafficGenerator(sim, chain.ingress, rate_pps=2e4,
                                 flows=balanced_flows(8, 2))
    sim.schedule_callback(15e-3, lambda: chain.fail_position(1))
    sim.run(until=50e-3)
    generator.stop()
    sim.run(until=80e-3)
    ensemble.stop()
    assert any(event.recovered for event in ensemble.history)
    return telemetry, ensemble


class TestCtrlplaneTrace:
    def test_export_validates_and_covers_the_control_plane(self, tmp_path):
        telemetry, ensemble = _ctrlplane_run()
        path = tmp_path / "trace.json"
        telemetry.export_chrome(str(path))
        trace = json.loads(path.read_text())
        assert validate_chrome_trace(trace) == []
        events = trace["traceEvents"]
        ctrl = [e for e in events if e.get("tid") == CTRL_TID]
        assert ctrl, "no control-plane events on tid 9998"
        # Leadership renders as an async span named for the winner.
        lead = [e for e in ctrl if e.get("name", "").startswith("lead:m")]
        assert any(e["ph"] == "b" for e in lead)
        # Journal quorum writes appear per step kind.
        journal = {e["name"] for e in ctrl
                   if e.get("name", "").startswith("journal:")}
        assert "journal:declare-failed" in journal
        assert "journal:re-steer" in journal
        # The control-plane track is labeled.
        names = [e for e in events
                 if e.get("ph") == "M" and e.get("tid") == CTRL_TID]
        assert any(e["args"]["name"] == "control-plane" for e in names)

    def test_quorum_write_counter_matches_journal(self):
        telemetry, ensemble = _ctrlplane_run()
        rows = {name: value
                for name, _, value, *_ in telemetry.registry.rows()}
        assert rows["ensemble/journal_quorum_writes"] >= 3  # declare/spawn/steer
        assert rows["election/rounds"] >= 1
        assert rows["election/lease_renewals"] >= 1
        assert rows["ensemble/journal_quorum_writes"] <= \
            rows["ensemble/journal_appends"]
