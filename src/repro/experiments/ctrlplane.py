"""Control-plane failover: recovery delay under orchestrator faults.

Figure-13-style companion table for the replicated control plane
(PROTOCOL.md §9).  A Ch-3 chain loses its middle middlebox at a fixed
instant while the orchestrator ensemble itself is attacked:

* **baseline** -- healthy 3-member ensemble, no control-plane fault;
* **leader-crash (pre-detect)** -- the leader crashes 1 ms after the
  data-plane failure, before its monitor confirms it; the next leader
  must detect and recover from scratch.
* **leader-crash (mid-recovery)** -- the leader crashes while the
  recovery it is driving sits in the fetching phase; the successor
  replays the journal and resumes the same recovery.
* **leader-partition (mid-recovery)** -- as above, but the leader is
  partitioned from every peer instead of crashing; its lease expires,
  a successor takes over, and the stale leader's later commands are
  fenced by the epoch gate.

Columns decompose the failover: detection delay (failure -> confirmed),
election delay (control-plane fault -> next leader-elected), resume
delay (leader-elected -> recovery committed), and the end-to-end total
(failure -> committed).  The paper measures only the baseline column
(§7.5); the others quantify the added cost of losing the orchestrator
at the worst possible moments.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..core import FTCChain
from ..metrics import EgressRecorder, confidence_interval95
from ..middlebox import ch_n
from ..net import TrafficGenerator, balanced_flows
from ..orchestration import CloudNetwork, OrchestratorEnsemble, place_chain
from ..scenario import CTRLPLANE_ELECTION, SOAK_COSTS
from ..sim import Simulator
from ..telemetry import Telemetry
from .runner import ExperimentResult, quick_mode

#: The chain failure every scenario injects (middle of Ch-3).
FAIL_POSITION = 1
T_FAIL = 20e-3

SCENARIOS = ("baseline", "leader-crash (pre-detect)",
             "leader-crash (mid-recovery)",
             "leader-partition (mid-recovery)")


def _first(telemetry: Telemetry, kind: str,
           after: float = 0.0) -> Optional[float]:
    for event in telemetry.timeline.events:
        if event.kind == kind and event.t >= after:
            return event.t
    return None


def _one_trial(scenario: str, seed: int) -> Dict[str, float]:
    sim = Simulator()
    net = CloudNetwork(sim, hop_delay_s=SOAK_COSTS.hop_delay_s,
                       bandwidth_bps=SOAK_COSTS.bandwidth_bps,
                       rtt_jitter_frac=0.0, seed=seed)
    egress = EgressRecorder(sim)
    telemetry = Telemetry(max_trace_events=0)
    chain = FTCChain(sim, ch_n(3, n_threads=2), f=1, deliver=egress,
                     costs=SOAK_COSTS, net=net, n_threads=2, seed=seed,
                     telemetry=telemetry)
    place_chain(chain, ["core", "core", "core"])
    chain.start()
    ensemble = OrchestratorEnsemble(sim, chain, n=3,
                                    election=CTRLPLANE_ELECTION,
                                    heartbeat_interval_s=1e-3, region="core")
    ensemble.start()
    TrafficGenerator(sim, chain.ingress, rate_pps=2e4,
                     flows=balanced_flows(8, 2))

    state: Dict[str, float] = {}

    def fault_leader(action):
        leader = ensemble.leader
        if leader is None:  # mid-election; the scenario still measures
            return
        state["orch_fault_at"] = sim.now
        action(leader)

    def crash(leader):
        leader.crash()
        sim.schedule_callback(30e-3, leader.restart)

    def partition(leader):
        others = [name for name in net.servers
                  if name != leader.server_name]
        token = net.partition([leader.server_name], others)
        sim.schedule_callback(15e-3, lambda: net.heal(token))

    def on_phase(phase: str, positions: List[int]) -> None:
        if phase != "fetching" or "orch_fault_at" in state:
            return
        if scenario == "leader-crash (mid-recovery)":
            fault_leader(crash)
        elif scenario == "leader-partition (mid-recovery)":
            fault_leader(partition)

    if scenario.endswith("(mid-recovery)"):
        ensemble.recovery_hooks.append(on_phase)
    elif scenario == "leader-crash (pre-detect)":
        sim.schedule_callback(T_FAIL + 1e-3, lambda: fault_leader(crash))

    sim.schedule_callback(T_FAIL, lambda: chain.fail_position(FAIL_POSITION))
    sim.run(until=0.2)

    confirmed = _first(telemetry, "confirmed", after=T_FAIL)
    committed = _first(telemetry, "committed", after=T_FAIL)
    if confirmed is None or committed is None:
        raise AssertionError(
            f"{scenario} seed={seed}: recovery did not complete "
            f"(confirmed={confirmed}, committed={committed})")
    result = {
        "detect": confirmed - T_FAIL,
        "elect": 0.0,
        "total": committed - T_FAIL,
        "epochs": float(len(ensemble.election_log)),
        "fenced": float(ensemble.gate.fenced_commands),
    }
    resume_from = confirmed
    if scenario != "baseline":
        fault_at = state.get("orch_fault_at")
        if fault_at is None:
            raise AssertionError(
                f"{scenario} seed={seed}: control-plane fault never fired")
        elected = _first(telemetry, "leader-elected", after=fault_at)
        if elected is None:
            raise AssertionError(
                f"{scenario} seed={seed}: no successor elected")
        result["elect"] = elected - fault_at
        resume_from = max(resume_from, elected)
    result["resume"] = max(0.0, committed - resume_from)
    return result


def run(trials: int = None) -> ExperimentResult:
    if trials is None:
        trials = 2 if quick_mode() else 5
    result = ExperimentResult(
        experiment="Control-plane failover: Ch-3 recovery under "
                   "orchestrator faults (3-member ensemble)",
        headers=["Scenario", "Detect (ms)", "Elect (ms)", "Resume (ms)",
                 "Total (ms)", "Epochs", "Fenced"])
    for scenario in SCENARIOS:
        samples = [_one_trial(scenario, seed) for seed in range(trials)]
        detect_ms, _ = confidence_interval95(
            [s["detect"] * 1e3 for s in samples])
        elect_ms, _ = confidence_interval95(
            [s["elect"] * 1e3 for s in samples])
        resume_ms, _ = confidence_interval95(
            [s["resume"] * 1e3 for s in samples])
        total_ms, total_hw = confidence_interval95(
            [s["total"] * 1e3 for s in samples])
        epochs = sum(s["epochs"] for s in samples) / len(samples)
        fenced = sum(s["fenced"] for s in samples) / len(samples)
        result.add(scenario, f"{detect_ms:.1f}",
                   "-" if scenario == "baseline" else f"{elect_ms:.1f}",
                   f"{resume_ms:.1f}", f"{total_ms:.1f} +/- {total_hw:.1f}",
                   f"{epochs:.1f}", f"{fenced:.1f}")
    result.notes.append(
        "Elect spans control-plane fault -> successor's leader-elected "
        "event; Resume spans max(confirmed, elected) -> recovery "
        "committed.  Mid-recovery scenarios resume from the replicated "
        "command journal rather than restarting detection.")
    result.notes.append(
        "The partition scenario leaves the old leader running; its "
        "post-partition commands die before taking effect -- the "
        "quorum-less journal append aborts them, and any that reach "
        "the chain under a superseded epoch land in the Fenced column.")
    return result


def main() -> None:
    print(run().render())


if __name__ == "__main__":
    main()
