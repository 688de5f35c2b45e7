"""The scenario benchmark suite (PROTOCOL.md §13.2).

Each scenario is a :class:`~repro.scenario.Scenario` run by
:func:`repro.scenario.run` without oracle or auditor: a fixed-seed
workload through a scripted timeline, reporting what was offered and
released.  The scenarios cover the regimes where per-packet cost
differs structurally:

==================== =====================================================
baseline             raw links, no overload machinery (the fig5 fast path)
reliable-links       per-hop ReliableChannel framing/ACK (§8), clean wire
lossy                reliable links over impaired wire: retransmit path
ctrlplane-failover   3-member ensemble recovers a mid-chain crash (§9)
reconfig-under-traffic  live rescale of a mid-chain position (§11)
overload             flash crowd through admission + backpressure (§12)
==================== =====================================================

Every scenario accepts a ``profiler``; when given, it is installed on
both the simulator (``engine/dispatch``) and the chain's telemetry
bundle (every other stage), so per-stage costs attribute to the same
run that produced the headline.  Wall time is measured by the caller
(:mod:`.bench`) around :func:`run_scenario`.

Determinism: for a given (scenario, seed, quick) the virtual-time
outcome -- offered, released, and per-stage *call counts* -- is exactly
reproducible; only wall seconds vary run to run.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, Dict, Tuple

from ..chaos.plan import FaultPlan
from ..core.costs import DEFAULT_COSTS
from ..core.reconfig import ReconfigOp
from ..net import FlashCrowd, WorkloadSpec
from ..scenario import Scenario, run

__all__ = ["SCENARIOS", "run_scenario", "scenario_names"]

#: Offered rate for the data-plane scenarios (pps).
RATE_PPS = 2e5

#: Virtual run length: traffic window + drain runway, full vs --quick.
DURATION_S = 30e-3
QUICK_DURATION_S = 10e-3

#: Every bench scenario: Ch-2, f=1 on the jittered default costs, no
#: control plane, no faults, and a bare egress recorder (no oracle, no
#: auditor) so wall time measures the chain.
BENCH = Scenario(chain_length=2, costs=DEFAULT_COSTS, rate_pps=RATE_PPS,
                 max_faults=None, orchestrators=0, audit=False,
                 runway_s=5e-3)

def _bench(duration: float, **fields) -> Scenario:
    return replace(BENCH, duration_s=duration, **fields)


def _config(duration: float, chain: str = "ch2",
            rate_pps: float = RATE_PPS, **extra) -> Dict:
    return {"chain": chain, "f": 1, "rate_pps": rate_pps,
            "duration_s": duration, **extra}


#: name -> duration -> (scenario, its BENCH ``config`` block).
SCENARIOS: Dict[str, Callable[[float], Tuple[Scenario, Dict]]] = {
    "baseline": lambda d: (_bench(d), _config(d)),
    "reliable-links": lambda d: (
        _bench(d, reliable_links=True),
        _config(d, reliable_links=True)),
    # Heal before the runway so retransmission tails converge.
    "lossy": lambda d: (
        _bench(d, rate_pps=RATE_PPS / 2, reliable_links=True,
               impair_data=(0.02, 0.01, 0.01, 0.005), heal=True,
               runway_s=30e-3),
        _config(d, rate_pps=RATE_PPS / 2, reliable_links=True,
                impairment="drop=0.02,dup=0.01,reorder=0.01,"
                           "corrupt=0.005")),
    # Recovery runway: detection + election-held lease + respawn.
    "ctrlplane-failover": lambda d: (
        _bench(d, chain_length=3, rate_pps=5e4, orchestrators=3,
               heartbeat_interval_s=2e-3, runway_s=50e-3,
               plan=FaultPlan().crash(position=1, at_s=d * 0.4)),
        _config(d, chain="ch3", rate_pps=5e4, orchestrators=3,
                fail_position=1, t_fail_s=d * 0.4)),
    "reconfig-under-traffic": lambda d: (
        _bench(d, chain_length=3, rate_pps=RATE_PPS / 2,
               reliable_links=True, runway_s=30e-3,
               ops=((0.4, ReconfigOp(kind="rescale", position=1,
                                     n_threads=4)),)),
        _config(d, chain="ch3", rate_pps=RATE_PPS / 2, reliable_links=True,
                op="rescale@1->4threads")),
    "overload": lambda d: (
        _bench(d, admission_pps=1e5 * 0.6, runway_s=10e-3,
               workload=WorkloadSpec(
                   base_pps=1e5, n_flows=64, n_classes=3,
                   flashes=(FlashCrowd(at_s=d * 0.3, duration_s=d * 0.3,
                                       multiplier=4.0),))),
        {"chain": "ch2", "f": 1, "base_pps": 1e5, "duration_s": d,
         "flash_multiplier": 4.0, "admission_pps": 1e5 * 0.6}),
}


def scenario_names():
    return list(SCENARIOS)


def _new_telemetry(profiler, telemetry=None):
    """A metrics-only bundle carrying the profiler to every component.

    An externally built bundle (``repro perf profile`` passes one with
    a live tracer) wins; otherwise profiling runs get a trace-less
    Telemetry and unprofiled runs stay on NULL_TELEMETRY.
    """
    if telemetry is not None:
        return telemetry
    from ..telemetry import NULL_TELEMETRY, Telemetry
    if profiler is None:
        return NULL_TELEMETRY
    return Telemetry(max_trace_events=0, profiler=profiler)


def run_scenario(name: str, seed: int = 0, quick: bool = False,
                 profiler=None, telemetry=None, on_chain=None) -> Dict:
    """Run one scenario; returns its result dict (no wall timing here).

    ``telemetry`` overrides the scenario's internal bundle (e.g. to
    capture a Chrome trace); ``on_chain(sim, chain)`` fires after the
    chain starts (e.g. to attach a :class:`~.counters.CounterSampler`).
    """
    try:
        build = SCENARIOS[name]
    except KeyError:
        raise ValueError(
            f"unknown scenario {name!r}; choose from {', '.join(SCENARIOS)}")
    scenario, config = build(QUICK_DURATION_S if quick else DURATION_S)
    chains = []

    def capture(sim, chain):
        chains.append(chain)
        if on_chain is not None:
            on_chain(sim, chain)

    outcome = run(replace(scenario, seed=seed),
                  telemetry=_new_telemetry(profiler, telemetry),
                  profiler=profiler, on_chain=capture)
    result = {
        "config": config,
        "offered": outcome.sent,
        "released": outcome.released,
        "buffer_held_peak": chains[0].buffer.held_peak,
    }
    if scenario.impair_data is not None:
        result["retransmissions"] = outcome.retransmissions
    if scenario.orchestrators:
        result["recoveries"] = outcome.failures_detected
    if scenario.ops:
        result["reconfig_committed"] = outcome.reconfigs_committed > 0
    if scenario.admission_pps is not None:
        result["admitted"] = outcome.admitted
        result["shed"] = outcome.shed
    return result
