"""The benchmark's open-loop workloads.

Each workload is built only from the program's public constructors
(``FTCChain``, ``TrafficGenerator``, ``WorkloadGenerator``,
``OrchestratorEnsemble``, ``AdmissionControl``, ``chain.net.impair_data``)
and is a pure function of its seed in virtual time: two passes with the
same seed release the same packets at the same virtual instants and end
with the same replicated state.  :func:`run_pass` executes one pass and
returns an :class:`Outcome` holding the virtual-time results, the host
wall times, and the correctness verdicts.

Traffic is sent on a virtual-time schedule that never waits for the
chain (open loop), so a packet's latency is measured from the instant
it was due, and the generator is never late.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

#: Workloads BENCHMARK.json lists (every pass must pass every check).
GATED_WORKLOADS = ("steady-write", "lossy-mixed", "crash-flash")
#: ``lossy-read`` runs but is not gated: it fails the per-flow order
#: check (README.md, "Known failing workload").
WORKLOADS = GATED_WORKLOADS + ("lossy-read",)


@dataclass
class Outcome:
    """Everything one pass measured."""

    workload: str
    seed: int
    offered: int = 0
    released: int = 0
    shed: int = 0
    drops: Dict[str, int] = field(default_factory=dict)
    window_s: float = 0.0
    latencies_us: List[float] = field(default_factory=list)
    recovery_ms: Optional[float] = None
    digest: str = ""
    errors: List[str] = field(default_factory=list)
    #: Host wall clock: monotonic instant the first packet was offered,
    #: and seconds spent running traffic + drain.
    first_offer_at: float = 0.0
    run_wall_s: float = 0.0
    #: Virtual-time and counter figures the per-layer report reads.
    layer: Dict[str, float] = field(default_factory=dict)

    @property
    def unaccounted(self) -> int:
        return self.offered - self.released - self.shed - sum(
            self.drops.values())


class _Probe:
    """Benchmark-side ingress/egress taps: order, duplicates, digest."""

    def __init__(self, sim, outcome: Outcome):
        self.sim = sim
        self.outcome = outcome
        #: pid -> (ingress flow, offer order, virtual offer time)
        self.offers: Dict[int, tuple] = {}
        self._last_seq: Dict[object, int] = {}
        self._released: set = set()
        self._hash = hashlib.sha256()
        #: (offer time, release time) of every release, in release order.
        self.releases: List[tuple] = []

    def ingress(self, sink: Callable) -> Callable:
        def offer(packet):
            if not self.offers:
                self.outcome.first_offer_at = time.monotonic()
            self.offers[packet.pid] = (packet.flow, len(self.offers) + 1,
                                       self.sim.now)
            sink(packet)
        return offer

    def egress(self, packet) -> None:
        now = self.sim.now
        pid = packet.pid
        errors = self.outcome.errors
        if pid in self._released:
            errors.append(f"packet {pid} released twice")
        self._released.add(pid)
        if pid not in self.offers:
            errors.append(f"packet {pid} released, never offered")
            return
        flow, seq, offered_at = self.offers[pid]
        if self._last_seq.get(flow, 0) > seq:
            errors.append(f"packet {pid} released out of order in its flow")
        self._last_seq[flow] = seq
        self.outcome.latencies_us.append((now - offered_at) * 1e6)
        self.releases.append((offered_at, now))
        # Packets are named by offer order, not by pid: pids come from a
        # process-wide counter, so they shift with whatever ran before.
        self._hash.update(f"{seq}@{now!r};".encode())

    def finish(self, chain, generator, window_s: float) -> None:
        """Record the pass's totals; fold final stores into the digest."""
        outcome = self.outcome
        outcome.window_s = window_s
        outcome.offered = generator.sent
        outcome.released = chain.total_released()
        outcome.drops = _chain_drops(chain)
        stats = chain.channel_stats()
        outcome.layer.update({
            "channel.sent": stats.get("sent", 0),
            "channel.retransmissions": stats.get("retransmissions", 0),
            "channel.acks_sent": stats.get("acks_sent", 0),
            "buffer.held_peak": chain.buffer.held_peak,
        })
        for replica in chain.replicas:
            for mbox in sorted(replica.states):
                items = sorted((repr(k), repr(v)) for k, v
                               in replica.states[mbox].store.items())
                self._hash.update(
                    f"p{replica.position}/{mbox}:{items!r};".encode())
        outcome.digest = self._hash.hexdigest()


def _timed_run(sim, outcome: Outcome, until: float) -> None:
    t0 = time.perf_counter()
    sim.run(until=until)
    outcome.run_wall_s += time.perf_counter() - t0


def _chain_drops(chain) -> Dict[str, int]:
    """Packet-fate counters the program exposes publicly."""
    net = chain.net
    drops = {
        "nic.rx_dropped": sum(s.nic.rx_dropped for s in net.servers.values()),
        "net.dropped_to_failed": net.dropped_to_failed,
        "buffer.overflow_dropped": chain.buffer.overflow_dropped,
        "buffer_packets_lost": chain.buffer_packets_lost,
        "classifier_drops": chain.classifier_drops,
    }
    if not chain.reliable_links:
        # Raw links lose what they drop; under reliable links a dropped
        # frame is retransmitted, so it is not a packet fate.
        drops["link.impair_dropped"] = net.data_impairment_stats()["dropped"]
    return drops


# -- steady-write ------------------------------------------------------------

#: Ch-3 Monitors, f=1: both threads of a Monitor share one counter, so
#: every packet writes it and each hop carries one piggyback log.  The
#: chain's latency starts to grow near 3 Mpps.
STEADY_RATE_PPS = 1e6
STEADY_WINDOW_S = 3e-3
STEADY_RUNWAY_S = 5e-3


def _steady_write(seed: int, outcome: Outcome) -> None:
    from repro.core import FTCChain
    from repro.middlebox import ch_n
    from repro.net import TrafficGenerator, balanced_flows
    from repro.net.packet import format_ip, ip
    from repro.sim import Simulator

    sim = Simulator()
    probe = _Probe(sim, outcome)
    chain = FTCChain(sim, ch_n(3, sharing_level=2, n_threads=2), f=1,
                     deliver=probe.egress, n_threads=2, seed=seed)
    chain.start()
    base = format_ip(ip("10.1.0.0") + (seed % 251) * 65536)
    generator = TrafficGenerator(
        sim, probe.ingress(chain.ingress), rate_pps=STEADY_RATE_PPS,
        flows=balanced_flows(8, 2, base_src=base))
    _timed_run(sim, outcome, STEADY_WINDOW_S)
    generator.stop()
    _timed_run(sim, outcome, STEADY_WINDOW_S + STEADY_RUNWAY_S)
    probe.finish(chain, generator, STEADY_WINDOW_S)


# -- lossy-mixed and lossy-read ---------------------------------------------

LOSSY_RATE_PPS = 8e4
LOSSY_WINDOW_S = 40e-3
LOSSY_RUNWAY_S = 30e-3
LOSSY_FLOWS = 4096
LOSSY_IMPAIRMENT = dict(drop_rate=0.02, dup_rate=0.01, reorder_rate=0.01,
                        corrupt_rate=0.005)


def _lossy_mixed(seed: int, outcome: Outcome) -> None:
    from repro.middlebox import Firewall, SimpleNAT, StatefulFirewall
    # The stateful firewall sees NAT-translated flows, so their external
    # source prefix is its protected side.
    _lossy(seed, outcome, [Firewall("firewall"), SimpleNAT("simplenat"),
                           StatefulFirewall("sfw",
                                            internal_prefix="203.0.113.")])


def _lossy_read(seed: int, outcome: Outcome) -> None:
    from repro.middlebox import Firewall, SimpleNAT, StatefulFirewall
    _lossy(seed, outcome, [Firewall("firewall"), StatefulFirewall("sfw"),
                           SimpleNAT("simplenat")])


def _lossy(seed: int, outcome: Outcome, middleboxes) -> None:
    from repro.core import FTCChain
    from repro.net import WorkloadGenerator, WorkloadSpec
    from repro.sim import RandomStreams, Simulator

    sim = Simulator()
    probe = _Probe(sim, outcome)
    chain = FTCChain(sim, middleboxes, f=1, deliver=probe.egress,
                     n_threads=2, seed=seed, reliable_links=True)
    chain.start()
    chain.net.impair_data(seed=seed, **LOSSY_IMPAIRMENT)
    spec = WorkloadSpec(base_pps=LOSSY_RATE_PPS, pareto_alpha=1.0,
                        n_flows=LOSSY_FLOWS, n_classes=1, arrivals="poisson")
    generator = WorkloadGenerator(sim, probe.ingress(chain.ingress), spec,
                                  n_queues=2, streams=RandomStreams(seed))
    _timed_run(sim, outcome, LOSSY_WINDOW_S)
    generator.stop()
    # Heal the wire for the drain so retransmission tails converge.
    chain.net.clear_data_impairment()
    _timed_run(sim, outcome, LOSSY_WINDOW_S + LOSSY_RUNWAY_S)
    probe.finish(chain, generator, LOSSY_WINDOW_S)


# -- crash-flash -------------------------------------------------------------

FLASH_BASE_PPS = 1e5
FLASH_ADMIT_PPS = 6e4
FLASH_WINDOW_S = 40e-3
FLASH_AT_S = 10e-3
FLASH_LEN_S = 20e-3
FLASH_MULT = 4.0
FLASH_FAIL_AT_S = 15e-3
FLASH_RUNWAY_S = 50e-3


def _crash_flash(seed: int, outcome: Outcome) -> None:
    from repro.core import FTCChain
    from repro.core.admission import AdmissionControl, BackpressureBus
    from repro.middlebox import ch_n
    from repro.net import FlashCrowd, WorkloadGenerator, WorkloadSpec
    from repro.orchestration import ElectionConfig, OrchestratorEnsemble
    from repro.sim import RandomStreams, Simulator

    sim = Simulator()
    probe = _Probe(sim, outcome)
    admission = AdmissionControl(sim, rate_pps=FLASH_ADMIT_PPS,
                                 bus=BackpressureBus())
    chain = FTCChain(sim, ch_n(3, n_threads=2), f=1, deliver=probe.egress,
                     n_threads=2, seed=seed, admission=admission)
    chain.start()
    ensemble = OrchestratorEnsemble(
        sim, chain, n=3, election=ElectionConfig(
            lease_s=6e-3, renew_every_s=2e-3, candidacy_base_s=2e-3))
    ensemble.start()
    spec = WorkloadSpec(
        base_pps=FLASH_BASE_PPS, pareto_alpha=1.2, n_flows=256, n_classes=3,
        flashes=(FlashCrowd(at_s=FLASH_AT_S, duration_s=FLASH_LEN_S,
                            multiplier=FLASH_MULT),))
    generator = WorkloadGenerator(sim, probe.ingress(chain.ingress), spec,
                                  n_queues=2, streams=RandomStreams(seed))
    sim.schedule_callback(FLASH_FAIL_AT_S, lambda: chain.fail_position(1))
    _timed_run(sim, outcome, FLASH_WINDOW_S)
    generator.stop()
    _timed_run(sim, outcome, FLASH_WINDOW_S + FLASH_RUNWAY_S)
    ensemble.stop()
    outcome.shed = admission.shed
    # Outage: fail-stop to the first release of a packet offered after it.
    served = [released for offered, released in probe.releases
              if offered >= FLASH_FAIL_AT_S]
    if served:
        outcome.recovery_ms = (min(served) - FLASH_FAIL_AT_S) * 1e3
    history = ensemble.history
    outcome.layer.update({
        "admission.offered": admission.offered,
        "admission.shed": admission.shed,
        "ensemble.heartbeats_sent": ensemble.heartbeats_sent,
        "ensemble.control_retries": ensemble.control_retries,
        "ensemble.detect_s": sum(e.detection_delay_s for e in history),
        "ensemble.recover_s": sum(e.report.total_s for e in history
                                  if e.report is not None),
    })
    probe.finish(chain, generator, FLASH_WINDOW_S)


_RUNNERS = {
    "steady-write": _steady_write,
    "lossy-read": _lossy_read,
    "lossy-mixed": _lossy_mixed,
    "crash-flash": _crash_flash,
}


def run_pass(workload: str, seed: int) -> Outcome:
    """Build and run one pass of ``workload``; failed checks land in errors."""
    outcome = Outcome(workload=workload, seed=seed)
    _RUNNERS[workload](seed, outcome)
    return outcome
