"""Chaos soak: randomized fault schedules + invariant auditing.

One *schedule* is one audited :class:`~repro.scenario.Scenario`: a
fresh Ch-n chain under FTC runs traffic while faults land (the
randomized :class:`ChaosMonkey`, or a scripted plan), the §4/§5
invariants are audited periodically and once more at the end, and
every violation is reported.  The presets below turn the plain
schedule into the data-plane, control-plane, reconfiguration and
overload soaks.  A *soak* sweeps many schedules over (chain length, f)
combinations, each derived deterministically from the base seed -- a
red schedule is reproduced bit-for-bit by ``python -m repro chaos
--seed N``.
"""

from __future__ import annotations

import os

from dataclasses import dataclass, field, replace
from typing import List, Optional, Sequence, Tuple

from ..core.reconfig import ClassifierRule, ClassifierSet, ReconfigOp
from ..flight import FlightRecorder
from ..middlebox.monitor import Monitor
from ..net.flowgen import FlashCrowd, WorkloadSpec
from ..scenario import (CTRLPLANE_ELECTION, OVERLOAD_COSTS, OverloadSpec,
                        Scenario, ScheduleResult, run)
from ..sim import RandomStreams
from ..telemetry import MetricRegistry, Telemetry
from .auditor import InvariantViolation
from .plan import FaultPlan

__all__ = ["SoakConfig", "SoakResult", "run_soak", "impaired_schedule",
           "ctrlplane_schedule", "reconfig_schedule", "overload_schedule"]


def impaired_schedule(base: Scenario, drop_rate: float = 0.05,
                      dup_rate: float = 0.02, reorder_rate: float = 0.02,
                      corrupt_rate: float = 0.01) -> Scenario:
    """Data-plane adversity (PROTOCOL.md §8).

    Reliable hop channels run under a scripted impairment window
    covering the middle 80% of the schedule: chain links drop,
    duplicate, reorder and corrupt packets while the end-to-end
    contract is audited -- exactly-once per-flow-ordered egress, zero
    loss after drain, and *no failover* (a lossy link must read as a
    lossy link, not as a dead replica).
    """
    duration = base.duration_s
    plan = FaultPlan().impair_data(
        at_s=duration * 0.1, drop_rate=drop_rate, dup_rate=dup_rate,
        reorder_rate=reorder_rate, corrupt_rate=corrupt_rate,
        duration_s=duration * 0.8)
    # Retransmission tails need more drain runway than clean schedules
    # (RTO backoff caps at 2ms); the impairment window already closed
    # at 0.9 * duration, so by then every loss is recoverable.
    return replace(base, reliable_links=True, corroborate=True,
                   max_faults=None, plan=plan,
                   runway_s=40 * base.heartbeat_interval_s)


def ctrlplane_schedule(base: Scenario, orchestrators: int = 3,
                       orch_faults: bool = True) -> Scenario:
    """Control-plane chaos (PROTOCOL.md §9).

    A replicated orchestrator ensemble monitors the chain while the
    monkey mixes chain crashes with ensemble-member crashes, one-member
    partitions, and leader freezes (stale resumes).  On top of the
    §4/§5 data-plane invariants the auditor proves election safety --
    at most one valid lease, one leader per epoch, no double recovery
    -- and every chain failure must be failed over despite the churn.
    Open cuts heal before the drain, which must outlast a full lease +
    candidacy + recovery cycle.
    """
    return replace(base, orchestrators=orchestrators,
                   orch_faults=orch_faults, heal=True,
                   runway_s=max(40 * base.heartbeat_interval_s,
                                CTRLPLANE_ELECTION.lease_s * 5 + 20e-3))


def reconfig_schedule(base: Scenario, crashes: bool = False,
                      orchestrators: int = 1, drop_rate: float = 0.02,
                      dup_rate: float = 0.01, reorder_rate: float = 0.01,
                      corrupt_rate: float = 0.005) -> Scenario:
    """Live reconfiguration (PROTOCOL.md §11), at least 80 ms long.

    Reliable hop channels run under a data-plane impairment window
    while a scripted sequence fires: a classifier update, a vertical
    rescale, an instance migration, a middlebox insert, and its
    removal.  Audited throughout: every §4/§5 invariant, exactly-once
    per-flow-ordered egress, per-flow config-version monotonicity, zero
    loss, and no spurious failover -- a drain + hold must read as a
    brief delay, never as a dead replica.

    ``crashes=True`` crashes a position mid-reconfiguration instead:
    zero loss and no failover are waived (a crash loses in-flight
    packets by definition) but every invariant must still hold and
    every confirmed failure must be failed over.  ``orchestrators > 1``
    drives the operations through a replicated ensemble and kills the
    leader mid-switch -- the successor must resume or close the
    journaled operation, still without loss.
    """
    duration = max(base.duration_s, 80e-3)
    plan = FaultPlan().impair_data(
        at_s=duration * 0.1, drop_rate=drop_rate, dup_rate=dup_rate,
        reorder_rate=reorder_rate, corrupt_rate=corrupt_rate,
        duration_s=duration * 0.7)
    if crashes:
        plan.crash_during_reconfig(phase="draining", at_s=0.0)
    if orchestrators > 1:
        plan.leader_failover_mid_switch(at_s=0.0)
    # The scripted operation sequence, deterministic in the seed.
    rng = RandomStreams(base.seed).stream("reconfig-soak")
    n_positions = max(base.chain_length, base.f + 1)
    rescale_pos = rng.randrange(n_positions)
    migrate_pos = rng.randrange(n_positions)
    ops = (
        (0.20, ReconfigOp(kind="classifier", classifier=ClassifierSet(
            version=1, rules=(ClassifierRule(action="allow"),)))),
        (0.34, ReconfigOp(kind="rescale", position=rescale_pos,
                          n_threads=3)),
        (0.48, ReconfigOp(kind="migrate", position=migrate_pos)),
        (0.60, ReconfigOp(kind="insert", index=1,
                          middlebox=Monitor(name="soak-probe"))),
        (0.74, ReconfigOp(kind="remove", middlebox_name="soak-probe")),
    )
    # Drain runway: retransmission tails, held packets releasing at
    # line rate, any resumed reconfiguration after a leader failover.
    return replace(base, duration_s=duration, reliable_links=True,
                   corroborate=True, max_faults=None, plan=plan,
                   orchestrators=orchestrators, ops=ops, heal=True,
                   runway_s=max(60 * base.heartbeat_interval_s,
                                CTRLPLANE_ELECTION.lease_s * 5 + 40e-3))


def overload_schedule(base: Scenario,
                      spec: Optional[OverloadSpec] = None) -> Scenario:
    """Flash-crowd overload (PROTOCOL.md §12), at least 120 ms long.

    A heavy-tailed prioritized workload whose scripted flash crowd
    exceeds sustainable capacity by ``spec.peak_factor`` (default 4.8x)
    meets the full overload stack: priority admission at the ingress
    against a backpressure bus spanning every bounded queue, and an
    SLO watchdog on windowed p99 latency driving brownout.  The
    auditor proves the §12 invariants throughout (zero in-chain drops,
    queues within bounds, shed conservation and ordering, brownout
    journal 1:1); goodput must stay above the floor, every admitted
    packet egresses exactly once, and brownout has fully exited at
    quiescence.

    ``spec.crash=True`` crashes a deterministic position mid-flash
    (admitted == released is waived; invariants are not).
    ``spec.orchestrators > 1`` journals every brownout transition
    through a leader-elected ensemble's write-ahead quorum journal.
    """
    spec = spec or OverloadSpec()
    duration = max(base.duration_s, 120e-3)
    flash = FlashCrowd(at_s=duration * spec.flash_start_frac,
                       duration_s=duration * spec.flash_duration_frac,
                       multiplier=spec.flash_factor)
    plan = None
    if spec.crash:
        rng = RandomStreams(base.seed).stream("overload-soak")
        plan = FaultPlan().crash(
            position=rng.randrange(max(base.chain_length, base.f + 1)),
            at_s=flash.at_s + flash.duration_s / 2)
    # Drain runway: held packets release, queues empty, the windowed
    # p99 probe goes quiet, and brownout walks its de-escalation ladder
    # (4 clean ticks per level at the coarsened sampling interval).
    return replace(
        base, duration_s=duration, costs=OVERLOAD_COSTS, max_faults=None,
        plan=plan, orchestrators=spec.orchestrators,
        workload=WorkloadSpec(base_pps=spec.base_frac * spec.sustainable_pps,
                              flashes=(flash,), n_flows=32, n_classes=3),
        admission_pps=spec.budget_frac * spec.sustainable_pps,
        p99_limit_us=spec.p99_limit_us,
        goodput_floor_pps=spec.goodput_floor_frac * spec.sustainable_pps,
        runway_s=160e-3)


@dataclass
class SoakConfig:
    """Sweep parameters for :func:`run_soak`."""

    seed: int = 0
    schedules: int = 50
    faults_per_schedule: int = 3
    chain_lengths: Sequence[int] = (2, 3, 4, 5)
    f_values: Sequence[int] = (1, 2)
    duration_s: float = 60e-3
    rate_pps: float = 2e4
    heartbeat_interval_s: float = 1e-3
    mean_fault_interval_s: float = 8e-3
    #: Collect per-schedule recovery timelines and an aggregate metric
    #: registry (purely observational; schedules stay bit-identical).
    telemetry: bool = False
    #: Data-plane impairment rates ``(drop, dup, reorder, corrupt)``:
    #: run :func:`impaired_schedule` (PROTOCOL.md §8).
    impair_data: Optional[Tuple[float, float, float, float]] = None
    #: Orchestrator replicas; ``> 1`` runs :func:`ctrlplane_schedule`
    #: (PROTOCOL.md §9).
    orchestrators: int = 1
    #: With ``orchestrators > 1``: also let the monkey crash, partition,
    #: and pause ensemble members (the ``orch-*`` fault kinds).
    orch_faults: bool = False
    #: Run :func:`reconfig_schedule` (PROTOCOL.md §11), with
    #: ``reconfig_crashes`` crashing positions mid-reconfiguration.
    reconfig: bool = False
    reconfig_crashes: bool = False
    #: Record a causal flight log per schedule (implies telemetry for
    #: that schedule); an invariant violation auto-dumps it to
    #: ``flight_dump_dir/flight-<index>.json`` for ``repro explain``.
    flight: bool = False
    flight_dump_dir: str = "flight-dumps"
    #: Run :func:`overload_schedule` (PROTOCOL.md §12).
    overload: Optional[OverloadSpec] = None

    def scenario(self, index: int, chain_length: int, f: int) -> Scenario:
        """Schedule ``index`` of this soak: its mode's preset over the
        plain schedule (overload, reconfig, impaired data, ensemble)."""
        hb = self.heartbeat_interval_s
        base = Scenario(
            seed=self.seed * 10_000 + index, index=index,
            chain_length=chain_length, f=f, rate_pps=self.rate_pps,
            max_faults=self.faults_per_schedule,
            mean_fault_interval_s=self.mean_fault_interval_s,
            heartbeat_interval_s=hb, duration_s=self.duration_s,
            runway_s=20 * hb)
        if self.overload is not None:
            return overload_schedule(base, self.overload)
        if self.reconfig:
            return reconfig_schedule(base, crashes=self.reconfig_crashes,
                                     orchestrators=self.orchestrators)
        if self.impair_data is not None:
            return impaired_schedule(base, *self.impair_data)
        if self.orchestrators > 1:
            return ctrlplane_schedule(base, self.orchestrators,
                                      self.orch_faults)
        return base


@dataclass
class SoakResult:
    """Aggregate outcome of a soak run."""

    config: SoakConfig
    schedules: List[ScheduleResult] = field(default_factory=list)
    #: Metric registry merged across schedules (telemetry runs only).
    registry: Optional[MetricRegistry] = None

    @property
    def violations(self) -> List[InvariantViolation]:
        return [v for s in self.schedules for v in s.violations]

    @property
    def faults_injected(self) -> int:
        return sum(len(s.faults) for s in self.schedules)

    @property
    def ok(self) -> bool:
        return all(s.ok for s in self.schedules)

    def summary(self) -> str:
        lines = [
            f"chaos soak: {len(self.schedules)} schedules, "
            f"{self.faults_injected} faults injected, "
            f"{sum(s.failures_detected for s in self.schedules)} failures "
            f"detected, {sum(s.recoveries for s in self.schedules)} "
            f"recoveries, {len(self.violations)} invariant violations",
        ]
        reconfigs = sum(s.reconfigs_committed for s in self.schedules)
        if reconfigs or any(s.reconfigs_aborted for s in self.schedules):
            lines.append(
                f"  reconfigurations: {reconfigs} committed, "
                f"{sum(s.reconfigs_aborted for s in self.schedules)} "
                f"aborted")
        shed = sum(s.shed for s in self.schedules)
        if shed or any(s.offered for s in self.schedules):
            lines.append(
                f"  overload: {sum(s.offered for s in self.schedules)} "
                f"offered, {sum(s.admitted for s in self.schedules)} "
                f"admitted, {shed} shed at ingress, "
                f"{sum(s.brownout_transitions for s in self.schedules)} "
                f"brownout transitions")
        elections = sum(s.elections for s in self.schedules)
        if elections:
            lines.append(
                f"  control plane: {elections} elections, "
                f"{sum(s.fenced_commands for s in self.schedules)} "
                f"stale commands fenced")
        for schedule in self.schedules:
            if schedule.ok:
                continue
            lines.append(
                f"  FAIL schedule {schedule.index} "
                f"(seed={schedule.seed}, Ch-{schedule.chain_length}, "
                f"f={schedule.f}):")
            for violation in schedule.violations:
                lines.append(f"    {violation}")
            for when, what in schedule.faults:
                lines.append(f"    fault @ {when * 1e3:.2f}ms: {what}")
        return "\n".join(lines)


def run_soak(config: Optional[SoakConfig] = None,
             progress=None) -> SoakResult:
    """Sweep ``config.schedules`` randomized schedules (round-robin over
    the (chain length, f) grid), each seeded from ``config.seed``."""
    config = config or SoakConfig()
    result = SoakResult(config=config)
    if config.telemetry:
        result.registry = MetricRegistry()
    grid = [(n, f) for n in config.chain_lengths for f in config.f_values]
    if config.flight:
        os.makedirs(config.flight_dump_dir, exist_ok=True)
    for index in range(config.schedules):
        chain_length, f = grid[index % len(grid)]
        scenario = config.scenario(index, chain_length, f)
        flight = None
        if config.flight:
            flight = FlightRecorder(autodump_path=os.path.join(
                config.flight_dump_dir, f"flight-{index}.json"))
            flight.set_context(seed=scenario.seed, schedule=index,
                               chain_length=chain_length, f=f)
        telemetry = (Telemetry(flight=flight)
                     if config.telemetry or config.flight else None)
        schedule = run(scenario, telemetry=telemetry)
        if telemetry is not None and result.registry is not None:
            result.registry.merge(telemetry.registry)
        if flight is not None and flight.trips:
            schedule.flight_dump = flight.autodump_path
        result.schedules.append(schedule)
        if progress is not None:
            progress(schedule)
    return result
