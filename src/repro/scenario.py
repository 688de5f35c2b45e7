"""One scenario model and one runner for every chain harness.

Each harness asks the same question as the paper's §7 testbed: build a
Ch-n Monitor chain under FTC, offer traffic, inject faults, drain, then
count and audit what came out.  A :class:`Scenario` declares one such
run and :func:`run` executes it in a single build order, returning a
:class:`ScheduleResult`.  The chaos soak (:mod:`repro.chaos.soak`) is a
set of presets swept over seeds, the perf suite
(:mod:`repro.perf.scenarios`) a name -> scenario table, and the lossy,
reconfig and overload experiments ``dataclasses.replace`` sweeps.

:func:`run` builds, in this order: the simulator (and profiler), the
egress sink, admission, the started chain, the ``on_chain`` hook, the
static data impairment, the control plane, watchdog and brownout, the
auditor, the faults, the traffic, the scripted reconfigurations and the
periodic audit.  It then runs to ``duration_s``, stops traffic (and the
monkey), heals if asked, drains for ``runway_s`` and audits once more;
the end-of-run checks in :data:`CHECKS` append after the auditor's.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, List, NamedTuple, Optional, Tuple

from .core import FTCChain
from .core.admission import AdmissionControl, BackpressureBus
from .core.costs import CostModel
from .core.reconfig import ReconfigError, ReconfigOp, apply_reconfig
from .metrics.meters import EgressRecorder
from .metrics.stats import percentile
from .middlebox import ch_n
from .net import (TrafficGenerator, WorkloadGenerator, WorkloadSpec,
                  balanced_flows)
from .orchestration import Orchestrator, OrchestratorEnsemble
from .orchestration.election import ElectionConfig
from .sim import RandomStreams, Simulator

if TYPE_CHECKING:  # repro.chaos imports this module; run() imports it lazily
    from .chaos.auditor import InvariantViolation, ShadowOracle
    from .chaos.plan import FaultPlan

__all__ = ["Scenario", "ScheduleResult", "run", "CHECKS", "SOAK_COSTS",
           "OVERLOAD_COSTS", "CTRLPLANE_ELECTION", "OverloadSpec",
           "windowed_p99_us"]

#: Deterministic cost model: chaos schedules must be a pure function of
#: the seed, so processing-time jitter is turned off.
SOAK_COSTS = CostModel(cycle_jitter_frac=0.0)

#: Overload soaks deliberately shrink the CPU so the chain's sustainable
#: capacity is known-low and a scripted flash crowd can exceed it by 4x
#: without needing millions of simulated packets per schedule.
OVERLOAD_COSTS = SOAK_COSTS.with_overrides(cpu_hz=1e7)

#: Election timing for control-plane runs: tight enough that a leader
#: crash fails over well inside a schedule, loose enough that renewal
#: rounds (bounded by the election retry budget) never starve a
#: healthy leader's lease.
CTRLPLANE_ELECTION = ElectionConfig(lease_s=6e-3, renew_every_s=2e-3,
                                    candidacy_base_s=2e-3)

#: Audit cadence while an audited scenario runs.
AUDIT_INTERVAL_S = 2e-3

#: Fault kinds that fail-stop a chain position.
_CRASH_KINDS = ("crash", "crash-during-recovery", "crash-during-reconfig")


@dataclass(frozen=True)
class OverloadSpec:
    """Parameters of one flash-crowd overload schedule (PROTOCOL.md §12).

    Everything is expressed relative to ``sustainable_pps``, the
    chain's measured capacity under :data:`OVERLOAD_COSTS`, so one
    number recalibrates the whole scenario:

    * the workload idles at ``base_frac`` of capacity, then a scripted
      flash crowd multiplies it by ``flash_factor`` (default peak =
      ``0.6 * 8 = 4.8x`` capacity -- comfortably past the 4x bar);
    * admission budgets ``budget_frac`` of capacity -- deliberately
      *above* 1.0 so the flash genuinely overloads the data plane and
      brownout has something to do;
    * the run must still deliver ``goodput_floor_frac`` of capacity
      averaged end to end, and p99 latency is the SLO brownout acts on.
    """

    sustainable_pps: float = 20e3
    base_frac: float = 0.6
    budget_frac: float = 1.25
    flash_factor: float = 8.0
    flash_start_frac: float = 0.25
    flash_duration_frac: float = 0.3
    goodput_floor_frac: float = 0.25
    p99_limit_us: float = 800.0
    crash: bool = False
    orchestrators: int = 1

    def __post_init__(self):
        if self.sustainable_pps <= 0:
            raise ValueError("sustainable_pps must be positive")
        if not 0.0 < self.base_frac <= 1.0:
            raise ValueError("base_frac must be in (0, 1]")
        if self.budget_frac <= 0:
            raise ValueError("budget_frac must be positive")
        if self.flash_factor < 1.0:
            raise ValueError("flash_factor must be >= 1")
        if not 0.0 <= self.flash_start_frac < 1.0:
            raise ValueError("flash_start_frac must be in [0, 1)")
        if not 0.0 < self.flash_duration_frac <= 1.0 - self.flash_start_frac:
            raise ValueError("flash window must fit inside the schedule")
        if not 0.0 <= self.goodput_floor_frac < 1.0:
            raise ValueError("goodput_floor_frac must be in [0, 1)")
        if self.p99_limit_us <= 0:
            raise ValueError("p99_limit_us must be positive")
        if self.orchestrators < 1:
            raise ValueError("orchestrators must be >= 1")

    @property
    def peak_factor(self) -> float:
        """Peak offered load as a multiple of sustainable capacity."""
        return self.base_frac * self.flash_factor

    @classmethod
    def parse(cls, text: str) -> "OverloadSpec":
        """Parse ``key=value`` pairs (CLI ``--overload``), e.g.
        ``over=8,base=0.6,budget=1.25,floor=0.25,crash=1,orch=3``.

        Keys: ``sustain`` (pps), ``base``/``budget``/``floor``
        (fractions of capacity), ``over`` (flash multiplier),
        ``start``/``dur`` (flash window, fractions of the schedule),
        ``p99`` (us), ``crash`` (0/1), ``orch`` (ensemble size).
        """
        keymap = {"sustain": ("sustainable_pps", float),
                  "base": ("base_frac", float),
                  "budget": ("budget_frac", float),
                  "over": ("flash_factor", float),
                  "start": ("flash_start_frac", float),
                  "dur": ("flash_duration_frac", float),
                  "floor": ("goodput_floor_frac", float),
                  "p99": ("p99_limit_us", float),
                  "crash": ("crash", lambda v: bool(int(v))),
                  "orch": ("orchestrators", int)}
        kwargs: dict = {}
        for part in text.split(","):
            part = part.strip()
            if not part:
                continue
            if "=" not in part:
                raise ValueError(f"expected key=value, got {part!r}")
            key, _, value = part.partition("=")
            key = key.strip().lower()
            if key not in keymap:
                raise ValueError(f"unknown overload key {key!r} "
                                 f"(known: {', '.join(sorted(keymap))})")
            field_name, convert = keymap[key]
            try:
                kwargs[field_name] = convert(value)
            except ValueError as exc:
                raise ValueError(
                    f"bad value for {key!r}: {value!r}") from exc
        return cls(**kwargs)

    def describe(self) -> str:
        parts = [f"sustain={self.sustainable_pps:g}pps",
                 f"peak={self.peak_factor:g}x",
                 f"budget={self.budget_frac:g}x",
                 f"floor={self.goodput_floor_frac:g}x"]
        if self.crash:
            parts.append("crash=mid-flash")
        if self.orchestrators > 1:
            parts.append(f"orch={self.orchestrators}")
        return " ".join(parts)


@dataclass(frozen=True)
class Scenario:
    """One run of the testbed.  The defaults are the classic chaos
    schedule: Ch-3, f=1, 2e4 pps, up to 3 monkey faults under one
    orchestrator, audited, 60 ms of traffic and a 20 ms drain."""

    seed: int = 0
    #: Schedule number within a soak (result and violation context).
    index: int = 0
    # -- the chain --
    chain_length: int = 3
    f: int = 1
    costs: CostModel = SOAK_COSTS
    reliable_links: bool = False
    # -- traffic: a constant ``rate_pps``, or a workload when given --
    rate_pps: float = 2e4
    workload: Optional[WorkloadSpec] = None
    #: Data impairment ``(drop, dup, reorder, corrupt)`` installed on
    #: every link once the chain starts and kept until a heal.
    impair_data: Optional[Tuple[float, float, float, float]] = None
    # -- faults: the randomized monkey (when ``max_faults`` is set) or a
    #    scripted plan --
    max_faults: Optional[int] = 3
    mean_fault_interval_s: float = 8e-3
    #: Let the monkey attack the orchestrator ensemble too.
    orch_faults: bool = False
    plan: Optional[FaultPlan] = None
    # -- control plane: 0 = none, 1 = one orchestrator, N = ensemble --
    orchestrators: int = 1
    corroborate: bool = False
    heartbeat_interval_s: float = 1e-3
    # -- overload stack (PROTOCOL.md §12) --
    admission_pps: Optional[float] = None
    #: Windowed p99 SLO driving brownout; None = no brownout.
    p99_limit_us: Optional[float] = None
    goodput_floor_pps: float = 0.0
    #: Scripted ``(fraction of duration_s, op)`` reconfigurations.  An
    #: insert op's middlebox belongs to one run: build fresh ops per run.
    ops: Tuple[Tuple[float, ReconfigOp], ...] = ()
    # -- the run --
    #: Shadow oracle + invariant auditor + end-of-run checks.  Off, the
    #: egress sink is a bare recorder (perf measures the chain alone).
    audit: bool = True
    duration_s: float = 60e-3
    #: Drain after traffic stops, before the final audit.
    runway_s: float = 20e-3
    #: Heal partitions and clear every impairment before the drain.
    heal: bool = False

    @property
    def crashes(self) -> bool:
        """True when the run may fail-stop chain positions."""
        return self.max_faults is not None or (
            self.plan is not None
            and any(spec.kind in _CRASH_KINDS for spec in self.plan.faults))


@dataclass
class ScheduleResult:
    """Outcome of one scenario run."""

    index: int
    seed: int
    chain_length: int
    f: int
    faults: List[Tuple[float, str]] = field(default_factory=list)
    violations: List[InvariantViolation] = field(default_factory=list)
    released: int = 0
    failures_detected: int = 0
    recoveries: int = 0
    degraded: bool = False
    #: Structured recovery timeline (event dicts), when telemetry ran.
    timeline: List[dict] = field(default_factory=list)
    #: Offered load (scripted runs; randomized monkey runs report 0),
    #: per-hop retransmissions, and -- audited runs on reliable links --
    #: the exact egress pid order for determinism regression (two runs
    #: of one seed must agree bit-for-bit).
    sent: int = 0
    retransmissions: int = 0
    egress_pids: Optional[List[int]] = None
    #: Ensemble runs (PROTOCOL.md §9): elections won across the run and
    #: stale commands the epoch gate rejected.
    elections: int = 0
    fenced_commands: int = 0
    #: Reconfiguration reports, in completion order (PROTOCOL.md §11).
    reconfigs: List = field(default_factory=list)
    #: Admission ledger, end-to-end goodput and brownout transition
    #: count (runs with admission, PROTOCOL.md §12).
    offered: int = 0
    admitted: int = 0
    shed: int = 0
    goodput_pps: float = 0.0
    brownout_transitions: int = 0
    #: Path of the flight dump written for this schedule (flight soaks
    #: that tripped an invariant only).
    flight_dump: Optional[str] = None

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def reconfigs_committed(self) -> int:
        return sum(1 for report in self.reconfigs if report.committed)

    @property
    def reconfigs_aborted(self) -> int:
        return sum(1 for report in self.reconfigs if report.aborted)


def windowed_p99_us(egress: EgressRecorder) -> Callable[[], Optional[float]]:
    """A p99 latency probe over the samples since its previous call.

    Brownout must see pressure *clear*, so the probe differences the
    egress sampler between watchdog ticks instead of reporting the
    cumulative distribution (which a flash would dominate forever).
    """
    seen = [0]

    def probe() -> Optional[float]:
        samples = egress.latency.samples
        start, seen[0] = seen[0], len(samples)
        if len(samples) <= start:
            return None
        return percentile(samples[start:], 99) * 1e6

    return probe


# -- end-of-run checks --------------------------------------------------------

class _End(NamedTuple):
    """What the end-of-run checks read besides the outcome."""

    chain: FTCChain
    oracle: ShadowOracle
    control: object


def _egress_loss(s, r, end):
    if r.released != r.sent:
        across = (f" across {r.reconfigs_committed} committed "
                  f"reconfigurations" if s.ops else "")
        return f"released {r.released} != sent {r.sent}{across}"


def _egress_order(s, r, end):
    if end.oracle.out_of_order:
        return f"{end.oracle.out_of_order} per-flow order inversions"


def _spurious_failover(s, r, end):
    if r.failures_detected:
        during = " during pure reconfiguration" if s.ops else ""
        return (f"{r.failures_detected} failovers{during} under a "
                f"lossy-but-alive data plane")


def _missed_failover(s, r, end):
    chain = end.chain
    failed = [p for p in range(chain.n_positions)
              if chain.server_at(p).failed]
    if failed and not r.degraded and getattr(end.control, "has_quorum",
                                             True):
        quorum = (" with a live ensemble quorum"
                  if s.orchestrators > 1 and not s.ops else "")
        return f"positions {failed} still failed at quiescence{quorum}"


def _cfg_monotonic(s, r, end):
    if end.oracle.cfg_inversions:
        return (f"{end.oracle.cfg_inversions} per-flow config-version "
                f"inversions at egress")


def _reconfig_stuck(s, r, end):
    # A leader killed mid-switch may leave its successor unable to
    # rebuild the op (an insert's middlebox cannot ride in the
    # journal); it then formally aborts it -- terminal, not stuck.
    done = r.reconfigs_committed + r.reconfigs_aborted
    if done < len(s.ops):
        return (f"only {r.reconfigs_committed}/{len(s.ops)} "
                f"reconfigurations reached a terminal state "
                f"({r.reconfigs_aborted} aborted)")


def _goodput_floor(s, r, end):
    if r.goodput_pps < s.goodput_floor_pps:
        return (f"goodput {r.goodput_pps:.0f}pps < floor "
                f"{s.goodput_floor_pps:.0f}pps under overload")


def _egress_duplicate(s, r, end):
    if end.oracle.duplicate_releases:
        return f"{end.oracle.duplicate_releases} duplicate releases"


def _overload_loss(s, r, end):
    if r.released != r.admitted:
        return (f"released {r.released} != admitted {r.admitted} (shed "
                f"{r.shed} at ingress is the only legal loss)")


#: (invariant, applies to the scenario, violation detail or None), in
#: the order violations are reported.  Audited scenarios only.
CHECKS = (
    ("egress-loss", lambda s: s.reliable_links and not s.crashes,
     _egress_loss),
    ("egress-order", lambda s: s.reliable_links, _egress_order),
    ("spurious-failover", lambda s: (s.reliable_links and not s.crashes
                                     and s.orchestrators == 1),
     _spurious_failover),
    ("missed-failover", lambda s: s.heal and s.crashes, _missed_failover),
    ("cfg-monotonic", lambda s: bool(s.ops), _cfg_monotonic),
    ("reconfig-stuck", lambda s: bool(s.ops) and not s.crashes,
     _reconfig_stuck),
    ("goodput-floor", lambda s: s.goodput_floor_pps > 0, _goodput_floor),
    ("egress-duplicate", lambda s: s.admission_pps is not None,
     _egress_duplicate),
    ("overload-loss", lambda s: s.admission_pps is not None
     and not s.crashes, _overload_loss),
)


# -- the runner ---------------------------------------------------------------

def run(scenario: Scenario, *, telemetry=None, profiler=None,
        on_chain: Optional[Callable] = None) -> ScheduleResult:
    """Build, run, drain and audit ``scenario``.

    ``profiler`` is installed on the simulator (the caller passes the
    same one inside ``telemetry`` to reach every other stage);
    ``on_chain(sim, chain)`` fires right after the chain starts.
    """
    from .chaos.auditor import (InvariantAuditor, InvariantViolation,
                                ShadowOracle)
    from .chaos.monkey import CTRLPLANE_KIND_WEIGHTS, ChaosMonkey
    from .chaos.plan import FaultInjector

    s = scenario
    sim = Simulator()
    if profiler is not None:
        sim.profiler = profiler
    egress = EgressRecorder(sim)
    oracle = (ShadowOracle(inner=egress, track_order=s.reliable_links)
              if s.audit else None)
    admission = None
    if s.admission_pps is not None:
        admission = AdmissionControl(sim, rate_pps=s.admission_pps,
                                     n_classes=3, bus=BackpressureBus(),
                                     telemetry=telemetry)
    chain = FTCChain(sim, ch_n(s.chain_length, n_threads=2), f=s.f,
                     deliver=oracle or egress, costs=s.costs, n_threads=2,
                     seed=s.seed, telemetry=telemetry,
                     reliable_links=s.reliable_links, admission=admission)
    chain.start()
    if on_chain is not None:
        on_chain(sim, chain)
    if s.impair_data is not None:
        drop, dup, reorder, corrupt = s.impair_data
        chain.net.impair_data(drop_rate=drop, dup_rate=dup,
                              reorder_rate=reorder, corrupt_rate=corrupt,
                              seed=s.seed)

    control = ensemble = None
    if s.orchestrators > 1:
        control = ensemble = OrchestratorEnsemble(
            sim, chain, n=s.orchestrators, election=CTRLPLANE_ELECTION,
            heartbeat_interval_s=s.heartbeat_interval_s,
            corroborate_suspects=s.corroborate)
    elif s.orchestrators == 1:
        control = Orchestrator(sim, chain,
                               heartbeat_interval_s=s.heartbeat_interval_s,
                               corroborate_suspects=s.corroborate)
    if control is not None:
        control.start()

    watchdog = brownout = None
    if s.p99_limit_us is not None:
        watchdog, brownout = _brownout(sim, chain, egress, admission,
                                       control, ensemble, s.p99_limit_us,
                                       telemetry)
    auditor = None
    if s.audit:
        auditor = InvariantAuditor(
            chain, oracle=oracle, orchestrator=control, brownout=brownout,
            context={"seed": s.seed, "schedule": s.index})

    faults = monkey = None
    if s.max_faults is not None:
        faults = monkey = ChaosMonkey(
            chain, control, ensemble=ensemble,
            mean_interval_s=s.mean_fault_interval_s,
            max_faults=s.max_faults, start_after_s=s.duration_s * 0.1,
            kind_weights=CTRLPLANE_KIND_WEIGHTS if s.orch_faults else None)
    elif s.plan is not None:
        faults = FaultInjector(chain, control, s.plan, seed=s.seed,
                               ensemble=ensemble)
    if faults is not None:
        faults.start()

    if s.workload is not None:
        traffic = WorkloadGenerator(sim, chain.ingress, s.workload,
                                    n_queues=2, streams=RandomStreams(s.seed))
    else:
        traffic = TrafficGenerator(sim, chain.ingress, rate_pps=s.rate_pps,
                                   flows=balanced_flows(8, 2))
    reports = _schedule_ops(sim, chain, control, s)

    if auditor is not None:
        def periodic_audit():
            auditor.audit()
            if sim.now + AUDIT_INTERVAL_S < s.duration_s:
                sim.schedule_callback(AUDIT_INTERVAL_S, periodic_audit)

        sim.schedule_callback(AUDIT_INTERVAL_S, periodic_audit)

    sim.run(until=s.duration_s)
    traffic.stop()
    if monkey is not None:
        monkey.stop()
    if s.heal:
        chain.net.heal()
        chain.net.clear_impairment()
        chain.net.clear_data_impairment()
    sim.run(until=s.duration_s + s.runway_s)

    history = control.history if control is not None else []
    result = ScheduleResult(
        index=s.index, seed=s.seed, chain_length=s.chain_length, f=s.f,
        faults=list(faults.injected) if faults is not None else [],
        released=egress.count,
        failures_detected=len(history),
        recoveries=sum(1 for event in history if event.recovered),
        degraded=chain.degraded,
        timeline=([] if telemetry is None
                  else telemetry.timeline.as_dicts()),
        sent=traffic.sent if monkey is None else 0,
        retransmissions=chain.channel_stats().get("retransmissions", 0),
        egress_pids=(list(oracle.order)
                     if oracle is not None and s.reliable_links else None),
        reconfigs=(list(control.reconfig_history) if control is not None
                   else reports),
        brownout_transitions=(len(brownout.transitions)
                              if brownout is not None else 0))
    if ensemble is not None:
        result.elections = len(ensemble.election_log)
        result.fenced_commands = ensemble.gate.fenced_commands
    if admission is not None:
        result.offered = admission.offered
        result.admitted = admission.admitted
        result.shed = admission.shed
        result.goodput_pps = result.released / s.duration_s

    if auditor is not None:
        # Audited live where quiescence is not guaranteed: an unhealed
        # randomized schedule may still be mid-recovery after its short
        # drain, and a crash may interrupt a scripted reconfiguration.
        live = s.crashes and (bool(s.ops) or (monkey is not None
                                               and not s.heal))
        auditor.audit(quiescent=not live)
        result.violations = list(auditor.violations)
        end = _End(chain, oracle, control)
        for invariant, applies, check in CHECKS:
            detail = check(s, result, end) if applies(s) else None
            if detail:
                result.violations.append(InvariantViolation(
                    invariant=invariant, detail=detail, at_s=sim.now))
    if watchdog is not None:
        watchdog.stop()
    if control is not None:
        control.stop()
    return result


def _brownout(sim, chain, egress, admission, control, ensemble,
              p99_limit_us, telemetry):
    """SLO watchdog on windowed p99 driving a brownout controller; an
    ensemble journals every transition through its quorum journal."""
    from .flight.slo import SLOObjective, SLOWatchdog, run_probes
    from .orchestration.brownout import BrownoutController

    probes = run_probes(egress, chain=chain, orchestrator=control)
    probes["p99_latency_us"] = windowed_p99_us(egress)
    watchdog = SLOWatchdog(
        sim, [SLOObjective("p99_latency_us", "<=", p99_limit_us)],
        probes=probes, telemetry=telemetry)
    watchdog.start()

    journal = None
    if ensemble is not None:
        def journal(transition):
            leader = ensemble.leader
            if leader is None:
                return

            def drive():
                try:
                    yield from leader.journal_step(
                        f"brownout-{transition.kind}", [],
                        transition.describe())
                except Exception:
                    pass  # fenced mid-write: the flight ring still has it
            sim.process(drive(), name="brownout-journal")

    brownout = BrownoutController(sim, watchdog, admission=admission,
                                  buffer=chain.buffer, journal=journal,
                                  telemetry=telemetry)
    return watchdog, brownout


def _schedule_ops(sim, chain, control, s: Scenario) -> List:
    """Fire each scripted reconfiguration at its fraction of the run:
    through the control plane when there is one, else applied directly.
    Returns the list the directly applied ops' reports land in."""
    reports: List = []

    def submit(op):
        if control is None:
            sim.process(apply(op), name=f"reconfig-{op.kind}")
            return
        # A mid-failover ensemble may briefly have no acting leader;
        # re-submit until one exists (bounded by the run's end).
        if sim.now > s.duration_s:
            return
        try:
            control.request_reconfig(op)
        except ReconfigError:
            sim.schedule_callback(2e-3, lambda: submit(op))

    def apply(op):
        reports.append((yield from apply_reconfig(chain, op)))

    for fraction, op in s.ops:
        sim.schedule_callback(s.duration_s * fraction,
                              lambda op=op: submit(op))
    return reports
