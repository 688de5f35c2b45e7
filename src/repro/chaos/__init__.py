"""Chaos fault injection + invariant auditing.

Three layers (see PROTOCOL.md, "Failure model & chaos testing"):

- **Injection**: scripted :class:`FaultPlan` schedules and the
  randomized :class:`ChaosMonkey`, both driving ``Server.fail()`` /
  ``Network.impair()`` through seeded RNG streams.
- **Hardened paths under test**: ``repro.net.retry`` and the
  re-entrant recovery in ``repro.orchestration`` (exercised, not
  defined, here).
- **Audit**: :class:`InvariantAuditor` checking the §4/§5 invariants
  against a :class:`ShadowOracle`, and the soak presets over
  :func:`repro.scenario.run` behind ``python -m repro chaos``.
"""

from .auditor import InvariantAuditor, InvariantViolation, ShadowOracle
from .monkey import (
    CTRLPLANE_KIND_WEIGHTS,
    ChaosMonkey,
    DEFAULT_KIND_WEIGHTS,
    OVERLOAD_KIND_WEIGHTS,
)
from .plan import (
    FAULT_KINDS,
    IMPAIRED_DELIVERY,
    ORCH_FAULT_KINDS,
    OVERLOAD_FAULT_KINDS,
    RECONFIG_FAULT_KINDS,
    FaultInjector,
    FaultPlan,
    FaultSpec,
)
from ..scenario import OverloadSpec, ScheduleResult
from .soak import (
    SoakConfig,
    SoakResult,
    ctrlplane_schedule,
    impaired_schedule,
    overload_schedule,
    reconfig_schedule,
    run_soak,
)

__all__ = [
    "CTRLPLANE_KIND_WEIGHTS",
    "ChaosMonkey",
    "DEFAULT_KIND_WEIGHTS",
    "FAULT_KINDS",
    "IMPAIRED_DELIVERY",
    "ORCH_FAULT_KINDS",
    "OVERLOAD_FAULT_KINDS",
    "OVERLOAD_KIND_WEIGHTS",
    "RECONFIG_FAULT_KINDS",
    "FaultInjector",
    "FaultPlan",
    "FaultSpec",
    "InvariantAuditor",
    "InvariantViolation",
    "OverloadSpec",
    "ScheduleResult",
    "ShadowOracle",
    "SoakConfig",
    "SoakResult",
    "ctrlplane_schedule",
    "impaired_schedule",
    "overload_schedule",
    "reconfig_schedule",
    "run_soak",
]
