"""Overload sweep: goodput/latency/shedding vs offered load (§12).

Not a paper figure -- the testbed never pushed past NIC saturation --
but the operative question for any production SFC deployment: what
happens when offered load exceeds what the chain can sustain?  Each
row drives a heavy-tailed prioritized workload at a multiple of the
chain's sustainable capacity through the full overload stack
(admission control + backpressure bus + SLO-driven brownout) and
reports where the excess went: egress goodput holds near capacity,
the ingress gate sheds the rest lowest-class-first, latency stays
bounded, and nothing is dropped inside the chain.
"""

from __future__ import annotations

from dataclasses import replace

from ..net import WorkloadSpec
from ..scenario import OVERLOAD_COSTS, OverloadSpec, Scenario
from ..scenario import run as run_scenario
from .runner import ExperimentResult, quick_mode

#: Offered load as multiples of sustainable capacity (full mode).
LOAD_MULTIPLIERS = [0.5, 1.0, 2.0, 4.0, 8.0]


#: Ch-3 on the shrunken CPU behind admission at the default budget and
#: a windowed-p99 brownout; no control plane, no faults.
SPEC = OverloadSpec()
PRESET = Scenario(costs=OVERLOAD_COSTS, max_faults=None, orchestrators=0,
                  audit=False,
                  admission_pps=SPEC.budget_frac * SPEC.sustainable_pps,
                  p99_limit_us=SPEC.p99_limit_us, runway_s=20e-3)


def run(seed: int = 0) -> ExperimentResult:
    duration_s = 30e-3 if quick_mode() else 100e-3
    multipliers = [1.0, 4.0] if quick_mode() else LOAD_MULTIPLIERS
    result = ExperimentResult(
        experiment="Overload: goodput/latency/shedding vs offered load "
                   f"(Ch-3, f=1, capacity {SPEC.sustainable_pps:g} pps, "
                   f"admission budget {SPEC.budget_frac:g}x)",
        headers=["Offered (x cap)", "Offered (pps)", "Goodput (pps)",
                 "p99 lat (us)", "Shed c0/c1/c2 (%)", "In-chain drops",
                 "Brownout"])
    for multiplier in multipliers:
        chains = []
        outcome = run_scenario(
            replace(PRESET, seed=seed, duration_s=duration_s,
                    workload=WorkloadSpec(
                        base_pps=multiplier * SPEC.sustainable_pps,
                        n_flows=32, n_classes=3)),
            on_chain=lambda sim, chain: chains.append(chain))
        chain = chains[0]
        admission, egress = chain.admission, chain.deliver
        shed_pct = []
        for cls in range(admission.n_classes):
            offered = admission.offered_by_class[cls]
            shed_pct.append(
                f"{admission.shed_by_class[cls] / offered:.0%}"
                if offered else "-")
        in_chain = (sum(r.server.nic.rx_dropped for r in chain.replicas)
                    + chain.buffer.overflow_dropped)
        result.add(
            f"{multiplier:g}x",
            round(outcome.sent / duration_s),
            round(outcome.released / duration_s),
            round(egress.latency.percentile_us(99), 1)
            if len(egress.latency) else 0.0,
            "/".join(shed_pct),
            in_chain,
            outcome.brownout_transitions)
    result.notes.append(
        "Shed % per priority class (c2 highest) at the ingress gate -- "
        "the only legal drop point; in-chain drops must stay 0 at every "
        "load (PROTOCOL.md §12.2).")
    result.notes.append(
        "Past saturation goodput holds near the admission budget while "
        "brownout throttles toward sustainable capacity; excess load is "
        "shed lowest-class-first.")
    return result


def main() -> None:
    print(run().render())


if __name__ == "__main__":
    main()
