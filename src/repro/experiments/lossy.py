"""Lossy-link sweep: goodput/latency vs data-plane impairment (§8).

Not a paper figure -- the testbed's 10 GbE links are effectively
lossless -- but the natural question for any WAN/overlay deployment:
what does FTC's hop-by-hop reliability layer cost as chain links get
worse?  Each row impairs every chain link at a drop rate (plus fixed
duplication/reordering/corruption) and reports egress goodput, latency,
and how hard the retransmission machinery worked.  The first row is the
unimpaired baseline on raw links: with impairment off the reliable
channels are off too, so it matches the paper-mode figures exactly.
"""

from __future__ import annotations

from dataclasses import replace

from ..core.costs import DEFAULT_COSTS
from ..scenario import Scenario, run as run_scenario
from .runner import ExperimentResult, quick_mode

#: Per-link drop probabilities swept (full mode).
DROP_RATES = [0.0, 0.02, 0.05, 0.10]
#: Fixed companion impairments applied whenever drop > 0.
DUP_RATE = 0.02
REORDER_RATE = 0.02
CORRUPT_RATE = 0.01

OFFERED_PPS = 1e5

#: Ch-2 on raw links at the offered rate; retransmission tails (RTO
#: backoff caps at 2 ms) need a generous drain before delivery ratios
#: are meaningful.
PRESET = Scenario(chain_length=2, costs=DEFAULT_COSTS, rate_pps=OFFERED_PPS,
                  max_faults=None, orchestrators=0, audit=False,
                  runway_s=10e-3)


def run(seed: int = 0) -> ExperimentResult:
    duration_s = 10e-3 if quick_mode() else 40e-3
    drops = [0.0, 0.05] if quick_mode() else DROP_RATES
    warm_s = duration_s * 0.2
    result = ExperimentResult(
        experiment="Lossy links: FTC goodput/latency vs per-link drop rate "
                   f"(Ch-2, f=1, {OFFERED_PPS:g} pps offered)",
        headers=["Drop rate", "Goodput (Mpps)", "Mean lat (us)",
                 "p99 lat (us)", "Retransmits", "Link drops", "Delivered"])
    for drop_rate in drops:
        impaired = drop_rate > 0
        scenario = replace(
            PRESET, seed=seed, duration_s=duration_s,
            reliable_links=impaired,
            impair_data=((drop_rate, DUP_RATE, REORDER_RATE, CORRUPT_RATE)
                         if impaired else None))
        chains, marks = [], []

        def on_chain(sim, chain):
            chains.append(chain)
            egress = chain.deliver

            def mark():
                marks.append((sim.now, egress.count))

            def warm_up():
                egress.latency.start_after(warm_s)
                mark()

            sim.schedule_callback(warm_s, warm_up)
            sim.schedule_callback(duration_s, mark)

        outcome = run_scenario(scenario, on_chain=on_chain)
        chain = chains[0]
        egress = chain.deliver
        # Goodput over the traffic window only (warm-up end to traffic
        # stop): the drain delivers the tail but offers nothing.
        (t_warm, n_warm), (t_stop, n_stop) = marks
        goodput_mpps = (n_stop - n_warm) / (t_stop - t_warm) / 1e6
        delivered = (f"{chain.total_released()}/{outcome.sent}"
                     if outcome.sent else "0/0")
        result.add(
            f"{drop_rate:.2f}",
            round(goodput_mpps, 4),
            round(egress.latency.mean_us(), 1) if len(egress.latency) else 0.0,
            round(egress.latency.percentile_us(99), 1)
            if len(egress.latency) else 0.0,
            outcome.retransmissions,
            chain.net.data_impairment_stats()["dropped"],
            delivered)
    result.notes.append(
        "Companion impairments at drop>0: dup=0.02 reorder=0.02 "
        "corrupt=0.01 per link; row 0.00 is raw links (no reliability "
        "layer), matching the paper-mode figures.")
    result.notes.append(
        "Delivered counts every offered packet: hop retransmission must "
        "recover all link losses (exactly-once egress, PROTOCOL.md §8).")
    return result


def main() -> None:
    print(run().render())


if __name__ == "__main__":
    main()
