"""One benchmark pass in a fresh single-threaded process.

Usage::

    python3 ftcbench/worker.py --workload steady-write --seed 1 \\
        --trace 0 --spawned-at <time.monotonic() of the parent at spawn>

Prints one JSON object: the pass's virtual-time outcome, its host wall
times, its peak RSS and, with ``--trace 1``, the per-span self times and
call counts.  ``run.py`` spawns one of these per pass and aggregates.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def pass_result(workload: str, seed: int, traced: bool,
                spawned_at: float) -> dict:
    from workloads import run_pass
    tracer = None
    if traced:
        from spans import SpanTracer
        tracer = SpanTracer().install()
    try:
        outcome = run_pass(workload, seed)
    finally:
        if tracer is not None:
            tracer.remove()
    latencies = outcome.latencies_us
    result = {
        "workload": workload, "seed": seed, "traced": traced,
        "offered": outcome.offered, "released": outcome.released,
        "shed": outcome.shed, "drops": outcome.drops,
        "unaccounted": outcome.unaccounted, "window_s": outcome.window_s,
        "latency_samples": len(latencies),
        "latency_p50_us": statistics.median(latencies) if latencies else None,
        "latency_p99_us": (statistics.quantiles(latencies, n=100)[98]
                           if len(latencies) >= 100 else None),
        "recovery_ms": outcome.recovery_ms,
        "digest": outcome.digest, "errors": outcome.errors,
        "layer": outcome.layer,
        "setup_s": outcome.first_offer_at - spawned_at,
        "run_wall_s": outcome.run_wall_s,
        "rss_peak_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        managers = list(tracer.managers.values())
        result["spans"] = {name: {"calls": tracer.calls.get(name, 0),
                                  "self_s": self_s}
                           for name, self_s in tracer.self_s.items()}
        result["trace_self_s"] = tracer.total_self_s()
        result["piggyback_messages"] = tracer.messages
        result["piggyback_message_logs"] = tracer.message_logs
        result["stm"] = {
            "conflicts": sum(m.lock_stats.conflicts for m in managers),
            "lock_wait_s": sum(m.lock_stats.wait_time for m in managers),
            "retries": sum(m.total_retries for m in managers),
        }
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, required=True)
    args = parser.parse_args(argv)
    result = pass_result(args.workload, args.seed, bool(args.trace),
                         args.spawned_at)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
