"""FTC benchmark: one command for every workload, metric and check.

Usage (from the root of a checkout)::

    python3 ftcbench/run.py --workload steady-write --seed 1 \\
        --seconds 30 --trace 0

The command runs passes of one workload, each in a fresh single-threaded
process (``worker.py``), one after another until ``--seconds`` of wall
time have gone by.  Every pass of a run uses the same seed, so every
pass must reproduce the same virtual-time outcome; host-time figures are
the medians over the passes.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes (``spans.py`` wraps each layer's entry
points) and prints the per-layer metrics, the trace overhead, and the
wall time no span covers.

Each metric is printed on its own line by name and unit; the last line
is one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
``attempted`` counts passes and ``failed`` the passes that failed a
correctness check.  Any failed check makes ``correct`` false and the
exit code 1.  Without the program's sources (``src/repro``) the command
exits 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import (  # noqa: E402  (needs HERE on sys.path)
    GATED_WORKLOADS, WORKLOADS)

#: Passes below which a run does not stop, however long they take.
MIN_PASSES = 3
#: A pass that takes longer than this is treated as hung.
PASS_TIMEOUT_S = 120.0

#: Workloads whose drain must release every offered packet.
LOSSLESS = ("steady-write", "lossy-read", "lossy-mixed")

END_TO_END: Tuple[Tuple[str, str], ...] = (
    ("sim_pps_per_wall_s", "1/s"),
    ("setup_s", "s"),
    ("rss_peak_mb", "MB"),
    ("sim_latency_p50_us", "us"),
    ("sim_latency_p99_us", "us"),
    ("sim_goodput_pps", "1/s"),
    ("released_frac", "ratio"),
)


def spawn_pass(workload: str, seed: int, traced: bool) -> dict:
    """Run ``worker.py`` once and return its JSON result."""
    # -S: the host's site-packages are no part of the program's set-up.
    command = [sys.executable, "-S", str(HERE / "worker.py"),
               "--workload", workload, "--seed", str(seed),
               "--trace", "1" if traced else "0",
               "--spawned-at", repr(time.monotonic())]
    proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=PASS_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(
            f"pass of {workload} (seed {seed}, traced={traced}) exited "
            f"{proc.returncode}:\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_passes(workload: str, seed: int, seconds: float,
               trace: bool) -> List[dict]:
    """Passes until ``seconds`` have elapsed; traced mode alternates."""
    passes: List[dict] = []
    started = time.monotonic()
    while True:
        traced = trace and len(passes) % 2 == 1
        passes.append(spawn_pass(workload, seed, traced))
        enough = len(passes) >= (2 * MIN_PASSES if trace else MIN_PASSES)
        if enough and time.monotonic() - started >= seconds:
            return passes


# -- correctness --------------------------------------------------------------

#: Fields every pass of one seed must reproduce exactly.
VIRTUAL_FIELDS = ("offered", "released", "shed", "drops", "unaccounted",
                  "latency_samples", "latency_p50_us", "latency_p99_us",
                  "recovery_ms", "digest", "layer")
#: Span call counts every traced pass of one seed must reproduce exactly.
COUNTED_SPANS = ("sim.step", "middlebox.process", "stm.partition_of",
                 "core.byte_size")


def check_passes(workload: str, passes: List[dict]) -> List[List[str]]:
    """Per pass, the correctness checks it failed."""
    reference = passes[0]
    first_traced = next((p for p in passes if p["traced"]), None)
    failures: List[List[str]] = []
    for index, result in enumerate(passes):
        problems = list(result["errors"])
        if workload in LOSSLESS and result["released"] != result["offered"]:
            problems.append(f"released {result['released']} != offered "
                            f"{result['offered']} after drain")
        if workload == "crash-flash" and result["recovery_ms"] is None:
            problems.append("no release after the fail-stop")
        if result["latency_p99_us"] is None:
            problems.append("fewer than 100 released packets")
        for field in VIRTUAL_FIELDS:
            if result[field] != reference[field]:
                problems.append(
                    f"pass {index} {field} differs from pass 0 of the same "
                    f"seed (traced={result['traced']})")
        if result["traced"] and result is not first_traced:
            for span in COUNTED_SPANS:
                got = result["spans"].get(span, {}).get("calls", 0)
                want = first_traced["spans"].get(span, {}).get("calls", 0)
                if got != want:
                    problems.append(f"pass {index} {span} calls {got} != "
                                    f"{want} of the first traced pass")
        failures.append(problems)
    return failures


# -- metrics ------------------------------------------------------------------

def end_to_end(passes: List[dict]) -> Dict[str, float]:
    """End-to-end metrics: host time as medians over untraced passes."""
    plain = [p for p in passes if not p["traced"]]
    ref = plain[0]
    offered, released = ref["offered"], ref["released"]
    return {
        "sim_pps_per_wall_s": statistics.median(
            p["released"] / p["run_wall_s"] for p in plain),
        "setup_s": statistics.median(p["setup_s"] for p in plain),
        "rss_peak_mb": statistics.median(p["rss_peak_mb"] for p in plain),
        "sim_latency_p50_us": ref["latency_p50_us"],
        "sim_latency_p99_us": ref["latency_p99_us"],
        "sim_goodput_pps": released / ref["window_s"],
        "released_frac": released / offered,
    }


def outcome_lines(passes: List[dict]) -> List[Tuple[str, float, str]]:
    """Virtual-time outcome figures printed beside the metrics."""
    ref = passes[0]
    offered = ref["offered"]
    return [
        ("offered_pkts", offered, "count"),
        ("released_pkts", ref["released"], "count"),
        ("latency_samples", ref["latency_samples"], "count"),
        ("shed_pkts", ref["shed"], "count"),
        ("failed_frac", (offered - ref["released"]) / offered, "ratio"),
        ("unaccounted_pkts", ref["unaccounted"], "count"),
        ("sim_recovery_ms", ref["recovery_ms"] or 0.0, "ms"),
    ] + [(f"drops.{site}", count, "count")
         for site, count in sorted(ref["drops"].items())]


#: Per-layer metrics: name -> unit.  Order follows the layer map in
#: README.md.
PER_LAYER: Tuple[Tuple[str, str], ...] = (
    ("sim.events_per_pkt", "count"),
    ("sim.step_self_us_per_pkt", "us"),
    ("net.nic_receive_us_per_pkt", "us"),
    ("net.link_send_us_per_pkt", "us"),
    ("net.channel_send_us_per_pkt", "us"),
    ("net.frames_per_pkt", "count"),
    ("net.retransmits_per_kpkt", "count"),
    ("net.acks_per_pkt", "count"),
    ("middlebox.process_calls_per_pkt", "count"),
    ("middlebox.process_us_per_pkt", "us"),
    ("stm.run_self_us_per_pkt", "us"),
    ("stm.partition_of_calls_per_pkt", "count"),
    ("stm.partition_of_us_per_pkt", "us"),
    ("stm.lock_conflicts_per_kpkt", "count"),
    ("stm.lock_wait_us_per_pkt", "us"),
    ("stm.retries_per_kpkt", "count"),
    ("core.runtime_self_us_per_pkt", "us"),
    ("core.byte_size_calls_per_pkt", "count"),
    ("core.byte_size_us_per_pkt", "us"),
    ("core.logs_per_msg", "ratio"),
    ("core.depvec_offer_us_per_pkt", "us"),
    ("core.commit_vector_us_per_pkt", "us"),
    ("core.absorb_commit_us_per_pkt", "us"),
    ("core.forwarder_attach_us_per_pkt", "us"),
    ("core.buffer_handle_us_per_pkt", "us"),
    ("core.buffer_held_peak", "count"),
    ("core.admission_offer_us_per_pkt", "us"),
    ("core.admission_shed_frac", "ratio"),
    ("orchestration.detect_ms", "ms"),
    ("orchestration.recover_ms", "ms"),
    ("orchestration.heartbeats_sent", "count"),
    ("orchestration.control_retries", "count"),
    ("orchestration.recovery_wall_ms", "ms"),
    ("failed_frac", "ratio"),
    ("unaccounted_pkts", "count"),
    ("sim_recovery_ms", "ms"),
    ("trace.unattributed_us_per_pkt", "us"),
    ("trace.overhead_ratio", "ratio"),
)

#: Per-layer wall-time metrics -> the span whose self time they report.
SELF_TIME_SPANS = {
    "sim.step_self_us_per_pkt": "sim.step",
    "net.nic_receive_us_per_pkt": "net.nic_receive",
    "net.link_send_us_per_pkt": "net.link_send",
    "net.channel_send_us_per_pkt": "net.channel_send",
    "middlebox.process_us_per_pkt": "middlebox.process",
    "stm.run_self_us_per_pkt": "stm.run",
    "stm.partition_of_us_per_pkt": "stm.partition_of",
    "core.runtime_self_us_per_pkt": "core.runtime",
    "core.byte_size_us_per_pkt": "core.byte_size",
    "core.depvec_offer_us_per_pkt": "core.depvec_offer",
    "core.commit_vector_us_per_pkt": "core.commit_vector",
    "core.absorb_commit_us_per_pkt": "core.absorb_commit",
    "core.forwarder_attach_us_per_pkt": "core.forwarder_attach",
    "core.buffer_handle_us_per_pkt": "core.buffer_handle",
    "core.admission_offer_us_per_pkt": "core.admission_offer",
}


def _calls(result: dict, span: str) -> int:
    return result["spans"].get(span, {}).get("calls", 0)


def per_layer(passes: List[dict]) -> Dict[str, float]:
    """Per-layer metrics: wall times as medians over traced passes."""
    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    ref = traced[0]
    released = ref["released"]
    layer = ref["layer"]
    stats = ref["stm"]
    offered = ref["offered"]
    metrics: Dict[str, float] = {}
    for name, span in SELF_TIME_SPANS.items():
        metrics[name] = statistics.median(
            p["spans"].get(span, {}).get("self_s", 0.0) / released * 1e6
            for p in traced)
    messages = ref["piggyback_messages"]
    metrics.update({
        "sim.events_per_pkt": _calls(ref, "sim.step") / released,
        "net.frames_per_pkt": (layer["channel.sent"] +
                               layer["channel.retransmissions"]) / released,
        "net.retransmits_per_kpkt":
            layer["channel.retransmissions"] / released * 1e3,
        "net.acks_per_pkt": layer["channel.acks_sent"] / released,
        "middlebox.process_calls_per_pkt":
            _calls(ref, "middlebox.process") / released,
        "stm.partition_of_calls_per_pkt":
            _calls(ref, "stm.partition_of") / released,
        "stm.lock_conflicts_per_kpkt": stats["conflicts"] / released * 1e3,
        "stm.lock_wait_us_per_pkt": stats["lock_wait_s"] / released * 1e6,
        "stm.retries_per_kpkt": stats["retries"] / released * 1e3,
        "core.byte_size_calls_per_pkt":
            _calls(ref, "core.byte_size") / released,
        "core.logs_per_msg": (ref["piggyback_message_logs"] / messages
                              if messages else 0.0),
        "core.buffer_held_peak": layer["buffer.held_peak"],
        "core.admission_shed_frac": (
            layer["admission.shed"] / layer["admission.offered"]
            if layer.get("admission.offered") else 0.0),
        "orchestration.detect_ms": layer.get("ensemble.detect_s", 0.0) * 1e3,
        "orchestration.recover_ms":
            layer.get("ensemble.recover_s", 0.0) * 1e3,
        "orchestration.heartbeats_sent":
            layer.get("ensemble.heartbeats_sent", 0),
        "orchestration.control_retries":
            layer.get("ensemble.control_retries", 0),
        "orchestration.recovery_wall_ms": statistics.median(
            p["spans"].get("orchestration.recover", {}).get("self_s", 0.0)
            * 1e3 for p in traced),
        "failed_frac": (offered - released) / offered,
        "unaccounted_pkts": ref["unaccounted"],
        "sim_recovery_ms": ref["recovery_ms"] or 0.0,
        "trace.unattributed_us_per_pkt": statistics.median(
            (p["run_wall_s"] - p["trace_self_s"]) / released * 1e6
            for p in traced),
        "trace.overhead_ratio": (
            statistics.median(p["run_wall_s"] for p in traced) /
            statistics.median(p["run_wall_s"] for p in plain)),
    })
    return metrics


# -- command ------------------------------------------------------------------

def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program sources under {ROOT / 'src'}; nothing to "
              "benchmark", file=sys.stderr)
        return 2
    if args.workload not in GATED_WORKLOADS:
        print(f"note: {args.workload} is not in BENCHMARK.json "
              "(see ftcbench/README.md)", file=sys.stderr)
    try:
        passes = run_passes(args.workload, args.seed, args.seconds,
                            bool(args.trace))
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark pass failed: {exc}", file=sys.stderr)
        return 2

    failures = check_passes(args.workload, passes)
    failed = sum(1 for problems in failures if problems)
    for index, problems in enumerate(failures):
        for problem in problems:
            print(f"CHECK FAILED pass {index}: {problem}")

    if args.trace:
        units = dict(PER_LAYER)
        values = per_layer(passes)
    else:
        units = dict(END_TO_END)
        values = end_to_end(passes)
        for name, value, unit in outcome_lines(passes):
            print(f"{args.workload} {name} = {value} {unit}")
    for name, unit in units.items():
        print(f"{args.workload} {name} = {values[name]} {unit}")

    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(passes),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
