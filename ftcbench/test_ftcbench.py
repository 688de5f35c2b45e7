"""Tests of the benchmark itself.

Run from the root of a checkout::

    PYTHONPATH=src python3 -m pytest ftcbench -q

They run every pass in this process, so packet ids differ from pass to
pass; the outcome digest names packets by offer order and does not
depend on them.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import worker  # noqa: F401  (puts src/ on sys.path)
from run import (COUNTED_SPANS, END_TO_END, PER_LAYER, SELF_TIME_SPANS,
                 check_passes, end_to_end, per_layer)
from spans import SpanTracer
from workloads import GATED_WORKLOADS, run_pass

HERE = Path(__file__).resolve().parent

#: Per-layer metrics measured in host time; every other one is a count
#: or a virtual-time figure and must repeat exactly for a seed.
HOST_TIME_LAYER = set(SELF_TIME_SPANS) | {
    "orchestration.recovery_wall_ms", "trace.unattributed_us_per_pkt",
    "trace.overhead_ratio"}
#: End-to-end metrics measured in virtual time.
VIRTUAL_METRICS = ("sim_latency_p50_us", "sim_latency_p99_us",
                   "sim_goodput_pps", "released_frac")


@pytest.fixture(scope="module", params=GATED_WORKLOADS)
def passes(request):
    """One untraced and two traced passes of a workload, seed 7."""
    return [worker.pass_result(request.param, 7, traced, spawned_at=0.0)
            for traced in (False, True, True)]


def test_passes_pass_every_check(passes):
    assert check_passes(passes[0]["workload"], passes) == [[], [], []]


def test_wrappers_leave_the_digest_unchanged(passes):
    plain, traced, _ = passes
    assert traced["digest"] == plain["digest"]
    assert traced["released"] == plain["released"]


def test_count_metrics_repeat_exactly(passes):
    plain, first, second = passes
    a = per_layer([plain, first])
    b = per_layer([plain, second])
    for name, _unit in PER_LAYER:
        if name not in HOST_TIME_LAYER:
            assert a[name] == b[name], name
    for span in COUNTED_SPANS:
        assert first["spans"][span]["calls"] == \
            second["spans"][span]["calls"], span
    want = end_to_end([plain])
    for traced in (first, second):
        got = end_to_end([dict(traced, traced=False)])
        for name in VIRTUAL_METRICS:
            assert got[name] == want[name], name


def test_every_listed_metric_is_reported(passes):
    assert set(end_to_end(passes)) == {name for name, _ in END_TO_END}
    assert set(per_layer(passes)) == {name for name, _ in PER_LAYER}


def test_metric_lists_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(GATED_WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        list(END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        list(PER_LAYER)


def test_tracer_restores_the_originals():
    from repro.core import recovery
    from repro.middlebox import Monitor
    from repro.orchestration import orchestrator
    from repro.sim import Simulator
    before = (Simulator.step, Monitor.process,
              orchestrator.recover_positions)
    tracer = SpanTracer().install()
    assert Simulator.step is not before[0]
    assert orchestrator.recover_positions is not before[2]
    tracer.remove()
    assert (Simulator.step, Monitor.process,
            orchestrator.recover_positions) == before
    assert recovery.recover_positions is before[2]


def test_check_flags_a_digest_mismatch_and_a_lost_packet():
    base = {"traced": False, "errors": [], "offered": 10, "released": 10,
            "shed": 0, "drops": {}, "unaccounted": 0, "latency_samples": 10,
            "latency_p50_us": 1.0, "latency_p99_us": 2.0,
            "recovery_ms": None, "digest": "a", "layer": {}}
    other = dict(base, digest="b")
    lost = dict(base, released=9, unaccounted=1)
    failures = check_passes("steady-write", [base, other, lost])
    assert failures[0] == []
    assert any("digest" in problem for problem in failures[1])
    assert any("released 9 != offered 10" in p for p in failures[2])


@pytest.mark.xfail(strict=True, reason=(
    "Buffer releases a packet with no wrap-around requirements while an "
    "earlier packet of the same flow is still held, so flows reorder at "
    "egress on firewall -> stateful-firewall -> simplenat (see README)"))
def test_lossy_read_keeps_per_flow_order():
    outcome = run_pass("lossy-read", 1)
    assert outcome.released == outcome.offered
    assert outcome.errors == []


def test_command_without_program_sources_exits_nonzero(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload",
         "steady-write", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
