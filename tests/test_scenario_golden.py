"""Golden outcome digests for every harness built on one chain run.

Each soak kind, each perf scenario and each sweep experiment is reduced
to a sha256 digest of its virtual-time outcome.  The pinned values were
computed before the harnesses were folded into :mod:`repro.scenario`;
any change to build order, drain, checks or result mapping that moves
a single packet, fault, violation or table cell fails here.

Regenerate a digest only for a deliberate model change, and say so in
CHANGES.md.  ``python tests/test_scenario_golden.py`` prints them all.
"""

import hashlib
import json

import pytest

from repro.chaos import OverloadSpec, SoakConfig, run_soak
from repro.perf import StageProfiler
from repro.perf.scenarios import run_scenario, scenario_names

IMPAIR = (0.05, 0.02, 0.02, 0.01)

#: One config per soak kind, three schedules each (seeds 0, 1, 2).
SOAK_KINDS = {
    "plain": dict(),
    "impaired": dict(impair_data=IMPAIR),
    "ctrlplane": dict(orchestrators=3, orch_faults=True),
    "reconfig": dict(reconfig=True),
    "reconfig-crashes": dict(reconfig=True, reconfig_crashes=True),
    "reconfig-orch3": dict(reconfig=True, orchestrators=3),
    "overload": dict(overload=OverloadSpec()),
    "overload-crash-orch3": dict(
        overload=OverloadSpec.parse("crash=1,orch=3")),
}

#: The soak command lines CI runs, as SoakConfig keyword arguments.
CI_SOAKS = {
    "ci-plain": dict(schedules=8, faults_per_schedule=3,
                     chain_lengths=(2, 3, 4), f_values=(1, 2),
                     duration_s=0.04, flight=True),
    "ci-impaired": dict(schedules=4, chain_lengths=(2, 3), f_values=(1,),
                        duration_s=0.03, telemetry=True, impair_data=IMPAIR),
    "ci-ctrlplane": dict(schedules=4, chain_lengths=(3,), f_values=(1,),
                         duration_s=0.08, orchestrators=3, orch_faults=True,
                         flight=True),
    "ci-reconfig": dict(schedules=4, chain_lengths=(3,), f_values=(1,),
                        reconfig=True, flight=True),
    "ci-overload": dict(schedules=2, chain_lengths=(3,), f_values=(1,),
                        overload=OverloadSpec(), flight=True),
    "ci-overload-crash": dict(schedules=1, chain_lengths=(3,), f_values=(1,),
                              overload=OverloadSpec.parse("crash=1,orch=3"),
                              flight=True),
}

EXPERIMENTS = ("lossy", "reconfig", "overload")

GOLDEN = {
    'soak/ctrlplane':
        '810de463fc25dbef0e7eb2404392f2fcbd166d61af324ead47532549dc443de0',
    'soak/impaired':
        '6af18867ae708333b42af6a1a6f2905a880a733118def8f2b94942b383f6a009',
    'soak/overload':
        'e882578dd8ae4d9aebcce0816fb5ee38e2b75f29c836e49a05757996de1c53cb',
    'soak/overload-crash-orch3':
        'f4735b066a8c986eea3d991e09719dc5082b50dcf5d7e98505eaba37cad82364',
    'soak/plain':
        '30e6a4842015ee16551ab01b643f112888193e990bee2a40b2e4c155416d9d04',
    'soak/reconfig':
        '6dbbd343c18d8cfd3e3f855cdb1fe2246417c3921cab5824b33aad96dc37c519',
    'soak/reconfig-crashes':
        '0cf18c6ac767de3822546d05292d542f0ea76ca48e40478f1677eb235b298f29',
    'soak/reconfig-orch3':
        'efa8fd9d851f504c8a78f69d79adb378d16b9485170eda35244681e953cea2a9',
    'summary/ci-ctrlplane':
        '09bcca35ddf26ea24b83b81c5d6f2e91e60810eeea4c663c729fcad48be93c69',
    'summary/ci-impaired':
        '137c7a913c826cd3d3ba6048bc54e1d1ec0feb0c566fcb78f64f1d3167b371b1',
    'summary/ci-overload':
        'dc40bc5bf4afe990086100ee5b3f01fc7c23d6ce31eff02f3c1a392fc89286ca',
    'summary/ci-overload-crash':
        'a834cfa52065b96f70a7bb6b0f7681c2838bdb6bdabcaba54dda48baf2cc6903',
    'summary/ci-plain':
        '3d8b1ad67aa7fe29d2ad06db358330e45e8687a870d98fb82f78617f618710e2',
    'summary/ci-reconfig':
        'c37056c93fabd4d01509a4c1aebb8b098cf38ba3f72ca978973f74811aa2049f',
    'perf/baseline':
        '52bf44aea378f7f987ecde80e992e61590f2593caed8f66aa3cd3a5b8b148ae3',
    'perf/reliable-links':
        'cc605863572978ed7d48816a3ec99bce7c2c7b282778232b244732b9ebca1a65',
    'perf/lossy':
        'b4d3d0ccc91e07dc8df2185506d464cdacb66a8dd9fc90121efae37517be3c22',
    'perf/ctrlplane-failover':
        '346202a85dd918111e23ae7b42118f26b524d430e2cf93eb2a73d4efcb6def4f',
    'perf/reconfig-under-traffic':
        '5069449668a426a447e6108779ad73cbbe066cb42159e58e87b090e1cc474c1e',
    'perf/overload':
        '7481d43d67016129f5452e73798dba11757941618b8ecd3feea15f33bd619355',
    'experiment/lossy':
        'e107700b15ed89f78cf5c7a9cb70f09fcf5f8756f04b570d845019afd7ae09da',
    'experiment/reconfig':
        '64f18486f96d7d4e40dd7fed80bd0ea906d3d951d6148775cd650b1645fc6ff1',
    'experiment/overload':
        'fc927e4501a875ea7114478559a950b3c60c8e3e7d174d5d1724b73c5dbcc78f',
}


def _digest(value) -> str:
    text = json.dumps(value, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode()).hexdigest()


def schedule_fields(result) -> dict:
    """Everything a schedule's outcome pins, with pids made relative
    (packet ids come from a process-global counter)."""
    pids = result.egress_pids
    return {
        "faults": [[t, what] for t, what in result.faults],
        "violations": [str(v) for v in result.violations],
        "released": result.released,
        "sent": result.sent,
        "egress_pids": (None if pids is None
                        else [p - pids[0] for p in pids]),
        "failures": [result.failures_detected, result.recoveries,
                     result.degraded],
        "retransmissions": result.retransmissions,
        "control": [result.elections, result.fenced_commands],
        "reconfigs": [result.reconfigs_committed, result.reconfigs_aborted],
        "admission": [result.offered, result.admitted, result.shed],
        "goodput_pps": result.goodput_pps,
        "brownout": result.brownout_transitions,
        "timeline": result.timeline,
    }


def soak_kind_digest(kind: str) -> str:
    config = SoakConfig(seed=0, schedules=3, chain_lengths=(3,),
                        f_values=(1,), **SOAK_KINDS[kind])
    return _digest([schedule_fields(s) for s in run_soak(config).schedules])


def ci_soak_digest(name: str, dump_dir: str) -> str:
    config = SoakConfig(seed=0, flight_dump_dir=dump_dir, **CI_SOAKS[name])
    return _digest(run_soak(config).summary())


def perf_digest(name: str) -> str:
    plain = run_scenario(name, seed=0, quick=True)
    profiler = StageProfiler()
    profiled = run_scenario(name, seed=0, quick=True, profiler=profiler)
    return _digest({"plain": plain, "profiled": profiled,
                    "calls": dict(sorted(profiler.calls.items()))})


def experiment_digest(name: str) -> str:
    import importlib
    result = importlib.import_module(f"repro.experiments.{name}").run()
    return _digest({"headers": result.headers,
                    "rows": [list(row) for row in result.rows]})


@pytest.mark.parametrize("kind", sorted(SOAK_KINDS))
def test_soak_kind_outcome(kind):
    assert soak_kind_digest(kind) == GOLDEN[f"soak/{kind}"]


@pytest.mark.parametrize("name", sorted(CI_SOAKS))
def test_ci_soak_summary(name, tmp_path):
    assert ci_soak_digest(name, str(tmp_path)) == GOLDEN[f"summary/{name}"]


@pytest.mark.parametrize("name", scenario_names())
def test_perf_scenario_result(name):
    assert perf_digest(name) == GOLDEN[f"perf/{name}"]


@pytest.mark.parametrize("name", EXPERIMENTS)
def test_experiment_table(name, monkeypatch):
    monkeypatch.delenv("REPRO_FULL", raising=False)
    assert experiment_digest(name) == GOLDEN[f"experiment/{name}"]


if __name__ == "__main__":
    import tempfile
    with tempfile.TemporaryDirectory() as tmp:
        jobs = ([(f"soak/{k}", soak_kind_digest, (k,)) for k in SOAK_KINDS]
                + [(f"summary/{n}", ci_soak_digest, (n, tmp))
                   for n in CI_SOAKS]
                + [(f"perf/{n}", perf_digest, (n,)) for n in scenario_names()]
                + [(f"experiment/{n}", experiment_digest, (n,))
                   for n in EXPERIMENTS])
        for key, digest, args in jobs:
            print(f"    {key!r}:\n        {digest(*args)!r},")
