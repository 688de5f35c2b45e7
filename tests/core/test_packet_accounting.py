"""Packet conservation in the ``ctrlplane-failover`` perf scenario.

A mid-chain crash under a 3-member orchestrator ensemble: every offered
packet is released, dropped at a counted site, or still held at the
buffer when the run ends.  The held ones are a liveness gap, not a
loss: after the 50 ms drain two packets per seed still wait for commits
that never arrive.
"""

import pytest

from repro.perf.scenarios import run_scenario


@pytest.fixture(scope="module", params=(0, 1, 2, 3))
def failover(request):
    captured = {}
    result = run_scenario(
        "ctrlplane-failover", seed=request.param, quick=True,
        on_chain=lambda sim, chain: captured.update(chain=chain))
    return result, captured["chain"]


def _drops(chain):
    net = chain.net
    return {
        "nic.rx_dropped": sum(s.nic.rx_dropped for s in net.servers.values()),
        "net.dropped_to_failed": net.dropped_to_failed,
        "buffer.overflow_dropped": chain.buffer.overflow_dropped,
        "buffer_packets_lost": chain.buffer_packets_lost,
        "classifier_drops": chain.classifier_drops,
        "link.impair_dropped": net.data_impairment_stats()["dropped"],
    }


def test_ctrlplane_failover_accounts_for_every_packet(failover):
    result, chain = failover
    drops = _drops(chain)
    assert drops["net.dropped_to_failed"] > 0
    assert result["offered"] == (result["released"] + sum(drops.values()) +
                                 len(chain.buffer.held))


@pytest.mark.xfail(strict=True, reason="packets held across the failover "
                   "are never released after the drain")
def test_ctrlplane_failover_held_drains(failover):
    _result, chain = failover
    assert len(chain.buffer.held) == 0
