"""Tests for the experiment harness (fast, shrunken windows)."""

import pytest

from repro.experiments import ExperimentResult, build_system
from repro.experiments.runner import latency_under_load, saturation_throughput
from repro.metrics import EgressRecorder
from repro.middlebox import Monitor, ch_n
from repro.sim import Simulator


class TestExperimentResult:
    def test_add_and_column(self):
        result = ExperimentResult("X", headers=["a", "b"])
        result.add(1, 2)
        result.add(3, 4)
        assert result.column("b") == [2, 4]

    def test_render_includes_title_and_notes(self):
        result = ExperimentResult("Title", headers=["a"])
        result.add(1)
        result.notes.append("hello")
        text = result.render()
        assert "Title" in text and "hello" in text


class TestBuildSystem:
    @pytest.mark.parametrize("kind", ["nf", "FTC", "ftmb", "FTMB+Snapshot",
                                      "remote-store"])
    def test_known_kinds(self, kind):
        sim = Simulator()
        system = build_system(kind, sim, ch_n(2, n_threads=2),
                              EgressRecorder(sim), n_threads=2)
        assert hasattr(system, "ingress")
        assert hasattr(system, "total_released")

    def test_unknown_kind_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            build_system("paxos", sim, ch_n(1), lambda p: None)


class TestMeasurements:
    def test_saturation_respects_nic_cap(self):
        mpps = saturation_throughput(
            "nf", lambda: [Monitor(name="m", n_threads=2)],
            n_threads=2, warm_s=0.3e-3, window_s=0.7e-3)
        # Two threads of Monitor: CPU-bound below the NIC cap.
        assert 0 < mpps <= 10.5

    def test_saturation_deterministic_given_seed(self):
        def once():
            return saturation_throughput(
                "ftc", lambda: ch_n(2, n_threads=2), n_threads=2,
                warm_s=0.3e-3, window_s=0.7e-3, seed=5)

        assert once() == once()

    def test_latency_under_light_load_near_floor(self):
        egress = latency_under_load(
            "nf", lambda: ch_n(2, n_threads=2), rate_pps=1e5,
            n_threads=2, warm_s=0.3e-3, window_s=1e-3)
        assert len(egress.latency) > 0
        assert egress.latency.mean_us() < 30

    def test_latency_grows_with_load(self):
        light = latency_under_load(
            "nf", lambda: [Monitor(name="m", n_threads=1)], rate_pps=0.5e6,
            n_threads=1, warm_s=0.3e-3, window_s=1.5e-3)
        heavy = latency_under_load(
            "nf", lambda: [Monitor(name="m", n_threads=1)], rate_pps=3.4e6,
            n_threads=1, warm_s=0.3e-3, window_s=1.5e-3)
        assert heavy.latency.mean_us() > light.latency.mean_us()


class TestLossyExperiment:
    def test_raw_link_goodput_is_the_offered_rate(self, monkeypatch):
        """The 0.00 row offers 0.1 Mpps on raw links and delivers every
        packet, so goodput over the traffic window reads ~0.1 Mpps."""
        from repro.experiments import lossy
        monkeypatch.delenv("REPRO_FULL", raising=False)
        result = lossy.run()
        row = result.rows[result.column("Drop rate").index("0.00")]
        goodput = row[result.headers.index("Goodput (Mpps)")]
        assert goodput == pytest.approx(lossy.OFFERED_PPS / 1e6, rel=0.10)
