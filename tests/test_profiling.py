"""Per-phase cost profiler: sessions, instrumentation, determinism."""

import pytest

from repro import profiling
from repro.crypto.keystore import HmacScheme, KeyDirectory
from repro.des.kernel import Simulator
from repro.sim import ExperimentConfig, run_experiment
from repro.sim.campaign import result_to_record
from repro.workloads.scenarios import ScenarioConfig


@pytest.fixture(autouse=True)
def no_leaked_profiler():
    assert profiling.ACTIVE is None
    yield
    profiling.ACTIVE = None


class TestProfiler:
    def test_add_accumulates_counts_and_seconds(self):
        prof = profiling.Profiler()
        prof.add("crypto.verify", 0.25)
        prof.add("crypto.verify", 0.5)
        prof.add("crypto.verify_hit")
        assert prof.count("crypto.verify") == 2
        assert prof.seconds("crypto.verify") == pytest.approx(0.75)
        assert prof.count("crypto.verify_hit") == 1
        assert prof.seconds("crypto.verify_hit") == 0.0

    def test_unknown_phase_reads_zero(self):
        prof = profiling.Profiler()
        assert prof.count("nope") == 0
        assert prof.seconds("nope") == 0.0

    def test_time_context_manager(self):
        prof = profiling.Profiler()
        with prof.time("phase"):
            pass
        assert prof.count("phase") == 1
        assert prof.seconds("phase") >= 0.0

    def test_summary_is_sorted_plain_dict(self):
        prof = profiling.Profiler()
        prof.add("b.phase", 1.0)
        prof.add("a.phase", 2.0, count=3)
        summary = prof.summary()
        assert list(summary) == ["a.phase", "b.phase"]
        assert summary["a.phase"] == {"count": 3, "seconds": 2.0}

    def test_clear(self):
        prof = profiling.Profiler()
        prof.add("x", 1.0)
        prof.clear()
        assert prof.summary() == {}


class TestSession:
    def test_session_installs_and_restores(self):
        with profiling.session() as prof:
            assert profiling.ACTIVE is prof
            assert profiling.active() is prof
        assert profiling.ACTIVE is None

    def test_sessions_nest(self):
        with profiling.session() as outer:
            with profiling.session() as inner:
                assert profiling.ACTIVE is inner
            assert profiling.ACTIVE is outer
        assert profiling.ACTIVE is None

    def test_session_restores_on_exception(self):
        with pytest.raises(RuntimeError):
            with profiling.session():
                raise RuntimeError("boom")
        assert profiling.ACTIVE is None

    def test_activate_accepts_existing_profiler(self):
        prof = profiling.Profiler()
        try:
            assert profiling.activate(prof) is prof
            assert profiling.ACTIVE is prof
        finally:
            profiling.deactivate()
        assert profiling.ACTIVE is None


class TestInstrumentation:
    def test_crypto_phases_recorded_when_active(self):
        directory = KeyDirectory(HmacScheme(seed=b"prof"))
        signer = directory.issue(1)
        with profiling.session() as prof:
            signature = signer.sign(b"msg")
            directory.verify(1, b"msg", signature)
        assert prof.count("crypto.sign") == 1
        assert prof.count("crypto.verify") == 1

    def test_nothing_recorded_when_inactive(self):
        directory = KeyDirectory(HmacScheme(seed=b"prof"))
        signer = directory.issue(1)
        signature = signer.sign(b"msg")
        directory.verify(1, b"msg", signature)
        assert profiling.ACTIVE is None

    def test_kernel_event_phase(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        with profiling.session() as prof:
            sim.run()
        assert prof.count("kernel.event") == 2

    def test_verify_cache_hit_phase(self):
        directory = KeyDirectory(HmacScheme(seed=b"prof"))
        signer = directory.issue(1)
        view = directory.caching_view(8)
        signature = signer.sign(b"msg")
        with profiling.session() as prof:
            view.verify(1, b"msg", signature)
            view.verify(1, b"msg", signature)
        assert prof.count("crypto.verify") == 1
        assert prof.count("crypto.verify_hit") == 1


SMALL = dict(warmup=3.0, message_count=2, message_interval=1.0, drain=4.0)


class TestExperimentProfile:
    def test_profile_off_by_default(self):
        config = ExperimentConfig(scenario=ScenarioConfig(n=8, seed=3),
                                  **SMALL)
        result = run_experiment(config)
        assert result.profile is None
        assert result_to_record(config, result)["profile"] is None

    def test_profile_collected_and_session_closed(self):
        config = ExperimentConfig(scenario=ScenarioConfig(n=8, seed=3),
                                  profile=True, **SMALL)
        result = run_experiment(config)
        assert profiling.ACTIVE is None
        assert result.profile
        for phase in ("crypto.sign", "crypto.verify", "kernel.event",
                      "medium.complete", "hello.send", "hello.recv"):
            assert result.profile[phase]["count"] > 0
            assert result.profile[phase]["seconds"] >= 0.0
        assert set(result.profile) <= set(profiling.PHASES)
        assert result_to_record(config, result)["profile"] is not None

    def test_phase_counts_deterministic(self):
        """Counts (not seconds) repeat exactly for a seeded run."""
        config = ExperimentConfig(scenario=ScenarioConfig(n=8, seed=3),
                                  profile=True, **SMALL)
        counts = [
            {phase: stats["count"]
             for phase, stats in run_experiment(config).profile.items()}
            for _ in range(2)
        ]
        assert counts[0] == counts[1]

    def test_hello_phase_counts_are_beacons_sent_and_heard(self,
                                                            monkeypatch):
        """``hello.send`` / ``hello.recv`` count beacons handed to the MAC
        and HELLO deliveries, and repeat exactly for a seeded run."""
        from repro.radio.neighbors import NeighborService
        from repro.radio.radio import Radio
        sent, heard = [], []
        real_send, real_handle = Radio.send, NeighborService.handle_packet

        def send(self, payload, size_bytes, kind="data", **kwargs):
            if kind == "hello":
                sent.append(1)
            return real_send(self, payload, size_bytes, kind=kind, **kwargs)

        def handle_packet(self, packet):
            consumed = real_handle(self, packet)
            if consumed:
                heard.append(1)
            return consumed

        monkeypatch.setattr(Radio, "send", send)
        monkeypatch.setattr(NeighborService, "handle_packet", handle_packet)
        config = ExperimentConfig(scenario=ScenarioConfig(n=8, seed=3),
                                  profile=True, **SMALL)
        counts = []
        for _ in range(2):
            del sent[:], heard[:]
            profile = run_experiment(config).profile
            assert profile["hello.send"]["count"] == len(sent) > 0
            assert profile["hello.recv"]["count"] == len(heard) > len(sent)
            counts.append((len(sent), len(heard)))
        assert counts[0] == counts[1]

    def test_obs_phase_counts_are_sampler_ticks_and_one_export(self):
        """``obs.sample`` counts metric-sampler ticks and ``obs.export``
        the single payload export; neither appears unobserved."""
        from repro.obs import ObsConfig
        plain = ExperimentConfig(scenario=ScenarioConfig(n=8, seed=3),
                                 profile=True, **SMALL)
        assert not {"obs.sample", "obs.export"} & set(
            run_experiment(plain).profile)
        observed = ExperimentConfig(scenario=ScenarioConfig(n=8, seed=3),
                                    profile=True, observe=ObsConfig(),
                                    **SMALL)
        for _ in range(2):
            result = run_experiment(observed)
            ticks = len(result.trace["series"]["time"])
            assert result.profile["obs.sample"]["count"] == ticks > 0
            assert result.profile["obs.export"]["count"] == 1
            assert set(result.profile) <= set(profiling.PHASES)

    def test_profiling_does_not_change_results(self):
        """A profiled run's record equals the unprofiled run's record
        once the profile block itself is removed."""
        import json
        base = ExperimentConfig(scenario=ScenarioConfig(n=8, seed=3),
                                **SMALL)
        profiled = ExperimentConfig(scenario=ScenarioConfig(n=8, seed=3),
                                    profile=True, **SMALL)
        plain_rec = result_to_record(base, run_experiment(base))
        prof_rec = result_to_record(profiled, run_experiment(profiled))
        for record in (plain_rec, prof_rec):
            record.pop("profile")
            record.pop("key")      # config hash differs by the flag
            record.pop("config")
            record.pop("runtime", None)  # embeds profile totals + wall
        assert (json.dumps(plain_rec, sort_keys=True)
                == json.dumps(prof_rec, sort_keys=True))
