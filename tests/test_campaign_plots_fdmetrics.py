"""Tests for campaigns and FD scorecards."""

from repro.adversary.behaviors import MuteBehavior
from repro.metrics.fd_metrics import FdScorecard
from repro.sim.campaign import Campaign, config_key, result_to_record
from repro.sim.experiment import ExperimentConfig, run_experiment
from repro.workloads.scenarios import ScenarioConfig

from tests.helpers import build_network

FAST = dict(message_count=2, message_interval=1.0, warmup=5.0, drain=8.0)


class TestCampaign:
    def configs(self):
        return [ExperimentConfig(scenario=ScenarioConfig(n=10, seed=s),
                                 **FAST)
                for s in (1, 2)]

    def test_run_persists_records(self, tmp_path):
        campaign = Campaign(str(tmp_path / "camp"))
        executed, skipped = campaign.run(self.configs())
        assert (executed, skipped) == (2, 0)
        records = campaign.records()
        assert len(records) == 2
        assert all(0 <= r["delivery_ratio"] <= 1 for r in records)

    def test_resume_skips_done_work(self, tmp_path):
        campaign = Campaign(str(tmp_path / "camp"))
        campaign.run(self.configs())
        executed, skipped = campaign.run(self.configs())
        assert (executed, skipped) == (0, 2)

    def test_force_reruns(self, tmp_path):
        campaign = Campaign(str(tmp_path / "camp"))
        configs = self.configs()[:1]
        campaign.run(configs)
        executed, _ = campaign.run(configs, force=True)
        assert executed == 1

    def test_config_key_stable_and_distinct(self):
        a1 = ExperimentConfig(scenario=ScenarioConfig(n=10, seed=1), **FAST)
        a2 = ExperimentConfig(scenario=ScenarioConfig(n=10, seed=1), **FAST)
        b = ExperimentConfig(scenario=ScenarioConfig(n=10, seed=2), **FAST)
        assert config_key(a1) == config_key(a2)
        assert config_key(a1) != config_key(b)

    def test_load_roundtrip(self, tmp_path):
        campaign = Campaign(str(tmp_path / "camp"))
        config = self.configs()[0]
        campaign.run([config])
        record = campaign.load(config)
        assert record is not None
        assert record["key"] == config_key(config)
        assert campaign.has(config)

    def test_rows_projection(self, tmp_path):
        campaign = Campaign(str(tmp_path / "camp"))
        campaign.run(self.configs())
        rows = campaign.rows("protocol", "seed")
        assert {row["seed"] for row in rows} == {1, 2}
        assert all(set(row) == {"protocol", "seed"} for row in rows)

    def test_record_shape(self):
        config = self.configs()[0]
        result = run_experiment(config)
        record = result_to_record(config, result)
        assert record["protocol"] == "byzcast"
        assert isinstance(record["physical"], dict)
        assert isinstance(record["config"], dict)


class TestFdScorecard:
    def run_attack(self):
        positions = [(0.0, 0.0), (80.0, 30.0), (80.0, -30.0), (160.0, 0.0)]
        sim, medium, nodes, _ = build_network(
            positions, 100.0, behaviors={2: MuteBehavior()})
        scorecard = FdScorecard(byzantine={2}, correct={0, 1, 3})
        scorecard.attach_network(nodes, sim)
        sim.run(until=8.0)
        start = sim.now
        for i in range(8):
            nodes[0].broadcast(f"p{i}".encode())
            sim.run(until=sim.now + 3.0)
        return scorecard, start

    def test_recall_and_precision(self):
        scorecard, _ = self.run_attack()
        assert scorecard.recall() == 1.0
        assert scorecard.precision() == 1.0
        assert scorecard.wrongly_suspected_nodes() == set()

    def test_detection_latency(self):
        scorecard, start = self.run_attack()
        latency = scorecard.detection_latency(2, since=start)
        assert latency is not None
        assert 0 < latency < 30.0
        assert scorecard.detection_latency(99) is None

    def test_summary(self):
        scorecard, _ = self.run_attack()
        summary = scorecard.summary()
        assert summary["recall"] == 1.0
        assert summary["events"] >= 1

    def test_byzantine_observers_not_scored(self):
        scorecard = FdScorecard(byzantine={2}, correct={0})
        scorecard.record(1.0, observer=2, target=0, detector="mute")
        assert scorecard.events == []

    def test_empty_scorecard_defaults(self):
        scorecard = FdScorecard(byzantine=set(), correct={0})
        assert scorecard.precision() is None
        assert scorecard.recall() == 1.0
