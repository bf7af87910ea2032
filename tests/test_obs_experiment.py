"""Observability wired through the experiment runner, campaigns, sweeps.

What these tests pin down:

* an observed run carries a complete ``result.trace`` payload with the
  §3.5 bounds in its metadata,
* ``observe`` is an execution knob — same content hash, identical
  results and byte-identical traces across repeats,
* campaign records persist the metric series (never the raw spans),
* sweep averaging drops the per-run payloads,
* oracle violations are cross-referenced to the span that produced them.
"""

import json

import pytest

from repro.chaos import OracleConfig
from repro.obs import PHASES, ObsConfig
from repro.sim.campaign import Campaign, config_key, result_to_record
from repro.sim.experiment import ExperimentConfig, run_experiment
from repro.sim.sweeps import average_results
from repro.workloads.scenarios import ScenarioConfig

pytestmark = pytest.mark.obs


def observed_config(seed=3, **overrides):
    settings = dict(
        scenario=ScenarioConfig(n=8, seed=seed),
        warmup=4.0, message_count=2, message_interval=1.5, drain=6.0,
        oracle=OracleConfig(),
        observe=ObsConfig(),
    )
    settings.update(overrides)
    return ExperimentConfig(**settings)


@pytest.fixture(scope="module")
def observed_result():
    return run_experiment(observed_config())


class TestResultPayload:
    def test_trace_payload_shape(self, observed_result):
        trace = observed_result.trace
        assert trace is not None
        assert trace["span_count"] == len(trace["spans"]) > 0
        assert trace["dropped_spans"] == 0
        assert {s["phase"] for s in trace["spans"]} <= set(PHASES)
        assert trace["counters"]["spans.deliver"] > 0

    def test_meta_carries_bounds_and_run_identity(self, observed_result):
        meta = observed_result.trace["meta"]
        assert meta["n"] == 8
        assert meta["seed"] == 3
        assert meta["protocol"] == "byzcast"
        assert meta["warmup"] == 4.0
        assert meta["sample_period"] == ObsConfig().sample_period
        assert meta["latency_bound"] > 0
        assert meta["buffer_bound"] > 0

    def test_metric_series_sampled_on_cadence(self, observed_result):
        series = observed_result.trace["series"]
        times = series["time"]
        assert len(times) > 1
        deltas = {round(b - a, 6) for a, b in zip(times, times[1:])}
        assert deltas == {ObsConfig().sample_period}
        for column in ("queue_depth_total", "store_occupancy_total",
                       "request_backlog_total", "fd_suspected_total",
                       "collisions_total", "deliveries_total",
                       "transmissions_total", "buffer_bound",
                       "energy_tx_joules"):
            assert len(series[column]) == len(times), column
        # Store occupancy stays under the §3.5 buffer bound per node.
        bound = observed_result.trace["meta"]["buffer_bound"]
        assert max(series["store_occupancy_max"]) <= bound

    def test_unobserved_run_has_no_trace(self):
        result = run_experiment(observed_config(observe=None))
        assert result.trace is None


class TestNeutrality:
    def test_observe_does_not_change_the_run(self, observed_result):
        plain = run_experiment(observed_config(observe=None))
        assert plain.delivery_ratio == observed_result.delivery_ratio
        assert plain.physical == observed_result.physical
        assert plain.mean_latency == observed_result.mean_latency

    def test_observed_repeats_byte_identical(self, observed_result):
        again = run_experiment(observed_config())
        assert json.dumps(again.trace, sort_keys=True) == \
            json.dumps(observed_result.trace, sort_keys=True)

    def test_config_key_ignores_observe(self):
        assert config_key(observed_config()) == \
            config_key(observed_config(observe=None))
        assert config_key(observed_config()) == config_key(
            observed_config(observe=ObsConfig(sample_period=2.0)))


class TestCampaignRecords:
    def test_record_carries_metrics_but_not_spans(
            self, observed_result, tmp_path):
        record = result_to_record(observed_config(), observed_result)
        metrics = record["metrics"]
        assert metrics["span_count"] == observed_result.trace["span_count"]
        assert metrics["series"]["time"]
        assert metrics["counters"]["spans.deliver"] > 0
        assert metrics["meta"]["latency_bound"] > 0
        assert "spans" not in metrics
        # And it is JSON-serialisable as persisted by a campaign.
        campaign = Campaign(str(tmp_path))
        campaign._write(record["key"], record)
        (loaded,) = campaign.records()
        assert loaded["metrics"]["span_count"] == metrics["span_count"]

    def test_unobserved_record_has_null_metrics(self):
        config = observed_config(observe=None)
        record = result_to_record(config, run_experiment(config))
        assert record["metrics"] is None


class TestSweepAveraging:
    def test_average_results_drops_per_run_artifacts(self):
        results = [run_experiment(observed_config(seed=seed, profile=True))
                   for seed in (3, 4)]
        averaged = average_results(results)
        assert (averaged.trace, averaged.profile, averaged.runtime) \
            == (None, None, None)
        assert averaged.delivery_ratio == pytest.approx(
            sum(r.delivery_ratio for r in results) / 2)

    def test_mixed_replicates_average_to_none_trace(self):
        results = [run_experiment(observed_config(observe=None, seed=seed))
                   for seed in (3, 4)]
        assert average_results(results).trace is None


class TestOracleCrossReference:
    def test_violation_points_at_the_producing_span(self):
        # Feed the oracle a duplicate delivery while a span for the
        # offending node is live: the violation record must name that
        # span, so `repro trace path` can jump straight to the evidence.
        from repro.chaos.oracle import InvariantOracle
        from repro.core.config import ProtocolConfig
        from repro.core.messages import MessageId
        from repro.des.kernel import Simulator
        from repro.obs import ObsContext, session

        sim = Simulator()
        oracle = InvariantOracle(sim, [], ProtocolConfig(), delta=0.5)
        msg_id = MessageId(0, 1)
        with session(ObsContext(ObsConfig(), sim=sim)) as ctx:
            oracle.on_broadcast(msg_id, b"payload", 0.0)
            deliver_span = ctx.span("deliver", 2, msg=(0, 1), sender=0)
            oracle.accept_listener(2, 0, b"payload", msg_id)
            oracle.accept_listener(2, 0, b"payload", msg_id)
        (violation,) = oracle.violations
        assert violation.invariant == "duplicate_delivery"
        assert violation.detail["span"] == deliver_span

    def test_violation_without_matching_span_stays_clean(self):
        from repro.chaos.oracle import InvariantOracle
        from repro.core.config import ProtocolConfig
        from repro.core.messages import MessageId
        from repro.des.kernel import Simulator
        from repro.obs import ObsContext, session

        sim = Simulator()
        oracle = InvariantOracle(sim, [], ProtocolConfig(), delta=0.5)
        msg_id = MessageId(0, 1)
        with session(ObsContext(ObsConfig(), sim=sim)):
            oracle.on_broadcast(msg_id, b"payload", 0.0)
            oracle.accept_listener(2, 0, b"payload", msg_id)
            oracle.accept_listener(2, 0, b"payload", msg_id)
        (violation,) = oracle.violations
        assert "span" not in violation.detail
