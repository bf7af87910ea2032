"""The wall-clock metrics registry and its exposition parser.

The contract under test: the hand-rolled renderer emits Prometheus text
exposition 0.0.4 that the *validating* parser in ``tests/prometheus.py``
accepts, and the parser genuinely rejects malformed documents — so the
CI smoke's "/metrics parses" assertion means something.
"""

import math
import threading

import pytest

from repro.telemetry.metrics import DEFAULT_BUCKETS, TelemetryRegistry
from tests.prometheus import ExpositionError, parse_exposition, sample_value


class TestCounter:
    def test_starts_at_zero_and_accumulates(self):
        counter = TelemetryRegistry().counter("repro_test_total")
        assert counter.value == 0
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5

    def test_rejects_negative_increments(self):
        counter = TelemetryRegistry().counter("repro_test_total")
        with pytest.raises(ValueError):
            counter.inc(-1)
        assert counter.value == 0


class TestGauge:
    def test_set_inc_dec(self):
        gauge = TelemetryRegistry().gauge("repro_depth")
        gauge.set(4)
        gauge.inc()
        gauge.dec(2)
        assert gauge.value == 3


class TestHistogram:
    def test_observe_fills_cumulative_buckets(self):
        registry = TelemetryRegistry()
        hist = registry.histogram("repro_chunk_seconds",
                                  buckets=(0.1, 1.0, 10.0))
        for value in (0.05, 0.5, 0.5, 5.0, 50.0):
            hist.observe(value)
        families = parse_exposition(registry.render())
        family = families["repro_chunk_seconds"]
        bucket = "repro_chunk_seconds_bucket"
        assert family.value({"le": "0.1"}, series=bucket) == 1
        assert family.value({"le": "1"}, series=bucket) == 3
        assert family.value({"le": "10"}, series=bucket) == 4
        assert family.value({"le": "+Inf"}, series=bucket) == 5
        assert family.value(series="repro_chunk_seconds_count") == 5
        assert family.value(series="repro_chunk_seconds_sum") \
            == pytest.approx(56.05)

    def test_rejects_empty_or_duplicate_buckets(self):
        registry = TelemetryRegistry()
        with pytest.raises(ValueError):
            registry.histogram("repro_bad", buckets=())
        with pytest.raises(ValueError):
            registry.histogram("repro_bad2", buckets=(1.0, 1.0))

    def test_default_buckets_are_sorted(self):
        assert list(DEFAULT_BUCKETS) == sorted(DEFAULT_BUCKETS)


class TestRegistry:
    def test_registration_is_idempotent(self):
        registry = TelemetryRegistry()
        a = registry.counter("repro_jobs_total", "help one")
        b = registry.counter("repro_jobs_total", "help two")
        assert a is b

    def test_type_mismatch_rejected(self):
        registry = TelemetryRegistry()
        registry.counter("repro_jobs_total")
        with pytest.raises(ValueError):
            registry.gauge("repro_jobs_total")

    def test_invalid_names_rejected(self):
        registry = TelemetryRegistry()
        for bad in ("7starts_with_digit", "has space", "has-dash", ""):
            with pytest.raises(ValueError):
                registry.counter(bad)

    def test_snapshot_plain_dict(self):
        registry = TelemetryRegistry()
        registry.counter("repro_a_total").inc(2)
        registry.gauge("repro_b").set(1.5)
        registry.histogram("repro_c").observe(0.3)
        snap = registry.snapshot()
        assert snap["repro_a_total"] == 2
        assert snap["repro_b"] == 1.5
        assert snap["repro_c"] == {"count": 1, "sum": 0.3}

    def test_concurrent_increments_do_not_lose_counts(self):
        registry = TelemetryRegistry()
        counter = registry.counter("repro_hits_total")

        def hammer():
            for _ in range(1000):
                counter.inc()

        threads = [threading.Thread(target=hammer) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert counter.value == 4000


class TestRenderParseRoundTrip:
    def build(self):
        registry = TelemetryRegistry()
        registry.counter("repro_jobs_completed_total",
                         "Jobs finished in state done.").inc(3)
        registry.gauge("repro_queue_depth", "Waiting jobs.").set(2)
        registry.histogram("repro_chunk_seconds", "Chunk wall time.",
                           buckets=(0.5, 5.0)).observe(0.2)
        return registry

    def test_render_parses_cleanly(self):
        families = parse_exposition(self.build().render())
        assert families["repro_jobs_completed_total"].kind == "counter"
        assert families["repro_queue_depth"].kind == "gauge"
        assert families["repro_chunk_seconds"].kind == "histogram"
        assert sample_value(families, "repro_jobs_completed_total") == 3
        assert sample_value(families, "repro_queue_depth") == 2

    def test_help_text_survives(self):
        families = parse_exposition(self.build().render())
        assert families["repro_queue_depth"].help == "Waiting jobs."

    def test_help_with_newline_escaped(self):
        registry = TelemetryRegistry()
        registry.counter("repro_x_total", "line one\nline two").inc()
        parse_exposition(registry.render())  # must not raise


class TestParserRejections:
    def test_sample_without_type(self):
        with pytest.raises(ExpositionError):
            parse_exposition("repro_orphan_total 3\n")

    def test_malformed_sample_line(self):
        with pytest.raises(ExpositionError):
            parse_exposition("# TYPE repro_x counter\nrepro_x\n")

    def test_bad_value(self):
        with pytest.raises(ExpositionError):
            parse_exposition("# TYPE repro_x counter\nrepro_x pretzel\n")

    def test_unknown_type(self):
        with pytest.raises(ExpositionError):
            parse_exposition("# TYPE repro_x pie\nrepro_x 1\n")

    def test_duplicate_type(self):
        text = ("# TYPE repro_x counter\n"
                "# TYPE repro_x counter\nrepro_x 1\n")
        with pytest.raises(ExpositionError):
            parse_exposition(text)

    def test_malformed_label(self):
        text = '# TYPE repro_x counter\nrepro_x{le=oops} 1\n'
        with pytest.raises(ExpositionError):
            parse_exposition(text)

    def test_histogram_missing_inf_bucket(self):
        text = ("# TYPE repro_h histogram\n"
                'repro_h_bucket{le="1"} 2\n'
                "repro_h_sum 1.0\nrepro_h_count 2\n")
        with pytest.raises(ExpositionError):
            parse_exposition(text)

    def test_histogram_non_cumulative_buckets(self):
        text = ("# TYPE repro_h histogram\n"
                'repro_h_bucket{le="1"} 5\n'
                'repro_h_bucket{le="+Inf"} 3\n'
                "repro_h_sum 1.0\nrepro_h_count 3\n")
        with pytest.raises(ExpositionError):
            parse_exposition(text)

    def test_histogram_missing_sum(self):
        text = ("# TYPE repro_h histogram\n"
                'repro_h_bucket{le="+Inf"} 1\n'
                "repro_h_count 1\n")
        with pytest.raises(ExpositionError):
            parse_exposition(text)

    def test_series_not_allowed_for_counter(self):
        text = ("# TYPE repro_x counter\n"
                "repro_x_flavor 1\n")
        with pytest.raises(ExpositionError):
            parse_exposition(text)

    def test_inf_values_parse(self):
        text = "# TYPE repro_x gauge\nrepro_x +Inf\n"
        families = parse_exposition(text)
        assert families["repro_x"].value() == math.inf
