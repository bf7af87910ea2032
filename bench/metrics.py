"""Names, units and bounds of every number the benchmark prints.

One table for the end-to-end metrics and one for the per-layer metrics;
``BENCHMARK.json`` repeats them and ``bench/tests`` holds the two in
step.  Every workload reports every name: a per-layer metric of a layer
the workload never enters reads 0.
"""

from __future__ import annotations

import statistics
from typing import Dict, List, NamedTuple, Sequence

__all__ = ["EndToEnd", "END_TO_END", "PER_LAYER", "unit_of", "median",
           "quartiles", "as_json"]


class EndToEnd(NamedTuple):
    name: str
    unit: str
    better: str
    bound: float


#: What a user of the simulator or the service waits for or pays.  The
#: unit of work behind ``work_per_s`` and the operation behind
#: ``op_p50_ms`` are the workload's own (see README, "Workloads").
END_TO_END: Sequence[EndToEnd] = (
    EndToEnd("setup_s", "s", "lower", 0.25),
    EndToEnd("run_wall_s", "s", "lower", 0.25),
    EndToEnd("work_per_s", "1/s", "higher", 0.25),
    EndToEnd("op_p50_ms", "ms", "lower", 0.25),
    EndToEnd("peak_rss_mb", "MiB", "lower", 0.15),
    EndToEnd("delivery_ratio", "share", "higher", 0.02),
    EndToEnd("tx_per_bcast", "count", "lower", 0.20),
)

_UNIT_BY_SUFFIX = (
    ("_share", "share"), ("_us", "us"), ("_ms", "ms"), ("_s", "s"),
    ("bytes", "B"), ("_per_s_w1", "1/s"), ("_per_s_w2", "1/s"),
)

#: Per-layer metrics, grouped by the module they measure.
PER_LAYER: Sequence[str] = (
    # repro.sim.experiment — staged build_world / finish_world calls
    "sim.experiment.build_world_s",
    "sim.experiment.finish_world_s",
    "sim.experiment.self_s",
    # repro.mobility.placement — rejection-sampled connected placement
    "mobility.placement_s",
    "mobility.placement_tries",
    "mobility.placement_accept_share",
    # repro.des.kernel
    "des.kernel.events",
    "des.kernel.run_s",
    "des.kernel.self_s",
    "des.kernel.event_us",
    # repro.radio.medium (whatever backend ExperimentConfig defaults to)
    "radio.medium.transmits",
    "radio.medium.deliveries",
    "radio.medium.collisions",
    "radio.medium.delivered_share",
    "radio.medium.transmit_s",
    "radio.medium.candidates_s",
    "radio.medium.complete_s",
    "radio.medium.resolve_self_s",
    # one fixed transmission script through each backend's public API
    "radio.medium.grid.sparse_tx_us",
    "radio.medium.grid.dense_tx_us",
    "radio.medium.vectorized.sparse_tx_us",
    "radio.medium.vectorized.dense_tx_us",
    # repro.radio.mac
    "radio.mac.sends",
    "radio.mac.send_s",
    # repro.crypto
    "crypto.signs",
    "crypto.sign_s",
    "crypto.verifies",
    "crypto.verify_s",
    "crypto.verify_hit_share",
    # repro.codec / repro.core.wire
    "codec.encodes",
    "codec.encode_s",
    "codec.encode_hit_share",
    "codec.decode_s",
    # repro.core.protocol
    "core.protocol.handle_packets",
    "core.protocol.handle_packet_self_s",
    # repro.fd
    "fd.calls",
    "fd.self_s",
    # repro.overlay
    "overlay.steps",
    "overlay.step_s",
    # repro.obs
    "obs.overhead_share",
    # repro.sim.checkpoint
    "sim.checkpoint.write_s",
    "sim.checkpoint.load_s",
    "sim.checkpoint.bytes",
    # repro.sim.campaign
    "sim.campaign.exps_per_s_w1",
    "sim.campaign.exps_per_s_w2",
    "sim.campaign.config_key_us",
    "sim.campaign.self_s",
    "sim.campaign.skip_scan_ms",
    "sim.campaign.pool_overhead_s",
    # repro.service
    "service.spec.parse_expand_ms",
    "service.queue.writes",
    "service.queue.write_ms",
    "service.scheduler.job_self_ms",
    "service.scheduler.wake_ms",
    "service.store.load_key_ms",
    "service.http.record_bytes",
    "service.http.record_get_p95_ms",
    "service.http.resubmit_p95_ms",
    "service.http.health_get_ms",
    "service.http.metrics_get_ms",
    "service.http.request_self_ms",
    # the modelled protocol's latency: exact for a seed, far too
    # seed-dependent to carry a bound (see README, "What moved")
    "model.sim_latency_s",
    # the tracer itself
    "trace.spans",
    "trace.overhead_share",
    "trace.coverage_share",
)


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, from its name's suffix."""
    for suffix, unit in _UNIT_BY_SUFFIX:
        if name.endswith(suffix):
            return unit
    return "count"


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def quartiles(values: Sequence[float]) -> List[float]:
    """``[q1, median, q3]`` as ``statistics.quantiles(n=4)`` gives them;
    a single value is its own quartiles."""
    if len(values) < 2:
        return [float(values[0])] * 3
    return [float(q) for q in statistics.quantiles(values, n=4)]


def as_json(metrics: Dict[str, float], units: Dict[str, str]
            ) -> Dict[str, Dict[str, object]]:
    return {name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()}
