"""E12-extended — the two-tier scale curve (extension experiment).

E12 stops at the paper's hundred-node scale.  This benchmark pushes one
order of magnitude further on each tier:

* **packet tier** (vectorized medium): full event-level flooding runs at
  n = 500 … 5000 — 10x beyond the E1–E6 sweep ceiling of n=500;
* **fluid tier** (mean-field recurrence): the same scenario family at
  n = 500 … 100 000 — 100x beyond any packet run, in milliseconds.

On the overlapping n the two tiers must agree: the fluid calibration
bound promises delivery within ±0.05 of packet level for the calibrated
protocol class (flooding / byzcast / optflood; see
``src/repro/sim/fluid.py``).  That bound is asserted here, on real
packet runs, at every overlapping point.

Geometry is the constant-degree regime (``ScenarioConfig`` sizes the
area for mean degree 8), so delivery is comparable across n and the
curve isolates scale, not density.

Smoke mode (``REPRO_BENCH_SMOKE=1``) caps the packet curve at n=2000 so
CI can afford it; the committed ``results/e12_extended_scale.txt`` is
the full-scale run.
"""

import os
import time

from repro.sim.experiment import ExperimentConfig, run_experiment
from repro.workloads.scenarios import ScenarioConfig

from common import emit, once

SMOKE = bool(os.environ.get("REPRO_BENCH_SMOKE"))

PACKET_NS = (500, 1000, 2000) if SMOKE else (500, 1000, 2000, 5000)
FLUID_NS = ((500, 1000, 2000, 20_000, 50_000) if SMOKE else
            (500, 1000, 2000, 5000, 20_000, 50_000, 100_000))
WORKLOAD = dict(protocol="flooding", message_count=1,
                message_interval=1.0, warmup=2.0, drain=8.0)
ERROR_BOUND = 0.05


def _config(n, **overrides):
    return ExperimentConfig(scenario=ScenarioConfig(n=n, seed=1),
                            **WORKLOAD, **overrides)


def run_measurement():
    rows = []
    packet_delivery = {}
    for n in PACKET_NS:
        start = time.perf_counter()
        result = run_experiment(_config(n))
        wall = time.perf_counter() - start
        packet_delivery[n] = result.delivery_ratio
        rows.append({
            "tier": "packet", "n": n,
            "delivery": round(result.delivery_ratio, 4),
            "tx/bcast": round(result.transmissions_per_broadcast, 1),
            "abs_err": "",
            "wall_s": round(wall, 2),
        })
    for n in FLUID_NS:
        start = time.perf_counter()
        result = run_experiment(_config(n, tier="fluid"))
        wall = time.perf_counter() - start
        reference = packet_delivery.get(n)
        rows.append({
            "tier": "fluid", "n": n,
            "delivery": round(result.delivery_ratio, 4),
            "tx/bcast": round(result.transmissions_per_broadcast, 1),
            "abs_err": ("" if reference is None else
                        round(abs(result.delivery_ratio - reference), 4)),
            "wall_s": round(wall, 2),
        })
    return rows


def test_e12_extended_scale(benchmark):
    rows = once(benchmark, run_measurement)
    emit("e12_extended_scale",
         "E12-extended: packet tier to n=5000, fluid tier to n=100000",
         rows)
    packet = [r for r in rows if r["tier"] == "packet"]
    fluid = [r for r in rows if r["tier"] == "fluid"]
    # Scale reach: 10x beyond the n=500 sweep ceiling on the packet
    # tier, 100x on the fluid tier (packet floor relaxed in smoke mode).
    assert max(r["n"] for r in packet) >= (2000 if SMOKE else 5000)
    assert max(r["n"] for r in fluid) >= 50_000
    # Flooding over a degree-8 connected placement delivers everywhere.
    for row in packet:
        assert row["delivery"] > 0.95, row
    # Calibration bound: fluid within ±0.05 of packet at every
    # overlapping n (flooding is in the calibrated class).
    overlaps = [r for r in fluid if r["abs_err"] != ""]
    assert len(overlaps) == len(PACKET_NS)
    for row in overlaps:
        assert row["abs_err"] <= ERROR_BOUND, row
    # The fluid tier is what buys the 100x: even n=100000 is near-instant.
    assert max(r["wall_s"] for r in fluid) < 5.0
