"""Medium-scaling micro-benchmark: vectorized medium vs the scalar scan.

Isolates the physical layer: n radios uniformly placed, a fixed batch of
transmissions resolved to completion, timed on the production
``VectorizedMedium`` and on the scalar all-radios scan it is pinned to.
Two regimes:

* **Constant degree** (the sweep benchmarks' regime): the field grows
  with n so mean degree stays ~8.  The scan is O(n) per completion; the
  vectorized medium builds its link table once (O(n * degree)) and then
  spends a handful of numpy calls over one row per transmission, so the
  gap must grow with n (>= 3x at n=500).
* **Fixed field** (the paper's own SWANS setting, and E12's): the field
  is frozen at the n=100 / degree-9 size while n grows, so density —
  and with it the per-completion candidate count — grows linearly.
  Mask arithmetic replaces the scalar per-candidate walk: the
  vectorized medium must be >= 5x faster than the scan at n=2000.
  This is where the per-topology link table pays for itself worst: most
  of the 2000 radios never transmit in 400 transmissions, yet the table
  covers all of them.

Every timed pair also asserts identical ``MediumStats`` — the backends
are pinned bit-for-bit equivalent (tests/test_medium_grid_equivalence.py
and tests/test_vectorized_medium.py), so a stats mismatch here means the
benchmark is timing different physics.  The record lands in
``benchmarks/results/``.
"""

import random
import time

from repro.des.kernel import Simulator
from repro.des.random import RandomStream
from repro.radio.geometry import Position
from repro.radio.medium import Medium
from repro.radio.packet import Packet
from repro.radio.propagation import UnitDisk
from repro.radio.vectorized import VectorizedMedium
from repro.workloads.scenarios import area_side_for_degree

from common import emit, once

NS = (100, 250, 500)
DENSE_NS = (500, 1000, 2000)
TX_RANGE = 100.0
TARGET_DEGREE = 8.0
#: Fixed-field regime: the n=100 / degree-9 field of E12, frozen while
#: n grows (degree ~9 at n=100 -> ~180 at n=2000).
DENSE_SIDE = area_side_for_degree(100, TX_RANGE, 9.0)
TRANSMISSIONS = 400

MEDIUM_KINDS = {"brute": Medium, "vectorized": VectorizedMedium}


def run_physics(n, kind, seed=1, side=None, gap=0.01):
    """Resolve a fixed transmission batch; return (seconds, stats).

    ``kind`` is a :data:`MEDIUM_KINDS` key.  ``side`` overrides the
    constant-degree field size; ``gap`` is the max inter-transmission
    spacing.
    """
    rng = random.Random(seed)
    if side is None:
        side = area_side_for_degree(n, TX_RANGE, TARGET_DEGREE)
    sim = Simulator()
    medium = MEDIUM_KINDS[kind](sim, RandomStream(seed), UnitDisk())
    positions = [Position(rng.uniform(0, side), rng.uniform(0, side))
                 for _ in range(n)]
    for i in range(n):
        medium.attach(i, (lambda i=i: positions[i]), TX_RANGE,
                      lambda packet: None)
    t = 0.0
    for _ in range(TRANSMISSIONS):
        t += rng.uniform(0.0, gap)
        sim.schedule_at(t, medium.transmit, rng.randrange(n),
                        Packet(sender=0, payload=None, size_bytes=125,
                               kind="data"))
    start = time.perf_counter()
    sim.run()
    return time.perf_counter() - start, medium.stats


def _best_of(runs, n, kind, **kwargs):
    """Best wall time over ``runs`` repeats (stats from the last run —
    they are identical every time by construction)."""
    best, stats = run_physics(n, kind, **kwargs)
    for _ in range(runs - 1):
        seconds, stats = run_physics(n, kind, **kwargs)
        best = min(best, seconds)
    return best, stats


def _compare(ns, side=None):
    """Time both backends at each n; ``side`` freezes the field (and
    adds the resulting mean degree as a column)."""
    rows = []
    for n in ns:
        runs = 2 if n >= 2000 else 1
        scan_s, scan_stats = _best_of(runs, n, "brute", side=side)
        vec_s, vec_stats = _best_of(runs, n, "vectorized", side=side)
        assert scan_stats == vec_stats  # same physics, bit for bit
        row = {"n": n}
        if side is not None:
            row["degree"] = round(3.14159 * TX_RANGE ** 2 * n / side ** 2, 1)
        row.update({
            "scan_ms": round(scan_s * 1e3, 1),
            "vec_ms": round(vec_s * 1e3, 1),
            "speedup": round(scan_s / vec_s, 2),
            "deliveries": vec_stats.deliveries,
            "collisions": vec_stats.collisions,
        })
        rows.append(row)
    return rows


def run_comparison():
    return _compare(NS)


def run_dense_comparison():
    return _compare(DENSE_NS, side=DENSE_SIDE)


def test_medium_scaling(benchmark):
    rows = once(benchmark, run_comparison)
    emit("medium_scaling",
         "Medium scaling: scalar scan vs vectorized "
         f"({TRANSMISSIONS} transmissions, degree {TARGET_DEGREE:.0f})",
         rows)
    by_n = {row["n"]: row for row in rows}
    # Acceptance: >= 3x at n=500 over the O(n) scan.
    assert by_n[500]["speedup"] >= 3.0
    # The win must grow with n.
    assert by_n[500]["speedup"] > by_n[100]["speedup"]


def test_medium_scaling_dense(benchmark):
    rows = once(benchmark, run_dense_comparison)
    emit("medium_scaling_dense",
         "Medium scaling, fixed field (paper regime): scalar scan vs "
         f"vectorized ({TRANSMISSIONS} transmissions, "
         f"side {DENSE_SIDE:.0f}m)",
         rows)
    by_n = {row["n"]: row for row in rows}
    # Acceptance: >= 5x at n=2000 in the paper's fixed-field regime.
    assert by_n[2000]["speedup"] >= 5.0
    # The win must grow with density.
    assert by_n[2000]["speedup"] > by_n[500]["speedup"]
