"""Medium-backend equivalence suite: vectorized vs the scalar scan.

The vectorized medium (`repro.radio.vectorized`) replaces the scalar
medium's per-radio resolution loop with numpy mask arithmetic.  That is
only an optimisation if it is *invisible*: every scenario must produce
bit-for-bit identical physical events, stats, and RNG consumption on
both backends.  This suite pins that guarantee over seeded random
placements, mobility traces, collision-heavy workloads and
carrier-sense probes (> 20 scenarios total, each run both ways).

The scenarios drive the medium directly (raw ``attach`` / ``transmit`` /
``update_position``) so the comparison covers the exact layers the
backends differ in; a final set of tests re-runs the full experiment
stack on each backend and compares whole ``ExperimentResult`` objects.
(The module and class names predate the removal of the spatial-hash
grid, the third backend this suite once compared.)
"""

import dataclasses
import random

import pytest

from repro.des.kernel import Simulator
from repro.des.random import RandomStream
from repro.radio.geometry import Position
from repro.radio.medium import Medium, MediumObserver
from repro.radio.packet import Packet
from repro.radio.propagation import LogNormalShadowing, UnitDisk
from repro.radio.vectorized import VectorizedMedium
from repro.sim.experiment import ExperimentConfig, run_experiment
from repro.workloads.scenarios import AdversaryMix, ScenarioConfig

SIDE = 600.0

#: Constructor for each medium backend under test.
MEDIUM_KINDS = {"brute": Medium, "vectorized": VectorizedMedium}


def _scenario_events(seed, n, *, heavy, mobile):
    """Deterministically pre-generate one scenario: positions, ranges,
    transmissions, and mobility waypoints (so both runs see identical
    inputs regardless of execution order)."""
    rng = random.Random(seed)
    positions = {i: Position(rng.uniform(0.0, SIDE), rng.uniform(0.0, SIDE))
                 for i in range(n)}
    ranges = {i: rng.uniform(60.0, 160.0) for i in range(n)}
    transmissions = []
    t = 0.0
    count = 150 if heavy else 60
    for _ in range(count):
        # Heavy mode packs sends inside one airtime so collisions and
        # half-duplex losses dominate.
        t += rng.uniform(0.0, 0.0008 if heavy else 0.01)
        transmissions.append((t, rng.randrange(n), rng.randint(20, 400)))
    moves = []
    if mobile:
        for step in range(1, 25):
            when = step * 0.025
            for _ in range(max(1, n // 4)):
                moves.append((when, rng.randrange(n),
                              Position(rng.uniform(0.0, SIDE),
                                       rng.uniform(0.0, SIDE))))
    return positions, ranges, transmissions, moves


def _probe_events(seed, n, transmissions):
    """Carrier-sense probes and the topology changes they must track,
    drawn from their own stream so the base scenario is unchanged.

    Returns ``(probes, ends, changes)``: probes at random instants,
    the instant each transmission ends (probed both before and after its
    completion fires), and ``(time, op, node, value)`` changes --
    ``range`` and ``attach`` timed inside a transmission's airtime,
    ``power`` anywhere."""
    rng = random.Random(seed + 7919)
    horizon = transmissions[-1][0] + 0.01
    probes = [(rng.uniform(0.0, horizon), rng.randrange(n))
              for _ in range(40)]
    ends = [(when + Packet(sender=sender, payload=None,
                           size_bytes=size).airtime(1_000_000.0, 192e-6),
             sender)
            for when, sender, size in transmissions]
    changes = []
    for when, sender, size in rng.sample(transmissions, 6):
        changes.append((when + 5e-5, "range", sender,
                        rng.uniform(40.0, 200.0)))
    for when, sender, size in rng.sample(transmissions, 6):
        changes.append((when + 5e-5, "power", rng.randrange(n),
                        rng.random() < 0.5))
    when, _, _ = transmissions[len(transmissions) // 2]
    changes.append((when + 5e-5, "attach", n,
                    Position(rng.uniform(0.0, SIDE), rng.uniform(0.0, SIDE))))
    return probes, ends, changes


def run_scenario(seed, medium_kind, *, n=30, heavy=False, mobile=False,
                 shadowing=False, probes=False):
    """Run one generated scenario on the :data:`MEDIUM_KINDS` backend
    ``medium_kind``; return (event log, stats, RNG state).  ``probes``
    adds carrier-sense probes, range and power changes and a radio that
    attaches while transmissions are on air."""
    positions, ranges, transmissions, moves = _scenario_events(
        seed, n, heavy=heavy, mobile=mobile)
    sim = Simulator()
    propagation = (LogNormalShadowing(sigma=0.25, background_loss=0.05)
                   if shadowing else UnitDisk())
    rng = RandomStream(seed)
    medium = MEDIUM_KINDS[medium_kind](sim, rng, propagation)
    log = []

    class Recorder(MediumObserver):
        def on_transmit(self, sender, packet):
            log.append(("tx", sim.now, sender))

        def on_deliver(self, receiver, packet):
            log.append(("rx", sim.now, receiver, packet.sender))

        def on_collision(self, receiver, packet):
            log.append(("col", sim.now, receiver, packet.sender))

    medium.add_observer(Recorder())
    for i in range(n):
        medium.attach(i, (lambda i=i: positions[i]), ranges[i],
                      (lambda packet, i=i:
                       log.append(("handler", sim.now, i, packet.sender))))

    def busy(node_id):
        log.append(("busy", sim.now, node_id,
                    medium.channel_busy_at(node_id)))

    def send(sender, size):
        tx = medium.transmit(sender, Packet(sender=sender, payload=None,
                                            size_bytes=size, kind="data"))
        if probes:
            # Scheduled now, so it fires after the completion at tx.end.
            sim.schedule_at(tx.end, busy, sender)
            sim.schedule_at(tx.end, busy, (sender + 1) % n)

    def move(node_id, position):
        positions[node_id] = position
        medium.update_position(node_id, position)
        if probes:
            busy(node_id)

    def change(op, node_id, value):
        if op == "range":
            medium.set_tx_range(node_id, value)
        elif op == "power":
            medium.set_enabled(node_id, value)
        else:
            positions[node_id] = value
            medium.attach(node_id, (lambda: positions[node_id]), 120.0,
                          (lambda packet: log.append(
                              ("handler", sim.now, node_id, packet.sender))))
        busy(node_id)

    for when, sender, size in transmissions:
        sim.schedule_at(when, send, sender, size)
    for when, node_id, position in moves:
        sim.schedule_at(when, move, node_id, position)
    if probes:
        timed, ends, changes = _probe_events(seed, n, transmissions)
        for when, node_id in timed:
            sim.schedule_at(when, busy, node_id)
        for when, sender in ends:
            # Scheduled before the run, so it fires before the
            # completion at the same instant.
            sim.schedule_at(when, busy, sender)
        for when, op, node_id, value in changes:
            sim.schedule_at(when, change, op, node_id, value)
    sim.run()
    return log, medium.stats, rng.getstate()


def assert_equivalent(seed, **kwargs):
    log, stats, rng_state = run_scenario(seed, "brute", **kwargs)
    assert run_scenario(seed, "vectorized", **kwargs) \
        == (log, stats, rng_state)
    assert stats.transmissions > 0
    assert stats.deliveries > 0


class TestGridEquivalence:
    """20+ seeded scenarios: identical event logs and MediumStats."""

    @pytest.mark.parametrize("seed", range(8))
    def test_static_random_placement(self, seed):
        assert_equivalent(seed, n=30)

    @pytest.mark.parametrize("seed", range(6))
    def test_mobility_trace(self, seed):
        assert_equivalent(100 + seed, n=24, mobile=True)

    @pytest.mark.parametrize("seed", range(6))
    def test_collision_heavy(self, seed):
        _, stats, _ = run_scenario(200 + seed, "brute", n=24, heavy=True)
        assert stats.collisions + stats.half_duplex_losses > 0
        assert_equivalent(200 + seed, n=24, heavy=True)

    @pytest.mark.parametrize("seed", range(4))
    def test_shadowing_consumes_identical_rng(self, seed):
        # LogNormalShadowing draws from the medium RNG on every in-reach
        # candidate; a superset mismatch would desynchronise the stream.
        assert_equivalent(300 + seed, n=24, mobile=True, shadowing=True)


class TestCarrierSenseEquivalence:
    """``channel_busy_at`` answers identically on both backends: at
    random instants, exactly at a transmission's end before and after
    its completion, after moves, power toggles, range changes on air and
    a radio attaching on air, with heterogeneous ranges."""

    @pytest.mark.parametrize("seed", range(4))
    def test_static_probes(self, seed):
        assert_equivalent(400 + seed, n=24, probes=True)

    @pytest.mark.parametrize("seed", range(3))
    def test_probes_under_collisions(self, seed):
        assert_equivalent(500 + seed, n=24, heavy=True, probes=True)

    @pytest.mark.parametrize("seed", range(3))
    def test_probes_under_mobility(self, seed):
        log, _, _ = run_scenario(600 + seed, "brute", n=24, mobile=True,
                                 probes=True)
        answers = {entry[3] for entry in log if entry[0] == "busy"}
        assert answers == {True, False}
        assert_equivalent(600 + seed, n=24, mobile=True, probes=True)


class TestExperimentLevelEquivalence:
    """The full stack (MAC, protocol, mobility) on the scalar medium
    must reproduce the vectorized medium's results exactly."""

    FAST = dict(message_count=2, message_interval=1.0, warmup=4.0,
                drain=6.0)

    def _run(self, medium, **scenario_kwargs):
        config = ExperimentConfig(
            scenario=ScenarioConfig(n=14, seed=5, **scenario_kwargs),
            medium=medium, **self.FAST)
        # Clear the wall-clock runtime block — the only result field
        # allowed to differ between the two medium implementations.
        return dataclasses.replace(run_experiment(config), runtime=None)

    def _assert_identical(self, **scenario_kwargs):
        assert (self._run("vectorized", **scenario_kwargs)
                == self._run("brute", **scenario_kwargs))

    def test_static_experiment_identical(self):
        self._assert_identical()

    def test_mobile_experiment_identical(self):
        self._assert_identical(mobility="waypoint", speed_max=8.0)

    def test_adversarial_shadowing_experiment_identical(self):
        self._assert_identical(propagation="shadowing",
                               adversaries=AdversaryMix.mute(2))

    def test_results_are_comparable(self):
        result = self._run("vectorized")
        assert dataclasses.is_dataclass(result)
        assert result.delivery_ratio > 0
