"""The cross-protocol conformance suite.

Every test here is parametrized over every registered protocol (via the
``protocol`` fixture) — registering an adapter in :mod:`repro.arena` buys
this whole contract for free:

* **Safety**: fault-free completeness, no forgery under forging
  adversaries, structural at-most-once / agreement on delivered
  payloads.
* **Liveness**: full delivery with ``mute_tolerance(n)`` Byzantine-mute
  nodes on topologies whose correct subgraph supports it.
* **Determinism matrix**: repeat runs, serial vs worker pool, vectorized
  vs scalar medium, interrupted-and-resumed checkpoints —
  all byte-identical at the campaign-record level.
* **Chaos**: a crash/restart/mute timeline applies cleanly (the adapter
  honours the controller's node contract) and stays deterministic.
"""

from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.arena as arena
from repro.chaos import FaultEvent, FaultSchedule
from repro.sim import (
    CheckpointConfig,
    build_world,
    config_key,
    finish_world,
    latest_checkpoint,
    run_experiment,
    run_many,
)
from repro.workloads.scenarios import AdversaryMix

from tests.arena.conftest import (
    LIVENESS_SEEDS,
    N,
    arena_config,
    canonical,
    canonical_sans_config,
)
from tests.helpers import fault_schedules

pytestmark = pytest.mark.arena

#: Crash/restart plus a transient mute — exercises every chaos seam the
#: adapters must implement (``crash``/``restart``/``set_behavior``).
CHAOS_TIMELINE = FaultSchedule(events=(
    FaultEvent(time=1.0, node=2, action="crash"),
    FaultEvent(time=2.0, node=5, action="mute"),
    FaultEvent(time=3.5, node=2, action="restart"),
    FaultEvent(time=5.0, node=5, action="recover"),
))


# ----------------------------------------------------------------------
# Safety
# ----------------------------------------------------------------------
def test_fault_free_complete_delivery(fault_free_run):
    config, result = fault_free_run
    assert result.broadcasts == config.message_count
    assert result.delivery_ratio == 1.0
    assert result.complete_fraction == 1.0
    assert result.invariant_violations == 0


def test_no_forgery_under_forging_adversary(protocol, cached_run):
    config = arena_config(protocol,
                          adversaries=AdversaryMix.forging(1))
    result = cached_run(config)
    assert result.byzantine == 1
    kinds = {violation["invariant"] for violation in result.violations}
    assert "forged_payload" not in kinds
    assert result.invariant_violations == 0


def test_at_most_once_and_agreement(protocol):
    """Structural check, stronger than the oracle counters: every
    (node, msg_id) pair delivers exactly zero-or-one time, and all
    correct nodes that delivered a message agree on its payload."""
    config = arena_config(protocol)
    world = build_world(config)
    deliveries = []

    for node in world.nodes:
        node.add_accept_listener(
            lambda node_id, originator, payload, msg_id:
            deliveries.append((node_id, msg_id, bytes(payload))))
    finish_world(world)

    counts = {}
    payload_of = {}
    for node_id, msg_id, payload in deliveries:
        counts[(node_id, msg_id)] = counts.get((node_id, msg_id), 0) + 1
        payload_of.setdefault(msg_id, set()).add(payload)
    assert deliveries, "listener saw no deliveries at all"
    assert all(count == 1 for count in counts.values())
    assert all(len(payloads) == 1 for payloads in payload_of.values())


# ----------------------------------------------------------------------
# Liveness at the declared threshold
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", LIVENESS_SEEDS)
def test_liveness_at_declared_tolerance(protocol, cached_run, seed):
    spec = arena.get_protocol(protocol)
    tolerance = spec.mute_tolerance(N)
    adversaries = (AdversaryMix.mute(tolerance) if tolerance
                   else AdversaryMix())
    config = arena_config(protocol, seed=seed, adversaries=adversaries)
    result = cached_run(config)
    assert result.byzantine == tolerance
    assert result.delivery_ratio == 1.0, (
        f"{protocol} claims tolerance {tolerance} but lost deliveries "
        f"at {tolerance} mute nodes (seed {seed})")
    assert result.complete_fraction == 1.0
    assert result.invariant_violations == 0


# ----------------------------------------------------------------------
# Determinism matrix
# ----------------------------------------------------------------------
def test_repeat_runs_byte_identical(fault_free_run):
    config, result = fault_free_run
    assert canonical(config, run_experiment(config)) == \
        canonical(config, result)


def test_worker_pool_matches_serial(cached_run):
    """One pool, every protocol: run_many across 4 workers must equal
    the serial runs element for element."""
    configs = [arena_config(name) for name in arena.available_protocols()]
    pooled = run_many(configs, workers=4)
    for config, result in zip(configs, pooled):
        assert canonical(config, result) == \
            canonical(config, cached_run(config))


def test_grid_and_brute_medium_agree(fault_free_run):
    config, result = fault_free_run
    scalar = run_experiment(replace(config, medium="brute"))
    assert canonical(config, scalar) == canonical(config, result)


def test_checkpoint_resume_matches_uninterrupted(fault_free_run, tmp_path):
    config, result = fault_free_run
    ck = replace(config, checkpoint=CheckpointConfig(
        every=2.0, directory=str(tmp_path)))
    assert config_key(ck) == config_key(config)

    # Interrupt mid-workload, abandon, then let run_experiment pick the
    # snapshot back up.
    from repro.sim import write_checkpoint
    world = build_world(ck)
    world.sim.run(until=6.0)
    write_checkpoint(world, config_key(ck), str(tmp_path))

    resumed = run_experiment(ck)
    assert canonical_sans_config(ck, resumed) == \
        canonical_sans_config(config, result)
    assert latest_checkpoint(str(tmp_path), config_key(ck)) is None


# ----------------------------------------------------------------------
# Chaos-schedule conformance
# ----------------------------------------------------------------------
def test_chaos_timeline_applies_cleanly(protocol, cached_run):
    config = arena_config(protocol, chaos=CHAOS_TIMELINE)
    result = cached_run(config)
    assert result.chaos_events == len(CHAOS_TIMELINE.events)
    assert result.invariant_violations == 0


def test_chaos_timeline_deterministic(protocol, cached_run):
    config = arena_config(protocol, chaos=CHAOS_TIMELINE)
    assert canonical(config, run_experiment(config)) == \
        canonical(config, cached_run(config))


@settings(max_examples=8, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(name=st.sampled_from(arena.available_protocols()),
       schedule=fault_schedules(N, horizon=6.0, max_events=4,
                                include_attackers=False),
       seed=st.integers(min_value=1, max_value=50))
def test_arbitrary_chaos_stays_deterministic(name, schedule, seed):
    """Property form: any fault timeline hypothesis can draw, against
    any protocol, replays byte-identically — the arena adapters keep all
    randomness inside the seeded streams.  (``attacker_start`` events are
    excluded: they require the full byzcast stack and are rejected with a
    ValueError on rival protocols by design.)"""
    config = arena_config(name, seed=seed,
                          chaos=schedule if schedule.events else None)
    first = run_experiment(config)
    assert canonical(config, run_experiment(config)) == \
        canonical(config, first)


# ----------------------------------------------------------------------
# Node-object contract (what the chaos controller and oracle rely on)
# ----------------------------------------------------------------------
def test_factory_builds_full_population(protocol):
    world = build_world(arena_config(protocol, oracle=False))
    assert len(world.nodes) == N
    for node_id, node in enumerate(world.nodes):
        assert node.node_id == node_id
        for attr in ("position", "crashed", "broadcast", "crash",
                     "restart", "set_behavior", "add_accept_listener",
                     "accepted", "radio", "start", "stop"):
            assert hasattr(node, attr), \
                f"{protocol} node lacks {attr!r}"


def test_crash_restart_contract(protocol):
    world = build_world(arena_config(protocol, oracle=False))
    node = world.nodes[2]
    assert not node.crashed
    first = node.broadcast(b"before-crash")

    node.crash()
    assert node.crashed
    node.crash()  # idempotent
    assert node.crashed

    node.restart(reset_state=True)
    assert not node.crashed
    node.restart()  # restart of a live node is a no-op
    assert not node.crashed

    # The sequence counter survives the state wipe: a restarted node
    # must never reuse a message id.
    second = node.broadcast(b"after-restart")
    assert first != second
