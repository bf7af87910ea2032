"""The cross-protocol conformance suite.

Every test here is parametrized over every registered protocol (via the
``protocol`` fixture) — registering an adapter in :mod:`repro.arena` buys
this whole contract for free:

* **Safety**: fault-free completeness, no forgery under forging
  adversaries (whose on-air frames a spy cannot verify), deaf nodes
  accept nothing, structural at-most-once / agreement on delivered
  payloads.
* **Liveness**: full delivery with ``mute_tolerance(n)`` Byzantine-mute
  nodes on topologies whose correct subgraph supports it.
* **Determinism matrix**: repeat runs, serial vs worker pool, vectorized
  vs scalar medium, interrupted-and-resumed checkpoints —
  all byte-identical at the campaign-record level.
* **Chaos**: a crash/restart/mute timeline applies cleanly (the adapter
  honours the controller's node contract) and stays deterministic.
* **Observability**: an observed run carries ``origin``/``sign``/
  ``deliver`` spans that add up to the accept records.
"""

import hashlib
import json
from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.arena as arena
from repro.chaos import FaultEvent, FaultSchedule
from repro.core.messages import DATA, DataMessage
from repro.obs import ObsConfig
from repro.radio.medium import MediumObserver
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


class _DataSpy(MediumObserver):
    """A receiver outside the protocol: verifies every DATA frame the
    watched senders put on the air, envelope or not."""

    def __init__(self, senders, directory):
        self.senders = senders
        self.directory = directory
        self.verified = []

    def on_transmit(self, sender, packet):
        if sender in self.senders and packet.kind == DATA:
            inner = packet.payload
            if not isinstance(inner, DataMessage):
                inner = inner.message   # TaggedData / DolevData envelopes
            self.verified.append(inner.verify(self.directory))


def test_forging_relays_put_unverifiable_frames_on_the_air(protocol):
    """The behaviour policy's mutated copy is what is transmitted — under
    every protocol, envelope protocols included (multi_overlay used to
    filter the copy and then send the original, i.e. not forge at all) —
    and still nobody delivers a forged payload."""
    config = arena_config(protocol, adversaries=AdversaryMix.forging(3))
    world = build_world(config)
    spy = _DataSpy(set(world.assignment), world.nodes[0].directory)
    world.medium.add_observer(spy)
    result = finish_world(world)
    assert spy.verified, "no forging node relayed anything"
    assert not any(spy.verified)
    kinds = {violation["invariant"] for violation in result.violations}
    assert "forged_payload" not in kinds


def test_deaf_nodes_accept_nothing(protocol):
    """``intercept_incoming`` guards every protocol's receive path (the
    hand-rolled baselines never called it: deaf nodes accepted 2/2)."""
    config = arena_config(protocol,
                          adversaries=AdversaryMix(counts={"deaf": 3}))
    world = build_world(config)
    finish_world(world)
    assert len(world.assignment) == 3
    for node_id in world.assignment:
        assert world.nodes[node_id].accepted == []
    assert any(world.nodes[node_id].accepted for node_id in world.correct)


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


# ----------------------------------------------------------------------
# Observability (lifecycle spans exist for every protocol)
# ----------------------------------------------------------------------
LIFECYCLE = ("origin", "sign", "deliver")

#: sha256[:16] of ``json.dumps(result.trace, sort_keys=True)`` for the
#: observed fault-free conformance run, taken on the commit before the
#: node lifecycles were merged into ``NodeShell``: that refactor must not
#: move a byte of these four traces.
TRACE_PINS = {
    "byzcast": "1dcd92479c08f48d",
    "dolev": "72e22c2910df0d2d",
    "optflood": "460521b8cbca96cc",
    "maurer_tixeuil": "17cd70429d72384a",
}

#: The three baselines emitted no lifecycle spans before they became
#: ``ArenaNode`` subclasses; everything else they emit — the
#: ``(phase, time, node, msg)`` list minus ``LIFECYCLE`` — is pinned to
#: the same commit.
CORE_SPAN_PINS = {
    "flooding": "978d041bba77aa23",
    "overlay_only": "629867445662b213",
    "multi_overlay": "89be1e85c6755990",
}


def _sha(value, **kwargs) -> str:
    return hashlib.sha256(
        json.dumps(value, **kwargs).encode()).hexdigest()[:16]


def test_observed_run_has_lifecycle_spans(protocol):
    world = build_world(arena_config(protocol, observe=ObsConfig()))
    result = finish_world(world)
    spans = world.obs.spans
    phases = Counter(span.phase for span in spans)
    assert phases["origin"] == phases["sign"] == result.broadcasts
    assert phases["deliver"] == sum(len(node.accepted)
                                    for node in world.nodes)
    if protocol in TRACE_PINS:
        assert _sha(result.trace, sort_keys=True) == TRACE_PINS[protocol]
    if protocol in CORE_SPAN_PINS:
        core = [(span.phase, span.time, span.node,
                 list(span.msg) if span.msg else None)
                for span in spans if span.phase not in LIFECYCLE]
        assert _sha(core) == CORE_SPAN_PINS[protocol]
