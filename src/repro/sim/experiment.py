"""One-call experiment runner.

Turns a :class:`ScenarioConfig` + protocol selection into a live simulated
network, injects a broadcast workload, and returns an
:class:`ExperimentResult` with the quantities the paper's evaluation
reports (delivery ratio, latency, overhead by packet type, overlay
quality).

Protocols come from the :mod:`repro.arena` registry.  The repo ships:

* ``"byzcast"``        — the paper's protocol (overlay + gossip + recovery
  + failure detectors);
* ``"flooding"``       — plain signed flooding;
* ``"overlay_only"``   — one overlay, no gossip/recovery;
* ``"multi_overlay"``  — the f+1 node-independent-overlays baseline;
* ``"dolev"``          — Dolev path-tracking reliable broadcast;
* ``"optflood"``       — counter-suppressed optimized flooding;
* ``"maurer_tixeuil"`` — CPA-style loosely-connected broadcast;

plus anything registered via :func:`repro.arena.register_protocol`
before the config is built.
"""

from __future__ import annotations

import math
import multiprocessing
import signal
import time
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass, field
from typing import (Any, Callable, Dict, Iterable, Iterator, List, Optional,
                    Sequence)

from ..adversary.policies import make_behavior
from .. import arena
from ..chaos import (
    ChaosController,
    FaultSchedule,
    InvariantOracle,
    OracleConfig,
)
from .. import profiling
from ..core.node import NodeStackConfig
from ..crypto.keystore import DsaScheme, HmacScheme, KeyDirectory
from ..des.kernel import Simulator
from ..des.random import StreamFactory
from ..metrics.collector import MetricsCollector
from ..mobility.placement import (
    connected_uniform_positions,
    grid_positions,
    line_positions,
)
from ..mobility.gaussmarkov import GaussMarkov
from ..mobility.waypoint import RandomWalk, RandomWaypoint, StaticMobility
from ..obs import MetricSampler, ObsConfig, ObsContext
from ..obs import session as obs_session
from ..overlay.metrics import OverlayQuality, evaluate_overlay
from ..radio.energy import EnergyModel
from ..radio.geometry import Area, Position
from ..radio.medium import Medium
from ..radio.propagation import LogNormalShadowing, UnitDisk
from ..radio.vectorized import VectorizedMedium
from ..telemetry.runtime import runtime_block
from ..workloads.scenarios import ScenarioConfig
from ..workloads.sources import BroadcastEvent, periodic_source
from .checkpoint import (
    _EXECUTION_FIELDS,
    CheckpointConfig,
    CheckpointError,
    config_key,
    discard_checkpoint,
    latest_checkpoint,
    load_checkpoint,
    write_checkpoint,
)

__all__ = ["ExperimentConfig", "ExperimentResult", "ExperimentWorld",
           "RivalKnobs", "run_experiment", "resume_experiment",
           "build_world", "finish_world", "run_many", "parallel_map",
           "make_pool", "pool_worker_init", "PROTOCOLS", "SCHEMES", "MEDIA",
           "TIERS"]


def pool_worker_init() -> None:
    """Reset inherited signal handlers in pool worker processes.

    ``Pool.terminate()`` reaps its workers with SIGTERM.  A parent that
    handles SIGTERM itself — ``repro serve``'s graceful shutdown — forks
    workers that inherit the handler, swallow the reap signal, and hang
    the pool's join forever.  SIGINT is ignored instead: a terminal
    Ctrl-C reaches the whole foreground group, and the task in flight
    should finish so the parent's handler can requeue at the chunk
    boundary.  :func:`make_pool` forks the workers with SIGTERM blocked;
    it is unblocked here, once the handler is the default one, so a reap
    that arrived earlier is delivered now.
    """
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGTERM})


def make_pool(processes: int) -> multiprocessing.pool.Pool:
    """The repo's one way to build a ``multiprocessing.Pool``.

    A worker can sit unscheduled until its siblings have finished every
    task, so ``terminate()`` may SIGTERM it before it has run
    :func:`pool_worker_init` — while it still holds the parent's
    handler, which swallows the reap.  Forking with SIGTERM blocked
    holds the signal pending until the initializer has reset the
    handler.  The pool's own threads inherit the mask, so workers they
    fork later start blocked too.
    """
    previous = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGTERM})
    try:
        return multiprocessing.Pool(processes=processes,
                                    initializer=pool_worker_init)
    finally:
        signal.pthread_sigmask(signal.SIG_SETMASK, previous)


def parallel_map(func: Callable[[Any], Any], tasks: Iterable[Any], *,
                 workers: int = 1, pool: Optional[Any] = None,
                 on_result: Optional[Callable[[Any, Any], None]] = None
                 ) -> List[Any]:
    """Order-preserving map over a worker pool — the one parallel fabric
    campaigns, fuzzing loops, and the campaign service share.

    ``func`` must be a module-level callable and every task picklable.
    Results come back in task order regardless of ``workers``, which is
    what makes every consumer (campaign records, fuzz corpus/coverage
    merging) byte-identical across worker counts.  ``on_result(task,
    result)`` fires in task order as results arrive — pooled runs stream
    them via ``imap`` so a long campaign persists finished work before
    the slowest task completes.  Pass ``pool`` to reuse a long-lived
    ``multiprocessing.Pool`` across many calls (the fuzzer evaluates one
    small batch per generation; re-forking per batch would dominate);
    ``pool`` and ``workers`` are mutually exclusive — the pool's own
    process count governs, so a ``workers`` override would silently lie.
    """
    tasks = list(tasks)
    if workers < 1:
        raise ValueError(f"workers must be >= 1: {workers}")
    if pool is not None and workers != 1:
        raise ValueError(
            "pass either workers or pool, not both: the pool's process "
            f"count governs, workers={workers} would be ignored")
    owned: Optional[multiprocessing.pool.Pool] = None
    if pool is not None:
        iterator = pool.imap(func, tasks, chunksize=1)
    elif workers == 1 or len(tasks) <= 1:
        iterator = map(func, tasks)
    else:
        owned = make_pool(min(workers, len(tasks)))
        iterator = owned.imap(func, tasks, chunksize=1)
    try:
        results: List[Any] = []
        for task, result in zip(tasks, iterator):
            if on_result is not None:
                on_result(task, result)
            results.append(result)
        return results
    finally:
        if owned is not None:
            owned.terminate()
            owned.join()


#: The paper-canonical protocol set (kept for back-compat with pre-arena
#: callers); the authoritative list is ``repro.arena.available_protocols()``.
PROTOCOLS = ("byzcast", "flooding", "overlay_only", "multi_overlay")

SCHEMES = ("hmac", "dsa")

#: Medium backends: "vectorized" (numpy mask arithmetic) is what
#: experiments run on; "brute" (the scalar all-radios scan) is the
#: reference the tests pin it bit-for-bit against
#: (``tests/test_medium_grid_equivalence.py``).
MEDIA = ("vectorized", "brute")

#: Simulation tiers: "packet" runs the discrete-event simulator;
#: "fluid" evaluates the calibrated mean-field model
#: (:mod:`repro.sim.fluid`) — approximate, but O(rounds) instead of
#: O(events), usable to n of 10^5..10^6.
TIERS = ("packet", "fluid")


@dataclass(frozen=True)
class RivalKnobs:
    """Tuning-knob overrides for the rival protocols.

    ``None`` leaves a knob at the protocol builder's scenario-derived
    default (see :mod:`repro.arena.builtins`); setting one changes what
    the run computes, so non-default knobs participate in the campaign
    content hash.
    """

    #: Dolev: node-disjoint paths required before accepting (default
    #: ``min(f + 1, 3)``).
    paths_required: Optional[int] = None
    #: optflood: duplicate overhears that suppress a retransmission
    #: (default 3).
    suppression_threshold: Optional[int] = None
    #: Maurer-Tixeuil CPA: local fault bound k — accept on ``k + 1``
    #: vouching neighbours (default 1 when the scenario declares
    #: Byzantine presence, else 0).
    cpa_k: Optional[int] = None

    def __post_init__(self) -> None:
        if self.paths_required is not None and self.paths_required < 1:
            raise ValueError(
                f"paths_required must be >= 1: {self.paths_required}")
        if (self.suppression_threshold is not None
                and self.suppression_threshold < 1):
            raise ValueError(f"suppression_threshold must be >= 1: "
                             f"{self.suppression_threshold}")
        if self.cpa_k is not None and self.cpa_k < 0:
            raise ValueError(f"cpa_k must be >= 0: {self.cpa_k}")


@dataclass(frozen=True)
class ExperimentConfig:
    """A scenario plus protocol and workload selection."""

    scenario: ScenarioConfig = field(default_factory=ScenarioConfig)
    protocol: str = "byzcast"
    stack: NodeStackConfig = field(default_factory=NodeStackConfig)
    warmup: float = 8.0
    message_count: int = 5
    message_interval: float = 2.0
    source: int = 0
    drain: float = 15.0
    overlay_count: Optional[int] = None   # multi_overlay only
    workload: Optional[Sequence[BroadcastEvent]] = None
    #: Fault timeline replayed against the run (times on the workload
    #: clock: 0 = end of warmup).  None/empty = fault-free.
    chaos: Optional[FaultSchedule] = None
    #: Invariant-oracle settings; None disables run-time checking.
    oracle: Optional[OracleConfig] = None
    #: Signature scheme: "hmac" (fast oracle, sweep default) or "dsa"
    #: (the paper's real algorithm, for crypto-cost measurements).
    signature_scheme: str = "hmac"
    #: Collect a per-phase cost profile (see :mod:`repro.profiling`) into
    #: ``result.profile``.  Phase *counts* are deterministic; *seconds*
    #: are host wall-clock and excluded from determinism comparisons.
    profile: bool = False
    #: Periodic snapshot settings (see :mod:`repro.sim.checkpoint`); None
    #: disables checkpointing.  An execution knob: excluded from the
    #: campaign content hash, and a checkpointed run's final result is
    #: byte-identical to an uninterrupted one.
    checkpoint: Optional[CheckpointConfig] = None
    #: Causal observability settings (see :mod:`repro.obs`); None
    #: disables it at zero cost.  Like ``checkpoint``, an execution knob
    #: excluded from the campaign content hash: it records what the run
    #: does without changing what the run does.  The result then carries
    #: lifecycle spans and virtual-time metric series in ``trace``.
    observe: Optional[ObsConfig] = None
    #: Medium backend (one of :data:`MEDIA`).  The two are pinned
    #: bit-for-bit equivalent, so this is an execution knob excluded from
    #: the campaign content hash; "brute" exists for the tests' oracle leg.
    medium: str = "vectorized"
    #: Simulation tier (one of :data:`TIERS`).  "fluid" swaps the
    #: discrete-event run for the calibrated mean-field model — a
    #: different (approximate) computation, so non-default tiers get
    #: their own campaign record key.
    tier: str = "packet"
    #: Rival-protocol knob overrides (see :class:`RivalKnobs`); None
    #: keeps every builder default.
    rivals: Optional[RivalKnobs] = None

    def __post_init__(self) -> None:
        if not arena.is_registered(self.protocol):
            raise ValueError(
                f"unknown protocol {self.protocol!r}; choose from "
                f"{tuple(arena.available_protocols())}")
        if self.signature_scheme not in SCHEMES:
            raise ValueError(
                f"unknown scheme {self.signature_scheme!r}; "
                f"choose from {SCHEMES}")
        if not (0 <= self.warmup < math.inf and 0 <= self.drain < math.inf):
            raise ValueError("warmup/drain must be finite and non-negative")
        if not math.isfinite(self.message_interval):
            raise ValueError("message_interval must be finite")
        if self.message_count < 1 and self.workload is None:
            raise ValueError("need at least one message")
        if self.medium not in MEDIA:
            raise ValueError(
                f"unknown medium {self.medium!r}; choose from {MEDIA}")
        if self.tier not in TIERS:
            raise ValueError(
                f"unknown tier {self.tier!r}; choose from {TIERS}")
        if self.tier == "fluid":
            # The mean-field model has no event stream for these
            # instruments to observe (and nothing to snapshot).
            unsupported = [name for name, value in (
                ("chaos", self.chaos), ("oracle", self.oracle),
                ("checkpoint", self.checkpoint), ("observe", self.observe),
                ("profile", self.profile)) if value]
            if unsupported:
                raise ValueError(
                    f"tier='fluid' does not support: "
                    f"{', '.join(unsupported)}")

    def events(self) -> List[BroadcastEvent]:
        if self.workload is not None:
            return sorted(self.workload, key=lambda e: e.time)
        return periodic_source(self.source, self.message_interval,
                               self.message_count,
                               payload_size=self.scenario.payload_size)


@dataclass
class ExperimentResult:
    """Everything measured in one run."""

    protocol: str
    n: int
    byzantine: int
    broadcasts: int
    delivery_ratio: float
    complete_fraction: float
    mean_latency: Optional[float]
    max_latency: Optional[float]
    mean_completion_latency: Optional[float]
    physical: Dict[str, float]
    energy: Dict[str, float]
    overlay_quality: Optional[OverlayQuality]
    sim_time: float
    #: Fault events the chaos timeline actually applied.
    chaos_events: int = 0
    #: Total invariant violations the oracle observed (0 when disabled).
    invariant_violations: int = 0
    #: Recorded violations as plain dicts (capped by the oracle's
    #: ``record_limit``), campaign/JSON-serialisable.
    violations: List[Dict[str, object]] = field(default_factory=list)
    #: Per-phase cost profile ``{phase: {"count": n, "seconds": s}}``;
    #: None unless the run was configured with ``profile=True``.
    profile: Optional[Dict[str, Dict[str, float]]] = None
    #: Observability payload (span stream, metric series, counters, run
    #: metadata); None unless the run was configured with ``observe``.
    trace: Optional[Dict[str, Any]] = None
    #: Wall-clock/resource accounting (``wall_seconds``, ``peak_rss_kb``,
    #: ``events``, ``events_per_second``) — see
    #: :mod:`repro.telemetry.runtime`.  Host-dependent by construction:
    #: never part of ``config_key`` and always stripped from
    #: byte-identity comparisons.
    runtime: Optional[Dict[str, Any]] = None

    @property
    def protocol_transmissions(self) -> float:
        """Transmissions excluding HELLO beacons (infrastructure chatter is
        reported separately so protocols with/without beacons compare on
        dissemination cost)."""
        return (self.physical.get("transmissions", 0)
                - self.physical.get("tx_hello", 0))

    @property
    def transmissions_per_broadcast(self) -> float:
        if not self.broadcasts:
            return 0.0
        return self.protocol_transmissions / self.broadcasts

    @property
    def protocol_bytes(self) -> float:
        """Bytes on air excluding HELLO beacons."""
        return (self.physical.get("bytes_sent", 0)
                - self.physical.get("bytes_hello", 0))

    @property
    def bytes_per_broadcast(self) -> float:
        if not self.broadcasts:
            return 0.0
        return self.protocol_bytes / self.broadcasts

    @property
    def data_transmissions_per_broadcast(self) -> float:
        """DATA packets per broadcast — the dissemination cost proper."""
        if not self.broadcasts:
            return 0.0
        return self.physical.get("tx_data", 0) / self.broadcasts

    def row(self) -> Dict[str, object]:
        """Flat dict for table rendering."""
        return {
            "protocol": self.protocol,
            "n": self.n,
            "byz": self.byzantine,
            "delivery": round(self.delivery_ratio, 4),
            "complete": round(self.complete_fraction, 4),
            "lat_mean": (round(self.mean_latency, 4)
                         if self.mean_latency is not None else None),
            "lat_max": (round(self.max_latency, 4)
                        if self.max_latency is not None else None),
            "tx/bcast": round(self.transmissions_per_broadcast, 1),
            "collisions": self.physical.get("collisions", 0),
            "invariant_violations": self.invariant_violations,
        }


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Build the world, run the workload, measure.

    With ``config.profile`` the run executes under an active
    :mod:`repro.profiling` session and the result carries the per-phase
    cost summary; everything else about the run is unchanged (profiling
    only observes).

    With ``config.checkpoint`` the run snapshots itself every
    ``checkpoint.every`` virtual seconds, and — if a usable snapshot for
    this configuration already exists in ``checkpoint.directory`` (a
    previous run was killed mid-flight) — resumes from it instead of
    restarting.  Either way the returned result is identical to an
    uninterrupted run's.  The profiler and observability context live
    *inside* the world (not wrapped around this call), so a resumed run
    continues the same counters and span streams and its profile/trace
    match the uninterrupted run's (profile *seconds* excepted:
    wall-clock is never part of the determinism contract).

    With ``config.tier == "fluid"`` the discrete-event machinery is
    bypassed entirely: the calibrated mean-field model
    (:mod:`repro.sim.fluid`) produces the result analytically.
    """
    start = time.perf_counter()
    if config.tier == "fluid":
        from .fluid import run_fluid_experiment
        result = run_fluid_experiment(config)
    else:
        result = _run_experiment_body(config)
    return _finalize_runtime(result, time.perf_counter() - start)


def resume_experiment(path: str) -> ExperimentResult:
    """Restore a snapshot written by a checkpointed run and finish it.

    Raises :class:`repro.sim.checkpoint.CheckpointError` if the file is
    missing, corrupt, or from an incompatible format version.  The
    continued run fires exactly the events the uninterrupted run would
    have fired, so the result matches byte for byte (modulo profile
    wall-clock seconds).
    """
    start = time.perf_counter()
    result = finish_world(load_checkpoint(path))
    return _finalize_runtime(result, time.perf_counter() - start)


def _finalize_runtime(result: ExperimentResult,
                      wall_seconds: float) -> ExperimentResult:
    """Replace the partial runtime stub :func:`finish_world` leaves (just
    the kernel event count; None on the fluid tier) with the full
    wall-clock block."""
    events = (result.runtime or {}).get("events")
    result.runtime = runtime_block(wall_seconds, events=events)
    return result


def _scheme(config: ExperimentConfig):
    seed = str(config.scenario.seed).encode()
    if config.signature_scheme == "dsa":
        return DsaScheme(seed=seed)
    return HmacScheme(seed=seed)


@dataclass
class ExperimentWorld:
    """A live experiment mid-run — everything needed to continue it and
    measure the outcome.

    The whole graph is picklable (no closures anywhere in the stack), so
    a checkpoint can snapshot the object as-is: the event heap re-arms
    itself because every scheduled callback is a bound method or a
    module-level function, never a lambda.
    """

    config: ExperimentConfig
    sim: Simulator
    streams: StreamFactory
    nodes: List
    medium: Medium
    energy: EnergyModel
    collector: MetricsCollector
    controller: Optional[ChaosController]
    oracle: Optional[InvariantOracle]
    mobility: object
    assignment: Dict[int, str]
    correct: set
    horizon: float
    #: Observability context (``config.observe``); rides in the world so
    #: checkpoints carry spans, occurrence counters, and metric series
    #: already recorded — a resume continues the same streams.
    obs: Optional[ObsContext] = None
    #: Per-phase cost profiler (``config.profile``); in the world for the
    #: same reason — phase *counts* survive a resume intact.
    profiler: Optional[profiling.Profiler] = None


@contextmanager
def _instruments(profiler: Optional[profiling.Profiler],
                 obs_ctx: Optional[ObsContext]) -> Iterator[None]:
    """Activate a world's own instruments around a run segment.

    Both instruments are consulted through process-globals by the hot
    paths; installing the *world's* instances (rather than fresh ones per
    :func:`run_experiment` call) is what lets checkpoint/resume continue
    the same profile counters and span streams.
    """
    with ExitStack() as stack:
        if profiler is not None:
            stack.enter_context(profiling.session(profiler))
        if obs_ctx is not None:
            stack.enter_context(obs_session(obs_ctx))
        yield


def _run_experiment_body(config: ExperimentConfig) -> ExperimentResult:
    if config.checkpoint is not None:
        key = config_key(config)
        path = latest_checkpoint(config.checkpoint.directory, key)
        if path is not None:
            try:
                world = load_checkpoint(path, expect_key=key)
                # The key leaves out how a run executes, so a snapshot
                # resumes only under the caller's observe/medium settings.
                if all(getattr(world.config, name) == getattr(config, name)
                       for name in _EXECUTION_FIELDS if name != "checkpoint"):
                    return finish_world(world)
            except CheckpointError:
                pass
            # Unusable snapshot (stale format, corrupt, wrong config, other
            # execution settings): a fresh run is always a correct fallback.
            discard_checkpoint(config.checkpoint.directory, key)
    return finish_world(build_world(config))


def build_world(config: ExperimentConfig) -> ExperimentWorld:
    """Construct the network, run the warmup, arm workload/chaos/oracle.

    Returns the world paused at the end of warmup with every remaining
    event scheduled; :func:`finish_world` (or a manually sliced
    ``world.sim.run``) carries it to the horizon.
    """
    scenario = config.scenario
    sim = Simulator()
    streams = StreamFactory(scenario.seed)
    adversary_rng = streams.stream("adversary")
    sources = {event.source for event in config.events()}
    assignment = scenario.byzantine_assignment(sources, adversary_rng)
    correct = set(range(scenario.n)) - set(assignment)

    positions = _positions(scenario, streams, correct)
    area = Area(scenario.side(), scenario.side())
    propagation = _propagation(scenario)
    medium = _make_medium(config, sim, streams, propagation)
    energy = EnergyModel(sim, medium)
    directory = KeyDirectory(_scheme(config))

    nodes = _build_nodes(config, sim, medium, positions, streams, directory,
                         assignment)

    collector = MetricsCollector(correct)
    listener = collector.listener(sim)
    for node in nodes:
        node.add_accept_listener(listener)

    events = config.events()
    controller: Optional[ChaosController] = None
    if config.chaos:
        controller = ChaosController(sim, nodes, config.chaos, streams)
    oracle: Optional[InvariantOracle] = None
    if config.oracle is not None:
        exempt = set(assignment)
        if config.chaos:
            exempt.update(config.chaos.nodes())
        oracle = InvariantOracle(
            sim, nodes, config.stack.protocol, delta=_offered_rate(events),
            config=config.oracle, exempt=exempt)
        oracle.attach_network(nodes)
        if controller is not None:
            controller.add_listener(oracle.chaos_listener)

    profiler = profiling.Profiler() if config.profile else None
    obs_ctx: Optional[ObsContext] = None
    if config.observe is not None:
        obs_ctx = _build_observability(config, sim, nodes, medium, energy,
                                       oracle, events)

    mobility = _mobility(scenario, sim, [node.radio for node in nodes],
                         area, streams)
    for node in nodes:
        node.start()
    mobility.start()

    with _instruments(profiler, obs_ctx):
        sim.run(until=config.warmup)

    for event in events:
        sim.schedule_at(config.warmup + event.time, _inject, sim, collector,
                        oracle, nodes[event.source], event)
    horizon = config.warmup + max(e.time for e in events) + config.drain
    if controller is not None:
        controller.start(at=config.warmup)
        horizon = max(horizon,
                      config.warmup + config.chaos.horizon + config.drain)
    if oracle is not None:
        oracle.start()

    return ExperimentWorld(
        config=config, sim=sim, streams=streams, nodes=nodes, medium=medium,
        energy=energy, collector=collector, controller=controller,
        oracle=oracle, mobility=mobility, assignment=assignment,
        correct=correct, horizon=horizon, obs=obs_ctx, profiler=profiler)


def _build_observability(config: ExperimentConfig, sim: Simulator, nodes,
                         medium: Medium, energy: EnergyModel,
                         oracle: Optional[InvariantOracle],
                         events: Sequence[BroadcastEvent]) -> ObsContext:
    """Assemble the observability context and its metric sampler for one
    world.  Nothing is attached to the nodes, the medium, the chaos
    controller or the oracle: the instrumented seams find the context
    through :data:`repro.obs.context.ACTIVE`.

    The span stream is kept only when something reads it: the result
    exports it (``spans_in_result``) or the oracle cross-references
    violations to the last span of the offending node.  Otherwise the
    context counts spans without building them."""
    scenario = config.scenario
    observe = config.observe
    obs_ctx = ObsContext(
        observe, sim=sim,
        keep_stream=observe.spans_in_result or oracle is not None)
    if oracle is not None:
        latency_bound = oracle.latency_bound
        buffer_bound = oracle.buffer_bound
    else:
        # Same §3.5 instantiation the oracle uses, so `repro trace
        # latency` can flag bound violations on oracle-less runs too.
        proto = config.stack.protocol
        oracle_defaults = OracleConfig()
        latency_bound = (proto.max_timeout(oracle_defaults.transmission_time)
                         * max(1, scenario.n - 1))
        buffer_bound = (math.ceil(max(0.0, _offered_rate(list(events)))
                                  * proto.purge_timeout)
                        + oracle_defaults.buffer_slack)
    obs_ctx.meta.update({
        "n": scenario.n,
        "seed": scenario.seed,
        "protocol": config.protocol,
        "warmup": config.warmup,
        "latency_bound": latency_bound,
        "buffer_bound": buffer_bound,
        "sample_period": observe.sample_period,
    })
    sampler = MetricSampler(sim, obs_ctx, nodes, medium, energy=energy,
                            buffer_bound=buffer_bound)
    obs_ctx.attach_sampler(sampler)
    sampler.start()
    return obs_ctx


def _next_boundary(now: float, every: float) -> float:
    """First checkpoint instant strictly after ``now`` on the absolute
    grid ``k * every`` — absolute so a resumed run keeps the original
    cadence instead of restarting it from the resume point."""
    boundary = (math.floor(now / every) + 1) * every
    while boundary <= now:  # float-rounding guard
        boundary += every
    return boundary


def finish_world(world: ExperimentWorld) -> ExperimentResult:
    """Run a world from wherever it stands to its horizon and measure.

    Without ``config.checkpoint`` this is one ``sim.run`` call.  With it,
    the same window is executed as ``sim.run(until=boundary)`` slices
    with a snapshot between slices.  Slicing is invisible to the
    simulation — ``run(until=t)`` fires events at exactly ``t`` before
    returning and snapshots never touch the heap — so both paths fire
    the byte-identical event sequence.  The snapshot is deleted once the
    run completes (it only exists to survive interruption).
    """
    config = world.config
    sim = world.sim
    ckpt = config.checkpoint
    with _instruments(world.profiler, world.obs):
        if ckpt is None:
            sim.run(until=world.horizon)
        else:
            key = config_key(config)
            while sim.now < world.horizon:
                boundary = _next_boundary(sim.now, ckpt.every)
                if boundary >= world.horizon:
                    sim.run(until=world.horizon)
                    break
                sim.run(until=boundary)
                write_checkpoint(world, key, ckpt.directory)

    scenario = config.scenario
    collector = world.collector
    controller = world.controller
    oracle = world.oracle
    overlay_quality = _overlay_snapshot(config, world.nodes, scenario,
                                        world.correct)
    if oracle is not None:
        oracle.stop()
    if controller is not None:
        controller.stop()
    for node in world.nodes:
        node.stop()
    if world.obs is not None:
        world.obs.stop()
    if ckpt is not None:
        discard_checkpoint(ckpt.directory, config_key(config))

    result = ExperimentResult(
        protocol=config.protocol,
        n=scenario.n,
        byzantine=len(world.assignment),
        broadcasts=collector.broadcast_count,
        delivery_ratio=collector.delivery_ratio(),
        complete_fraction=collector.complete_fraction(),
        mean_latency=collector.mean_latency(),
        max_latency=collector.max_latency(),
        mean_completion_latency=_mean(collector.completion_latencies()),
        physical=collector.physical_summary(world.medium),
        energy=world.energy.summary(),
        overlay_quality=overlay_quality,
        sim_time=sim.now,
        chaos_events=len(controller.applied) if controller else 0,
        invariant_violations=oracle.violation_count if oracle else 0,
        violations=([v.to_dict() for v in oracle.violations]
                    if oracle else []),
    )
    if world.obs is not None:
        # Under the world's profiler, before its summary is taken, so
        # the export is accounted as ``obs.export``.
        with _instruments(world.profiler, None):
            result.trace = world.obs.export_payload()
    if world.profiler is not None:
        result.profile = world.profiler.summary()
    # Partial runtime stub: the deterministic event count now, wall-clock
    # fields once run_experiment/resume_experiment knows the elapsed time.
    result.runtime = {"events": sim.events_fired}
    return result


def run_many(configs: Sequence[ExperimentConfig],
             workers: int = 1) -> List[ExperimentResult]:
    """Run several experiments, optionally across worker processes.

    Every simulation is fully self-seeded (all randomness flows from
    ``config.scenario.seed`` through named streams), so each task is
    independent and the result list is identical — element for element —
    whether it was computed serially or by ``workers`` processes.  Results
    come back in input order.
    """
    return parallel_map(run_experiment, configs, workers=workers)


# ----------------------------------------------------------------------
# Internals
# ----------------------------------------------------------------------
def _inject(sim: Simulator, collector: MetricsCollector,
            oracle: Optional[InvariantOracle], node,
            event: BroadcastEvent) -> None:
    if getattr(node, "crashed", False):
        return  # a crashed source cannot broadcast
    payload = event.payload()
    msg_id = node.broadcast(payload)
    collector.on_broadcast(msg_id, sim.now)
    if oracle is not None:
        oracle.on_broadcast(msg_id, payload, sim.now)


def _offered_rate(events: Sequence[BroadcastEvent]) -> float:
    """Broadcast arrival rate ``delta`` (messages/s) of the workload."""
    if len(events) < 2:
        return float(bool(events))
    span = max(e.time for e in events) - min(e.time for e in events)
    if span <= 0:
        return float(len(events))
    return (len(events) - 1) / span


def _mean(values: List[float]) -> Optional[float]:
    return sum(values) / len(values) if values else None


def _positions(scenario: ScenarioConfig, streams: StreamFactory,
               correct: set) -> List[Position]:
    side = scenario.side()
    area = Area(side, side)
    rng = streams.stream("placement")
    if scenario.placement == "uniform_connected":
        return connected_uniform_positions(
            area, scenario.n, scenario.tx_range, rng,
            required_connected=sorted(correct))
    if scenario.placement == "grid":
        return grid_positions(area, scenario.n, margin=scenario.tx_range / 4)
    if scenario.placement == "line":
        return line_positions(
            scenario.n, scenario.line_spacing_factor * scenario.tx_range)
    raise AssertionError(scenario.placement)


def _make_medium(config: ExperimentConfig, sim: Simulator,
                 streams: StreamFactory, propagation) -> Medium:
    """Construct the configured medium backend (same RNG stream for
    both, so switching backends never desynchronises a run)."""
    backend = VectorizedMedium if config.medium == "vectorized" else Medium
    return backend(sim, streams.stream("medium"), propagation,
                   bitrate_bps=config.scenario.bitrate_bps)


def _propagation(scenario: ScenarioConfig):
    if scenario.propagation == "disk":
        return UnitDisk()
    return LogNormalShadowing(sigma=scenario.shadowing_sigma,
                              background_loss=scenario.background_loss)


def _mobility(scenario: ScenarioConfig, sim: Simulator, radios, area,
              streams: StreamFactory):
    rng = streams.stream("mobility")
    if scenario.mobility == "static":
        return StaticMobility(sim, radios)
    if scenario.mobility == "waypoint":
        return RandomWaypoint(sim, radios, area, rng,
                              speed_max=scenario.speed_max)
    if scenario.mobility == "gaussmarkov":
        return GaussMarkov(sim, radios, area, rng,
                           mean_speed=scenario.speed_max / 2)
    return RandomWalk(sim, radios, area, rng, speed_max=scenario.speed_max)


def _build_nodes(config: ExperimentConfig, sim: Simulator, medium: Medium,
                 positions: List[Position], streams: StreamFactory,
                 directory: KeyDirectory,
                 assignment: Dict[int, str]) -> List:
    scenario = config.scenario
    behaviors = {
        node_id: make_behavior(kind, streams.stream(f"behavior:{node_id}"))
        for node_id, kind in assignment.items()
    }
    spec = arena.get_protocol(config.protocol)
    context = arena.BuildContext(
        config=config, sim=sim, medium=medium, positions=positions,
        streams=streams, directory=directory, assignment=assignment,
        behaviors=behaviors)
    nodes = spec.factory(context)
    if len(nodes) != scenario.n:
        raise RuntimeError(
            f"protocol {config.protocol!r} built {len(nodes)} nodes "
            f"for an n={scenario.n} scenario")
    return nodes


def _overlay_snapshot(config: ExperimentConfig, nodes, scenario,
                      correct: set) -> Optional[OverlayQuality]:
    if not arena.get_protocol(config.protocol).overlay:
        return None
    positions = {node.node_id: node.position for node in nodes}
    members = {node.node_id for node in nodes if node.overlay.in_overlay}
    return evaluate_overlay(positions, scenario.tx_range, members, correct)
