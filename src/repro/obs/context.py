"""Causal observability: deterministic message-lifecycle spans.

The paper's §3.5 bounds are claims about *per-message trajectories* —
which hops, retries, collisions and timeouts a broadcast traverses before
(or instead of) delivery.  Aggregate counters cannot answer that, so this
module threads a trace context through the stack: instrumented seams
(protocol, store, MAC, medium, radio, verify cache, failure detectors)
emit :class:`Span` records into the process-wide :data:`ACTIVE` context.

Two properties are load-bearing:

* **Zero cost when disabled.**  Every hook is guarded by a single
  ``obs.ACTIVE is None`` check, exactly like :mod:`repro.profiling` —
  no allocation, no dict lookup, nothing on the hot path.
* **Determinism.**  Span ids are derived from ``(message_id, node, k)``
  where ``k`` is a per-(message, node) occurrence counter — no wall
  clock, no ``uuid4`` — so traces are byte-identical across worker
  counts, vectorized vs scalar medium, and checkpoint/resume.  The
  context itself is picklable and rides inside the experiment world, so
  a resumed run continues the very same span streams.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Dict, Iterator, List, Optional, Tuple

from .. import profiling
from .registry import MetricRegistry

__all__ = [
    "PHASES",
    "ObsConfig",
    "Span",
    "ObsContext",
    "ACTIVE",
    "activate",
    "deactivate",
    "active",
    "session",
    "msg_of",
    "msg_key",
    "span_id",
]

#: Lifecycle phases a message can traverse.  ``origin → sign →
#: mac_enqueue → tx → (collision | loss | backoff)* → rx → verify →
#: deliver`` is the happy path; ``suppress``, ``request``, ``serve``,
#: ``find`` and ``purge`` cover recovery and the unhappy endings, and the
#: ``fd_*`` phases tie failure-detector reactions into the same stream.
PHASES = (
    "origin",       # application broadcast created the message
    "sign",         # data + gossip signatures produced
    "mac_enqueue",  # accepted into the CSMA queue
    "mac_drop",     # dropped by the MAC (queue full / max attempts)
    "backoff",      # channel busy; contention window drawn
    "tx",           # airtime started (duration = airtime)
    "collision",    # overlapped with another frame at a receiver
    "loss",         # lost at a receiver (half_duplex/propagation/deaf)
    "rx",           # frame delivered to a radio
    "verify",       # full signature verification (detail ok=bool)
    "verify_hit",   # verification satisfied from the LRU cache
    "deliver",      # accepted by the application layer
    "suppress",     # discarded (duplicate / bad_signature / behavior)
    "request",      # recovery REQUEST sent for a gossiped-but-missing id
    "serve",        # buffered message re-sent to answer a request/find
    "find",         # FIND_MISSING initiated or forwarded
    "purge",        # buffer entry reclaimed after the purge timeout
    "fd_timeout",   # MUTE expectation deadline expired
    "fd_strike",    # MUTE strike counter advanced toward suspicion
    "fd_indict",    # VERBOSE indictment registered
)

#: Counter namespace for per-phase span tallies in the exported payload.
_PHASE_COUNTER_PREFIX = "spans."


def msg_key(msg: Optional[Tuple[int, int]]) -> Optional[str]:
    """Render a ``(originator, seq)`` pair as the canonical ``"o:s"`` id
    used in exports and the ``repro trace`` CLI; ``None`` passes through."""
    if msg is None:
        return None
    return f"{msg[0]}:{msg[1]}"


def span_id(msg: Optional[Tuple[int, int]], node: int, k: int) -> str:
    """Deterministic span id: ``"<originator>:<seq>/<node>/<k>"`` (or
    ``"-/<node>/<k>"`` for spans not tied to a message, e.g. HELLOs)."""
    prefix = msg_key(msg) or "-"
    return f"{prefix}/{node}/{k}"


def msg_of(payload: Any) -> Optional[Tuple[int, int]]:
    """Extract the :class:`~repro.core.messages.MessageId` a wire object
    is *about*, as a plain tuple.

    Works across the message family without importing it: ``DataMessage``
    exposes ``msg_id`` directly; ``RequestMessage``/``FindMissingMessage``
    carry it inside their ``gossip`` summary.  Aggregates without a single
    subject (``GossipPacket``, HELLO frames) map to ``None``.
    """
    msg_id = getattr(payload, "msg_id", None)
    if msg_id is None:
        gossip = getattr(payload, "gossip", None)
        msg_id = getattr(gossip, "msg_id", None)
    if msg_id is None:
        return None
    return (msg_id[0], msg_id[1])


@dataclass(frozen=True)
class ObsConfig:
    """Settings for one observed run.

    Like ``checkpoint``, this is an *execution* knob: it changes what is
    recorded about a run, never the run itself, and is therefore excluded
    from campaign ``config_key`` hashing.
    """

    #: Record lifecycle spans.
    spans: bool = True
    #: Sample the metric registry on a virtual-time cadence.
    metrics: bool = True
    #: Seconds of virtual time between metric samples.
    sample_period: float = 0.5
    #: Maximum retained spans (``None`` = unbounded).  Overflow is counted
    #: in :attr:`ObsContext.dropped`, never silently lost.
    capacity: Optional[int] = None
    #: Restrict recording to these phases (``None`` = all of
    #: :data:`PHASES`).
    phases: Optional[Tuple[str, ...]] = None
    #: Attach the span dicts to ``ExperimentResult.trace`` (the metric
    #: series always travels; spans can be bulky for big campaigns).
    #: An experiment with this off and no oracle builds no spans at all:
    #: nothing would read them, so its context keeps counts only.
    spans_in_result: bool = True

    def __post_init__(self) -> None:
        if self.sample_period <= 0:
            raise ValueError("sample_period must be positive")
        if self.capacity is not None and self.capacity < 0:
            raise ValueError("capacity must be non-negative")
        if self.phases is not None:
            unknown = set(self.phases) - set(PHASES)
            if unknown:
                raise ValueError(f"unknown phases: {sorted(unknown)}")


class Span:
    """One lifecycle event.

    ``seq`` is the context-wide emission index: a monotonic total order
    that survives export/re-import even when many spans share a virtual
    timestamp.  ``duration`` is non-zero only for phases with extent
    (``tx`` airtime, ``backoff`` windows).

    A hand-written ``__slots__`` class: tens of thousands are built per
    observed run, each exactly once (in :meth:`ObsContext.span`).
    """

    __slots__ = ("seq", "span_id", "time", "phase", "node", "msg",
                 "duration", "detail")

    def __init__(self, seq: int, span_id: str, time: float, phase: str,
                 node: int, msg: Optional[Tuple[int, int]],
                 duration: float, detail: Dict[str, Any]):
        self.seq = seq
        self.span_id = span_id
        self.time = time
        self.phase = phase
        self.node = node
        self.msg = msg
        self.duration = duration
        self.detail = detail

    def _value(self) -> Tuple[Any, ...]:
        return (self.seq, self.span_id, self.time, self.phase, self.node,
                self.msg, self.duration, self.detail)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not Span:
            return NotImplemented
        return self._value() == other._value()  # type: ignore[attr-defined]

    def __repr__(self) -> str:
        return (f"Span(seq={self.seq!r}, span_id={self.span_id!r}, "
                f"time={self.time!r}, phase={self.phase!r}, "
                f"node={self.node!r}, msg={self.msg!r}, "
                f"duration={self.duration!r}, detail={self.detail!r})")

    def __getstate__(self):
        return self._value()

    def __setstate__(self, state):
        (self.seq, self.span_id, self.time, self.phase, self.node,
         self.msg, self.duration, self.detail) = state

    def to_dict(self) -> Dict[str, Any]:
        """Flat export form: the columns, then the detail keys.

        ``time`` is *not* rounded: rounding would collapse distinct
        same-microsecond spans, and floats serialise deterministically
        anyway.  A detail key named like a column cannot shadow it: the
        column keeps its place *and* its value (the detail stays
        readable on the span, it just has no row key of its own)."""
        columns = {"seq": self.seq, "span": self.span_id, "time": self.time,
                   "phase": self.phase, "node": self.node,
                   "msg": msg_key(self.msg), "duration": self.duration}
        row = {**columns, **self.detail}
        if len(row) != len(columns) + len(self.detail):
            row.update(columns)
        return row


class ObsContext:
    """Collects spans and metrics for one experiment.

    Instrumented modules never hold a reference to a context; they read
    the module-global :data:`ACTIVE` on each event, so a single context
    can be activated around any run segment (and deactivated without
    touching the instrumented objects).  The context is picklable — it
    rides inside ``ExperimentWorld`` so checkpoints carry the spans
    recorded so far together with the occurrence counters that keep span
    ids deterministic across a resume.
    """

    def __init__(self, config: ObsConfig = ObsConfig(), sim=None,
                 keep_stream: bool = True):
        self._config = config
        self._sim = sim
        #: Build :class:`Span` records; without it the context only
        #: counts (``span_count``, ``dropped_spans`` and the phase tallies
        #: come out the same) and ``spans`` stays empty.
        self._keep_stream = keep_stream
        self.spans: List[Span] = []
        self.dropped = 0
        self._seq = 0
        self._occurrences: Dict[Tuple[Optional[Tuple[int, int]], int],
                                int] = {}
        self._phase_filter = (frozenset(config.phases)
                              if config.phases is not None else None)
        self.registry = MetricRegistry()
        #: phase -> spans recorded in it (exported as ``spans.<phase>``).
        self._phase_counts: Dict[str, int] = {}
        self.meta: Dict[str, Any] = {}
        self._sampler = None

    # ------------------------------------------------------------------
    @property
    def config(self) -> ObsConfig:
        return self._config

    def bind(self, sim) -> None:
        """Point the context at the simulator clock (timestamps come from
        virtual time only)."""
        self._sim = sim

    def attach_sampler(self, sampler) -> None:
        """Adopt the periodic metric sampler so :meth:`stop` can halt it."""
        self._sampler = sampler

    def stop(self) -> None:
        """Halt the metric sampler (spans need no teardown)."""
        if self._sampler is not None:
            self._sampler.stop()

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def span(self, phase: str, node: int,
             msg: Optional[Tuple[int, int]] = None,
             duration: float = 0.0, **detail: Any) -> Optional[str]:
        """Record one lifecycle event; returns its span id (or ``None``
        when span recording is off / the phase is filtered / the context
        keeps counts only)."""
        config = self._config
        if not config.spans:
            return None
        if self._phase_filter is not None and phase not in self._phase_filter:
            return None
        kept = config.capacity is None or self._seq < config.capacity
        if kept:
            self._seq += 1
            counts = self._phase_counts
            counts[phase] = counts.get(phase, 0) + 1
        else:
            self.dropped += 1
        if not self._keep_stream:
            return None
        # span_id()'s format, with the "o:s" prefix rendered once.
        if msg is None:
            prefix = "-"
        else:
            msg = (msg[0], msg[1])
            prefix = f"{msg[0]}:{msg[1]}"
        key = (msg, node)
        k = self._occurrences.get(key, 0) + 1
        self._occurrences[key] = k
        sid = f"{prefix}/{node}/{k}"
        if kept:
            self.spans.append(Span(self._seq, sid, self._sim.now, phase,
                                   node, msg, duration, detail))
        return sid

    def last_span_id(self, node: int,
                     msg: Optional[Tuple[int, int]] = None
                     ) -> Optional[str]:
        """The most recent span id recorded at ``node`` (optionally for a
        specific message) — used to cross-reference oracle violations to
        the span that produced them."""
        if msg is not None:
            msg = (msg[0], msg[1])
        for span in reversed(self.spans):
            if span.node == node and (msg is None or span.msg == msg):
                return span.span_id
        return None

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def span_dicts(self) -> List[Dict[str, Any]]:
        return [span.to_dict() for span in self.spans]

    def counters(self) -> Dict[str, int]:
        """The per-phase span tallies as ``spans.<phase>`` counters,
        sorted by name."""
        return {_PHASE_COUNTER_PREFIX + phase: count
                for phase, count in sorted(self._phase_counts.items())}

    def export_payload(self) -> Dict[str, Any]:
        """The ``ExperimentResult.trace`` payload: run metadata, the span
        stream (unless suppressed by config), the sampled metric series
        and the final registry snapshot."""
        prof = profiling.ACTIVE
        if prof is None:
            return self._export_payload()
        start = perf_counter()
        payload = self._export_payload()
        prof.add("obs.export", perf_counter() - start)
        return payload

    def _export_payload(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {
            "meta": dict(self.meta),
            "span_count": self._seq,
            "dropped_spans": self.dropped,
            "series": self.registry.series_dict(),
            "counters": self.counters(),
        }
        if self._config.spans_in_result:
            payload["spans"] = self.span_dicts()
        return payload

    # ------------------------------------------------------------------
    # Pickling: drop nothing — the sampler is already a picklable class;
    # the default protocol just works.  Defined explicitly only to
    # document the contract.
    # ------------------------------------------------------------------
    def __getstate__(self):
        return self.__dict__

    def __setstate__(self, state):
        self.__dict__.update(state)


#: The process-wide context consulted by every instrumented seam.
#: ``None`` (the default) means observability is off and each hook costs
#: one global read.
ACTIVE: Optional[ObsContext] = None


def activate(context: Optional[ObsContext] = None) -> ObsContext:
    """Install ``context`` (or a fresh one) as :data:`ACTIVE`."""
    global ACTIVE
    if context is None:
        context = ObsContext()
    ACTIVE = context
    return context


def deactivate() -> None:
    global ACTIVE
    ACTIVE = None


def active() -> Optional[ObsContext]:
    return ACTIVE


@contextmanager
def session(context: Optional[ObsContext] = None) -> Iterator[ObsContext]:
    """Activate a context for a ``with`` block, restoring the previous
    one afterwards (mirrors :func:`repro.profiling.session`)."""
    global ACTIVE
    previous = ACTIVE
    context = activate(context)
    try:
        yield context
    finally:
        ACTIVE = previous
