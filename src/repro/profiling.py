"""Per-phase cost profiler for the simulator's hot paths.

The paper's evaluation flags cryptographic cost as the dominant
per-message expense; this module lets a run measure that *inside* the
simulator instead of by wall clock.  Instrumented seams (crypto
sign/verify, codec encode/decode, medium reception resolution, kernel
event dispatch) account their real elapsed time and call counts into
named phase buckets of the active :class:`Profiler`.

Design constraints:

* **Zero overhead when disabled.**  Hot paths read one module global
  (:data:`ACTIVE`) and test it against ``None``; no objects are
  allocated, no clocks are read.
* **Determinism-neutral.**  The profiler only *observes* (wall-clock
  durations and counts); nothing it records feeds back into simulation
  state, RNG streams, or event ordering, so a profiled run's campaign
  record (minus the profile block itself) is byte-identical to an
  unprofiled one.  Phase *counts* are themselves deterministic for a
  seeded run; *seconds* are host-dependent.
* **Single active profiler per process.**  Simulations are
  single-threaded and worker processes each run one experiment at a
  time, so a process-global active profiler is unambiguous.

Phases are dot-namespaced strings; the conventional vocabulary is in
:data:`PHASES` (instrumentation may add more).  ``kernel.event`` is
inclusive — it contains the time of every phase nested under an event
callback — and ``medium.complete`` is inclusive of the receive-side
handler work (reception resolution delivers packets synchronously into
the protocol, where verifications happen); ``hello.send`` and
``hello.recv`` are the beacon plane (neighbor discovery plus everything
piggybacked on it) and are inclusive of the signing, verification and
listener work they trigger; the crypto/codec phases are leaf costs.

Usage::

    from repro import profiling

    with profiling.session() as prof:
        run_experiment(config)          # or any instrumented code
    print(prof.summary())

Hot-path instrumentation pattern (the only pattern used in-tree)::

    prof = profiling.ACTIVE
    if prof is None:
        return do_work()
    start = perf_counter()
    result = do_work()
    prof.add("phase.name", perf_counter() - start)
    return result
"""

from __future__ import annotations

from contextlib import contextmanager
from time import perf_counter
from typing import Dict, Iterator, Optional

__all__ = ["PHASES", "PhaseStats", "Profiler", "ACTIVE", "activate",
           "deactivate", "active", "session"]

#: Conventional phase names emitted by in-tree instrumentation.
PHASES = (
    "crypto.sign",         # full signature computations
    "crypto.verify",       # full signature verifications (cache misses)
    "crypto.verify_hit",   # verify-cache hits (full verification skipped)
    "codec.encode",        # TLV wire encodings actually performed
    "codec.encode_hit",    # wire-frame cache hits (encoding skipped)
    "codec.decode",        # TLV wire decodings
    "medium.complete",     # reception resolution (inclusive of handlers)
    "medium.candidates",   # candidate-receiver lookup (vectorized mask
                           # computation, or the scalar oracle's scan)
    "hello.send",          # one HELLO beacon built, signed, sized and
                           # handed to the MAC (inclusive of crypto.sign)
    "hello.recv",          # one HELLO reception: verification, liveness
                           # refresh and every listener (overlay state
                           # parse, peer suspicion reports) inclusive
    "obs.sample",          # one metric-sampler tick (observed runs only)
    "obs.export",          # ObsContext.export_payload: every span's
                           # to_dict, once per observed run
    "kernel.event",        # event dispatch (inclusive of nested phases)
)


class PhaseStats:
    """Mutable (count, seconds) accumulator for one phase."""

    __slots__ = ("count", "seconds")

    def __init__(self) -> None:
        self.count = 0
        self.seconds = 0.0

    def to_dict(self) -> Dict[str, float]:
        return {"count": self.count, "seconds": self.seconds}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PhaseStats(count={self.count}, seconds={self.seconds:.6f})"


class Profiler:
    """Named phase buckets of call counts and elapsed wall-clock time."""

    def __init__(self) -> None:
        self._phases: Dict[str, PhaseStats] = {}

    # ------------------------------------------------------------------
    def add(self, phase: str, seconds: float = 0.0, count: int = 1) -> None:
        """Account ``count`` occurrences and ``seconds`` into ``phase``."""
        stats = self._phases.get(phase)
        if stats is None:
            stats = self._phases[phase] = PhaseStats()
        stats.count += count
        stats.seconds += seconds

    @contextmanager
    def time(self, phase: str) -> Iterator[None]:
        """Context manager accounting its body's duration into ``phase``."""
        start = perf_counter()
        try:
            yield
        finally:
            self.add(phase, perf_counter() - start)

    # ------------------------------------------------------------------
    def count(self, phase: str) -> int:
        stats = self._phases.get(phase)
        return stats.count if stats else 0

    def seconds(self, phase: str) -> float:
        stats = self._phases.get(phase)
        return stats.seconds if stats else 0.0

    def phases(self) -> Dict[str, PhaseStats]:
        """Live view of the phase buckets (mutating it is undefined)."""
        return self._phases

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Plain-dict snapshot: ``{phase: {"count": n, "seconds": s}}``."""
        return {phase: stats.to_dict()
                for phase, stats in sorted(self._phases.items())}

    def clear(self) -> None:
        self._phases.clear()


#: The process-global active profiler, or None (profiling disabled).
#: Hot paths read this directly; use :func:`activate` / :func:`deactivate`
#: (or :func:`session`) to manage it.
ACTIVE: Optional[Profiler] = None


def activate(profiler: Optional[Profiler] = None) -> Profiler:
    """Install ``profiler`` (or a fresh one) as the active profiler."""
    global ACTIVE
    ACTIVE = profiler if profiler is not None else Profiler()
    return ACTIVE


def deactivate() -> None:
    """Disable profiling (hot paths return to the is-None fast path)."""
    global ACTIVE
    ACTIVE = None


def active() -> Optional[Profiler]:
    """The currently active profiler, or None."""
    return ACTIVE


@contextmanager
def session(profiler: Optional[Profiler] = None) -> Iterator[Profiler]:
    """Activate a profiler for the duration of a ``with`` block.

    Restores the previously active profiler (usually None) on exit, so
    sessions nest without leaking state into later runs in the process.
    """
    global ACTIVE
    previous = ACTIVE
    installed = activate(profiler)
    try:
        yield installed
    finally:
        ACTIVE = previous
