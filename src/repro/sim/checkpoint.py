"""Checkpoint/resume for live simulations.

A checkpoint is a versioned snapshot of a whole mid-run experiment world —
virtual clock and event heap, every named RNG stream's generator state,
per-node protocol/store/failure-detector state, in-flight medium
transmissions, chaos-timeline position, and metrics buffers — written
atomically so an interrupted run can be picked up and continued.

Determinism contract
--------------------
Snapshots are taken *between* kernel events (the runner slices
``sim.run(until=...)`` at checkpoint boundaries) and never schedule
anything on the heap themselves, so taking them does not perturb event
sequence numbers or same-instant FIFO ordering.  A resumed run therefore
fires exactly the events an uninterrupted run would have fired, and its
final result — and campaign record — is byte-identical modulo the
record's config block (which carries the checkpoint settings themselves).

File format
-----------
One pickle per configuration, named ``<config_key>.ckpt`` inside the
checkpoint directory, containing ``{"version", "key", "sim_time",
"events_fired", "stream_names", "world"}``.  Files are written via
:func:`repro.persist.atomic_write` (write-temp + rename) so a crash
mid-write never corrupts the previous snapshot.  Version or key
mismatches surface as :class:`CheckpointError`; callers treat that as
"no usable checkpoint" and fall back to a fresh run.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import pickle
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

from ..persist import atomic_write, temp_path

__all__ = [
    "CHECKPOINT_VERSION",
    "CheckpointConfig",
    "CheckpointError",
    "checkpoint_path",
    "config_key",
    "discard_checkpoint",
    "latest_checkpoint",
    "load_checkpoint",
    "write_checkpoint",
]

#: Bump when the snapshot payload layout changes; older files are refused.
#: v2: ``ExperimentWorld`` gained ``obs``/``profiler`` (instruments ride
#: in the world so resume continues their streams).
#: v3: ``Event`` records carry a ``transient`` slab flag and ``Simulator``
#: pickles exclude the slab free list; pre-slab snapshots are refused.
#: v4: the spatial-hash-grid medium is gone (``repro.radio.grid`` no
#: longer imports), so snapshots that may pickle one are refused.
#: v5: ``Span`` and the recorder's event are slotted classes with tuple
#: state and the recorder derives its ``span`` events from the context
#: instead of holding a copy; a v4 *observed* snapshot has neither shape.
#: v6: ``repro.baselines`` is gone (its node classes moved to
#: ``repro.arena`` and keep ``_delivered`` where they had ``_seen``).
#: v7: observed worlds carry no tap recorder (``ExperimentWorld`` lost
#: ``recorder``), ``Span`` state lost its ninth slot (the recorder
#: stream position) and the context tallies phases in a plain dict
#: instead of registry counters.
#: v8: the kernel heap holds ``(time, seq, event)`` tuples and ``Event``
#: lost ``__lt__``; the vectorized medium keeps its live transmissions
#: and carrier-sense horizons in arrays.
#: v9: the kernel has one scheduling path: ``Event`` lost its
#: ``transient`` slot and ``Simulator`` its slab free list, and
#: ``NetworkNode`` no longer keeps its ``NodeStackConfig``.
#: v10: ``ObsContext`` carries ``_keep_stream``: a context whose span
#: stream nothing reads counts spans without building them.
CHECKPOINT_VERSION = 10


class CheckpointError(RuntimeError):
    """A checkpoint file is unreadable, stale-format, or mismatched."""


@dataclass(frozen=True)
class CheckpointConfig:
    """Periodic-snapshot settings for one run.

    ``every`` is virtual seconds between snapshots.  Checkpointing is an
    *execution* knob, not a scenario parameter: it is excluded from
    :func:`config_key`, so a checkpointed run and an uninterrupted run of
    the same scenario share one campaign record key.
    """

    every: float
    directory: str = ".repro-checkpoints"

    def __post_init__(self) -> None:
        if self.every <= 0:
            raise ValueError(f"checkpoint interval must be > 0: {self.every}")


# ----------------------------------------------------------------------
# Configuration identity
# ----------------------------------------------------------------------
#: Leaf types returned as they are, matched by exact type.
_SCALAR_TYPES = frozenset((str, int, float, bool, type(None)))

#: Field names of every dataclass type met so far, in field order.
_FIELD_NAMES: Dict[type, Tuple[str, ...]] = {}


def _jsonable(value: Any) -> Any:
    """``value`` as plain JSON data: dataclass instances and dicts become
    dicts (dict items sorted, keys as ``str``), lists and tuples lists,
    scalars stay as they are and anything else becomes its ``repr``.

    Exact scalar types return first, and each dataclass type's field
    names are looked up once; subclasses take the ``isinstance`` checks.
    """
    kind = type(value)
    if kind in _SCALAR_TYPES:
        return value
    names = _FIELD_NAMES.get(kind)
    if names is None and dataclasses.is_dataclass(value) \
            and not isinstance(value, type):
        names = _FIELD_NAMES[kind] = tuple(
            field.name for field in dataclasses.fields(value))
    if names is not None:
        return {name: _jsonable(getattr(value, name)) for name in names}
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in sorted(value.items())}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return repr(value)


#: Fields excluded from the key unconditionally.  These are *execution*
#: knobs: they change how a run executes — snapshot cadence, what it
#: records about itself, or which (pinned-equivalent) medium backend
#: resolves receptions — never what it computes, so every setting
#: must land on the same campaign record key.
_EXECUTION_FIELDS = ("checkpoint", "observe", "medium")

#: Fields elided from the key only at their default value.  Non-default
#: settings (the fluid tier, overridden rival knobs) legitimately change
#: what a run computes and get their own key, while every configuration
#: predating the field keeps the key it always had.
_DEFAULT_ELIDED = {"tier": "packet", "rivals": None}


def config_key(config: Any) -> str:
    """Stable content hash identifying one configuration.

    Execution knobs (``checkpoint``, ``observe``, ``medium``) are
    excluded: how often a run snapshots itself, what it records about
    itself, or which equivalent medium backend it runs on does not change
    what it simulates, so a checkpointed, observed, or scalar-medium run
    lands on the same record key as the plain run it replaces.  Newer
    semantic fields (``tier``, ``rivals``) are elided at their defaults
    so pre-existing keys stay stable.
    """
    canonical_dict = _jsonable(config)
    if isinstance(canonical_dict, dict):
        for name in _EXECUTION_FIELDS:
            canonical_dict.pop(name, None)
        for name, default in _DEFAULT_ELIDED.items():
            if canonical_dict.get(name, default) == default:
                canonical_dict.pop(name, None)
    canonical = json.dumps(canonical_dict, sort_keys=True)
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


# ----------------------------------------------------------------------
# Snapshot I/O
# ----------------------------------------------------------------------
def checkpoint_path(directory: str, key: str) -> str:
    """The snapshot file path for one configuration key."""
    return os.path.join(directory, f"{key}.ckpt")


def write_checkpoint(world: Any, key: str, directory: str) -> str:
    """Atomically snapshot ``world`` (an ``ExperimentWorld``); returns the
    file path.

    The caller must invoke this between kernel events — i.e. outside
    ``sim.run`` — so the snapshot observes a quiescent heap.
    """
    os.makedirs(directory, exist_ok=True)
    payload = {
        "version": CHECKPOINT_VERSION,
        "key": key,
        "sim_time": world.sim.now,
        "events_fired": world.sim.events_fired,
        "stream_names": world.streams.issued_names,
        "world": world,
    }
    path = checkpoint_path(directory, key)
    with atomic_write(path, "wb") as handle:
        pickle.dump(payload, handle, protocol=pickle.HIGHEST_PROTOCOL)
    return path


def load_checkpoint(path: str, expect_key: Optional[str] = None) -> Any:
    """Load a snapshot and return its ``ExperimentWorld``.

    Raises :class:`CheckpointError` on any defect — missing file, pickle
    corruption, format-version mismatch, or (with ``expect_key``) a
    snapshot belonging to a different configuration.  Callers use that as
    the signal to start fresh instead.
    """
    try:
        with open(path, "rb") as handle:
            payload = pickle.load(handle)
    except FileNotFoundError:
        raise CheckpointError(f"no checkpoint at {path}")
    except Exception as exc:  # corrupt/truncated pickle, missing class, ...
        raise CheckpointError(f"unreadable checkpoint {path}: {exc}")
    if not isinstance(payload, dict) or "version" not in payload:
        raise CheckpointError(f"malformed checkpoint {path}")
    if payload["version"] != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"checkpoint {path} has format version {payload['version']}, "
            f"expected {CHECKPOINT_VERSION}")
    if expect_key is not None and payload.get("key") != expect_key:
        raise CheckpointError(
            f"checkpoint {path} belongs to config {payload.get('key')!r}, "
            f"not {expect_key!r}")
    return payload["world"]


def describe_checkpoint(path: str) -> Dict[str, Any]:
    """The snapshot's manifest (everything but the world itself) — for
    inspection and audits without deserialising a whole simulation."""
    try:
        with open(path, "rb") as handle:
            payload = pickle.load(handle)
    except Exception as exc:
        raise CheckpointError(f"unreadable checkpoint {path}: {exc}")
    if not isinstance(payload, dict):
        raise CheckpointError(f"malformed checkpoint {path}")
    return {k: v for k, v in payload.items() if k != "world"}


def latest_checkpoint(directory: str, key: str) -> Optional[str]:
    """Path of the usable snapshot for ``key``, or None."""
    path = checkpoint_path(directory, key)
    return path if os.path.exists(path) else None


def discard_checkpoint(directory: str, key: str) -> None:
    """Remove a configuration's snapshot (done once its run completes)."""
    path = checkpoint_path(directory, key)
    for victim in (path, temp_path(path)):
        try:
            os.remove(victim)
        except OSError:
            pass
