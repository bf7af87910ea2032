"""Delta-debugging shrinker for fault schedules.

Given a schedule whose run exhibits some failure (as judged by a caller
``predicate``), produce a smaller schedule exhibiting the *same* failure.
Two phases, both classic:

1. **ddmin over events** — try dropping ever-finer chunks of the event
   list, keeping any reduction the predicate still accepts.  This is
   Zeller's delta debugging: O(n²) worst case, near-linear when the
   failing core is small and contiguous-ish, which planted and organic
   cores alike tend to be.

2. **Normalization** — with the surviving events, push each field toward
   its simplest value: times toward ``0.0`` (then one decimal), node ids
   toward ``0``, optional params dropped.  Each simplification is kept
   only if the predicate still accepts it, and the result is re-sorted
   into canonical time order.

The predicate is called on whole :class:`FaultSchedule` candidates and
memoized by content digest, so re-proposed candidates (common in ddmin's
backtracking) cost nothing.  The shrinker never *returns* a schedule the
predicate has not accepted — the guarantee the corpus leans on.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable, Dict, Optional

from ..chaos.schedule import FaultEvent, FaultSchedule

__all__ = ["ShrinkResult", "shrink_events"]

#: Params that must survive normalization: dropping them would change
#: the event's meaning, not simplify it (e.g. a behavior event without
#: its ``kind`` is invalid).
_REQUIRED_PARAMS = {
    "behavior": ("kind",),
    "attacker_start": ("kind",),
    "restart": (),
    "tx_power": ("factor",),
}


@dataclass(frozen=True)
class ShrinkResult:
    """What shrinking achieved and what it cost."""

    schedule: FaultSchedule
    original_events: int
    #: Predicate evaluations actually executed (cache misses).
    tests: int
    #: Candidate reductions the predicate accepted.
    accepted: int


class _Memo:
    """Digest-memoized predicate with a test budget."""

    def __init__(self, predicate: Callable[[FaultSchedule], bool],
                 budget: Optional[int]):
        self._predicate = predicate
        self._budget = budget
        self._cache: Dict[str, bool] = {}
        self.tests = 0
        self.accepted = 0

    def exhausted(self) -> bool:
        return self._budget is not None and self.tests >= self._budget

    def __call__(self, schedule: FaultSchedule) -> bool:
        digest = schedule.digest()
        if digest in self._cache:
            return self._cache[digest]
        if self.exhausted():
            return False
        self.tests += 1
        verdict = bool(self._predicate(schedule))
        if verdict:
            self.accepted += 1
        self._cache[digest] = verdict
        return verdict


def _ddmin(schedule: FaultSchedule, check: _Memo) -> FaultSchedule:
    """Minimize the event list while ``check`` keeps passing."""
    current = schedule
    granularity = 2
    while len(current.events) >= 2 and not check.exhausted():
        size = len(current.events)
        chunk = max(1, size // granularity)
        reduced = False
        start = 0
        while start < size:
            indices = range(start, min(start + chunk, size))
            candidate = current.without(indices)
            if candidate.events and check(candidate):
                current = candidate
                size = len(current.events)
                granularity = max(granularity - 1, 2)
                reduced = True
                start = 0
                chunk = max(1, size // granularity)
                continue
            start += chunk
        if not reduced:
            if chunk == 1:
                break
            granularity = min(granularity * 2, size)
    # A final sweep down to a single event, if one suffices.
    if len(current.events) > 1 and not check.exhausted():
        for index in range(len(current.events)):
            candidate = FaultSchedule(events=(current.events[index],))
            if check(candidate):
                return candidate
    return current


def _simplify_event(check: _Memo, schedule: FaultSchedule,
                    index: int) -> FaultSchedule:
    """Normalize one event's fields, keeping accepted simplifications."""
    current = schedule

    def attempt(replacement: FaultEvent) -> bool:
        nonlocal current
        if replacement == current.events[index]:
            return False
        candidate = current.replacing(index, replacement)
        if check(candidate):
            current = candidate
            return True
        return False

    live = current.events[index]
    # Times toward zero, then toward one-decimal simplicity.
    if live.time != 0.0:
        attempt(dataclasses.replace(live, time=0.0))
    live = current.events[index]
    rounded = round(live.time, 1)
    if rounded != live.time:
        attempt(dataclasses.replace(live, time=rounded))
    # Node ids toward zero.
    live = current.events[index]
    if live.node != 0:
        attempt(dataclasses.replace(live, node=0))
    # Optional params dropped one at a time.
    required = _REQUIRED_PARAMS.get(live.action, ())
    for name in sorted(current.events[index].params):
        live = current.events[index]
        if name in required or name not in live.params:
            continue
        slimmer = {key: value for key, value in live.params.items()
                   if key != name}
        attempt(dataclasses.replace(live, params=slimmer))
    return current


def shrink_events(schedule: FaultSchedule,
                  predicate: Callable[[FaultSchedule], bool], *,
                  budget: Optional[int] = 500,
                  normalize: bool = True) -> ShrinkResult:
    """Shrink ``schedule`` to a minimal form still satisfying
    ``predicate``.

    ``predicate`` must accept the input schedule itself (checked first;
    a non-reproducing input is returned unchanged with ``accepted=0``).
    ``budget`` caps predicate *executions* — memoized repeats are free —
    so shrinking a pathological schedule terminates predictably.
    """
    check = _Memo(predicate, budget)
    if not schedule.events or not check(schedule):
        return ShrinkResult(schedule=schedule,
                            original_events=len(schedule.events),
                            tests=check.tests, accepted=check.accepted)
    current = _ddmin(schedule, check)
    if normalize:
        for index in range(len(current.events)):
            current = _simplify_event(check, current, index)
        canonical = current.sorted_by_time()
        if canonical.events != current.events and check(canonical):
            current = canonical
    return ShrinkResult(schedule=current,
                        original_events=len(schedule.events),
                        tests=check.tests, accepted=check.accepted)
