"""Array-of-positions medium: the packet-level hot path, vectorized.

:class:`VectorizedMedium` keeps every attached radio's position and
power state in flat numpy arrays and resolves each transmission's
reception outcomes with bulk mask arithmetic instead of per-radio Python
loops: one distance computation over all n radios, then one
``(overlapping transmissions x candidates)`` broadcast for half-duplex
and interference.  A completion is a fixed handful of numpy calls
whatever n, the degree, or the number of live transmissions is.

Pinned equivalence
------------------
The vectorized medium is **bit-for-bit identical** to the scalar
:class:`~repro.radio.medium.Medium` it extends
(``tests/test_medium_grid_equivalence.py`` and
``tests/test_vectorized_medium.py`` pin this):

* the in-reach test reproduces the scalar ``math.hypot(dx, dy) < reach``
  predicate exactly — squared distances decide all but a relative
  ``1e-9`` band around the reach boundary, and candidates inside the
  band are re-checked with the scalar expression itself (IEEE float64
  guarantees the squared compare and ``math.hypot`` agree far outside
  that band);
* the half-duplex and interference masks use the same float64
  subtract/multiply/compare sequence as ``Position.within``, which is
  elementwise-identical in numpy and scalar Python;
* surviving candidates are visited in ascending node-id order and fed
  through the same scalar ``PropagationModel.reception_succeeds`` call
  (same RNG stream, same draw order), so stats, observer callbacks,
  obs spans, delivery order, and every downstream protocol event match
  the scalar medium exactly.

Position contract
-----------------
The arrays are authoritative: every move must arrive through
:meth:`update_position` (``Radio``'s position setter — i.e. every
mobility model — already does this).  The scalar medium re-polls
``get_position`` per candidate, which forgives out-of-band position
mutation; the vectorized medium does not, and code mutating positions
behind the medium's back is outside the equivalence contract.

Checkpointing: the arrays pickle with the medium (trimmed to the live
radio count so snapshot bytes never depend on allocator history), so
checkpoint/resume works unchanged.
"""

from __future__ import annotations

import math
from time import perf_counter
from typing import Dict, List, Optional, Tuple

import numpy as np

from .. import profiling
from ..des.kernel import Simulator
from ..des.random import RandomStream
from ..obs import context as obs
from .geometry import Position
from .medium import Medium, Transmission
from .propagation import PropagationModel

__all__ = ["VectorizedMedium"]

#: Relative width of the reach-boundary band (on squared distance) inside
#: which the scalar predicate is consulted.  float64 squared-compare and
#: ``math.hypot`` agree to a few ulps (~1e-15 relative), so 1e-9 is a
#: vast safety margin while catching essentially no candidates in
#: practice (positions are continuous draws).
_BOUNDARY_BAND = 1e-9

_INITIAL_CAPACITY = 64


class VectorizedMedium(Medium):
    """The production medium: receptions resolved with numpy mask
    arithmetic.  Same constructor, attach/transmit/observer API, stats
    and event stream as the scalar :class:`Medium` it is pinned to.
    """

    def __init__(self, sim: Simulator, rng: RandomStream,
                 propagation: Optional[PropagationModel] = None,
                 bitrate_bps: float = 1_000_000.0,
                 preamble_s: float = 192e-6):
        super().__init__(sim, rng, propagation, bitrate_bps, preamble_s)
        self._count = 0
        self._capacity = _INITIAL_CAPACITY
        self._ids = np.zeros(_INITIAL_CAPACITY, dtype=np.int64)
        self._xs = np.zeros(_INITIAL_CAPACITY, dtype=np.float64)
        self._ys = np.zeros(_INITIAL_CAPACITY, dtype=np.float64)
        self._on = np.zeros(_INITIAL_CAPACITY, dtype=bool)
        self._slot: Dict[int, int] = {}
        # Slots stay id-sorted as long as radios attach in ascending id
        # order and never detach out of the tail (the experiment runner's
        # only pattern); the per-completion argsort is skipped then.
        self._ids_sorted = True

    # ------------------------------------------------------------------
    # Array maintenance
    # ------------------------------------------------------------------
    def _grow(self, needed: int) -> None:
        capacity = self._capacity
        while capacity < needed:
            capacity *= 2
        for name in ("_ids", "_xs", "_ys", "_on"):
            old = getattr(self, name)
            fresh = np.zeros(capacity, dtype=old.dtype)
            fresh[:self._count] = old[:self._count]
            setattr(self, name, fresh)
        self._capacity = capacity

    def attach(self, node_id, get_position, tx_range, handler) -> None:
        super().attach(node_id, get_position, tx_range, handler)
        slot = self._count
        if slot >= self._capacity:
            self._grow(slot + 1)
        position = get_position()
        if slot and node_id < self._ids[slot - 1]:
            self._ids_sorted = False
        self._ids[slot] = node_id
        self._xs[slot] = position.x
        self._ys[slot] = position.y
        self._on[slot] = True
        self._slot[node_id] = slot
        self._count = slot + 1

    def detach(self, node_id: int) -> None:
        super().detach(node_id)
        slot = self._slot.pop(node_id, None)
        if slot is None:
            return
        last = self._count - 1
        if slot != last:
            # Swap-remove: the last slot's radio fills the hole.
            for arr in (self._ids, self._xs, self._ys, self._on):
                arr[slot] = arr[last]
            self._slot[int(self._ids[slot])] = slot
            self._ids_sorted = False
        self._count = last

    def update_position(self, node_id: int, position: Position) -> None:
        slot = self._slot.get(node_id)
        if slot is not None:
            self._xs[slot] = position.x
            self._ys[slot] = position.y

    def set_enabled(self, node_id: int, enabled: bool) -> None:
        super().set_enabled(node_id, enabled)
        slot = self._slot.get(node_id)
        if slot is not None:
            self._on[slot] = enabled

    # ------------------------------------------------------------------
    # Reception resolution
    # ------------------------------------------------------------------
    def _complete_body(self, tx: Transmission) -> None:
        tx.completed = True
        if self._count:
            prof = profiling.ACTIVE
            if prof is None:
                plan = self._reception_plan(tx)
            else:
                start = perf_counter()
                plan = self._reception_plan(tx)
                prof.add("medium.candidates", perf_counter() - start)
            # The scalar ``_resolve_reception`` tail, inlined over the
            # plan (one function call per delivery is measurable at this
            # scale): stats, spans, observers, RNG draws, and the
            # handler call are byte-identical to the scalar media.
            radios = self._radios
            stats = self.stats
            observers = self._observers
            propagation = self._propagation
            fast_path = propagation.resolves_in_reach
            packet = tx.packet
            sender = tx.sender
            kind = packet.kind
            # Once per transmission, not once per receiver.
            ctx = obs.ACTIVE
            msg = obs.msg_of(packet.payload) if ctx is not None else None
            for node_id, half_duplex, interfered in plan:
                radio = radios.get(node_id)
                if radio is None or not radio.enabled:
                    # A handler earlier in this completion detached or
                    # powered off the radio; honour the live state like
                    # the scalar loop does.
                    continue
                if half_duplex:
                    stats.half_duplex_losses += 1
                    if ctx is not None:
                        ctx.span("loss", node_id, msg=msg,
                                 kind=kind, sender=sender,
                                 reason="half_duplex")
                    continue
                if interfered:
                    stats.collisions += 1
                    if ctx is not None:
                        ctx.span("collision", node_id, msg=msg,
                                 kind=kind, sender=sender)
                    for observer in observers:
                        observer.on_collision(node_id, packet)
                    continue
                if not fast_path:
                    distance = tx.origin.distance_to(radio.get_position())
                    if not propagation.reception_succeeds(
                            distance, tx.tx_range, self._rng):
                        stats.propagation_losses += 1
                        if ctx is not None:
                            ctx.span("loss", node_id, msg=msg,
                                     kind=kind, sender=sender,
                                     reason="propagation")
                        continue
                # else: plan membership *is* the reception verdict
                # (UnitDisk succeeds iff in reach, drawing no
                # randomness), so the scalar sample is skipped without
                # perturbing RNG state.
                stats.deliveries += 1
                if ctx is not None:
                    ctx.span("rx", node_id, msg=msg,
                             kind=kind, sender=sender)
                for observer in observers:
                    observer.on_deliver(node_id, packet)
                radio.handler(packet)
        self._prune()

    def _reception_plan(self, tx: Transmission) -> List[Tuple[int, bool, bool]]:
        """Per-candidate (node_id, half_duplex, interfered) in ascending
        node-id order, for every enabled in-reach radio other than the
        sender.  Pure mask arithmetic over a snapshot of the arrays —
        handler side effects during delivery cannot perturb it (a
        same-instant transmit starts at ``tx.end`` and half-open airtime
        intervals make it non-overlapping, exactly as in the scalar
        live-list checks)."""
        n = self._count
        ids = self._ids[:n]
        xs = self._xs[:n]
        ys = self._ys[:n]
        ox = tx.origin.x
        oy = tx.origin.y
        reach = self._propagation.max_reach(tx.tx_range)
        d2 = xs - ox
        d2 *= d2
        dy = ys - oy
        dy *= dy
        d2 += dy
        r2 = reach * reach
        in_reach = d2 < r2 * (1.0 - _BOUNDARY_BAND)
        band = np.flatnonzero(~in_reach & (d2 <= r2 * (1.0 + _BOUNDARY_BAND)))
        for slot in band:
            # Knife-edge candidates get the scalar medium's own predicate.
            in_reach[slot] = math.hypot(
                ox - float(xs[slot]), oy - float(ys[slot])) < reach
        candidates = in_reach & self._on[:n]
        sender_slot = self._slot.get(tx.sender)
        if sender_slot is not None:
            candidates[sender_slot] = False
        order = np.flatnonzero(candidates)
        if not order.size:
            return []
        if not self._ids_sorted:
            order = order[np.argsort(ids[order])]
        # Half-duplex and interference only matter at the (typically
        # degree-sized) candidate set, so gather it once and evaluate
        # every overlapping transmission against it in one (m x k)
        # broadcast: the numpy call count must not grow with m, because
        # on a large sparse field dozens of transmissions are live per
        # completion (spatial reuse).
        cand_ids = ids[order]
        overlapping = [other for other in self._transmissions
                       if other is not tx and other.overlaps(tx)]
        m = len(overlapping)
        if m:
            max_reach = self._propagation.max_reach
            senders = np.fromiter(
                (other.sender for other in overlapping), np.int64, m)
            oxs = np.fromiter(
                (other.origin.x for other in overlapping), np.float64, m)
            oys = np.fromiter(
                (other.origin.y for other in overlapping), np.float64, m)
            reaches = np.fromiter(
                (max_reach(other.tx_range) for other in overlapping),
                np.float64, m)
            # ``Position.within`` elementwise: dx*dx + dy*dy < reach*reach.
            dxo = oxs[:, None] - xs[order]
            dyo = oys[:, None] - ys[order]
            dxo *= dxo
            dyo *= dyo
            dxo += dyo
            reaches *= reaches
            mask = dxo < reaches[:, None]
            # A node's own transmission half-duplexes it, and does not
            # interfere at itself.
            own = senders[:, None] == cand_ids
            half = own.any(0)
            mask &= ~own
            interfered = mask.any(0)
        else:
            half = interfered = np.zeros(order.size, dtype=bool)
        # ``tolist()`` materialises native Python ints/bools in one C
        # pass — far cheaper than per-element ``int()``/``bool()`` at
        # degree ~100+.
        return list(zip(cand_ids.tolist(), half.tolist(),
                        interfered.tolist()))

    # ------------------------------------------------------------------
    # Pickling (checkpoint/resume)
    # ------------------------------------------------------------------
    def __getstate__(self) -> dict:
        """Trim arrays to the live radio count so checkpoint bytes are a
        pure function of simulation state, not of capacity-growth
        history."""
        state = self.__dict__.copy()
        count = self._count
        for name in ("_ids", "_xs", "_ys", "_on"):
            state[name] = state[name][:count].copy()
        state["_capacity"] = max(count, 1)
        return state
