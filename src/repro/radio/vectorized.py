"""Array-of-positions medium: the packet-level hot path, vectorized.

:class:`VectorizedMedium` keeps every attached radio's position, reach
and power state in flat numpy arrays, and resolves receptions and
carrier sense from a **link table** computed once per topology instead
of re-deriving geometry on every transmission and every poll.

* **Link table.**  Flat CSR arrays with one row per radio slot: the
  radios near the slot's radio, sorted by node id, each marked
  ``reaches`` (the reception predicate, below) and ``senses``
  (``Position.within`` with the sender's reach).  It is built from one
  :func:`~repro.radio.geometry.close_pairs` pass and one sort, at the
  first transmission after the topology **epoch** changed.
  ``attach``, a real move and ``set_tx_range`` bump the epoch;
  ``set_enabled`` does not (power state is read at completion).
* **Live transmissions** sit in one array, a row per transmission in
  start order: sender, origin, squared reach, start, end, epoch and a
  completed flag.  A completion gathers the rows whose airtime overlaps
  its own and evaluates half-duplex and interference against its
  candidates in one ``(overlapping x candidates)`` broadcast.
* **Carrier sense** is one array read: ``sensed_until[slot]`` is the
  latest end of every live transmission the radio senses, its own
  included, raised over the sender's ``senses`` row at each transmit and
  recomputed from the live rows when the radio moves or attaches.

Per transmission, the work is a handful of numpy calls over the sender's
row and the live rows — no pass over all n radios and no Python loop over
live transmissions.  A transmission still on air across an epoch change
is resolved against its own origin over the whole field with the same
predicate: the table describes the current topology, not the one that
transmission went on air in.

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
* the ``senses``, half-duplex and interference masks use the same
  float64 subtract/multiply/compare sequence as ``Position.within``,
  which is elementwise-identical in numpy and scalar Python;
* ``channel_busy_at`` is True exactly when the scalar scan finds a live
  transmission with ``end > now`` sent by or sensed at the radio;
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

Checkpointing: the radio and live-transmission arrays pickle with the
medium, trimmed to their live rows so snapshot bytes never depend on
allocator history.  The link table does not: it is a pure function of
the topology and is rebuilt on first use after a load.
"""

from __future__ import annotations

import itertools
import math
from time import perf_counter
from typing import Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from .. import profiling
from ..des.kernel import Simulator
from ..des.random import RandomStream
from ..obs import context as obs
from .geometry import BLOCK, Position, close_pairs
from .medium import Medium, Transmission
from .packet import Packet
from .propagation import PropagationModel

__all__ = ["VectorizedMedium"]

#: Relative width of the reach-boundary band (on squared distance) inside
#: which the scalar predicate is consulted.  float64 squared-compare and
#: ``math.hypot`` agree to a few ulps (~1e-15 relative), so 1e-9 is a
#: vast safety margin while catching essentially no candidates in
#: practice (positions are continuous draws).
_BOUNDARY_BAND = 1e-9

_INITIAL_CAPACITY = 64

_INT32_MAX = np.iinfo(np.int32).max

#: Per-slot radio arrays, kept in step by attach/grow.
_RADIO_ARRAYS = ("_ids", "_xs", "_ys", "_on", "_reach", "_sensed_until")

#: Columns of the live-transmission array (float64; sender ids and
#: epochs are integers well inside float64's exact range).
_SENDER, _OX, _OY, _R2, _START, _END, _EPOCH, _DONE = range(8)


class _LinkTable(NamedTuple):
    """Row ``s`` is ``cols[indptr[s]:indptr[s + 1]]``: the slots near
    slot ``s``'s radio, in ascending node id."""

    indptr: List[int]
    cols: np.ndarray
    reaches: np.ndarray
    senses: np.ndarray


class VectorizedMedium(Medium):
    """The production medium: receptions resolved with numpy mask
    arithmetic over a per-topology link table.  Same constructor,
    attach/transmit/observer API, stats and event stream as the scalar
    :class:`Medium` it is pinned to.
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
        self._reach = np.zeros(_INITIAL_CAPACITY, dtype=np.float64)
        self._sensed_until = np.full(_INITIAL_CAPACITY, -math.inf)
        self._slot: Dict[int, int] = {}
        # Slots stay id-sorted as long as radios attach in ascending id
        # order (the experiment runner's only pattern); slot order is
        # then id order, and neither the table build nor the whole-field
        # path needs an argsort.
        self._ids_sorted = True
        self._epoch = 0
        self._links: Optional[_LinkTable] = None
        # Row i describes ``self._transmissions[i]`` (the base class
        # appends there, :meth:`_prune` compacts both together).
        self._air = np.zeros((16, 8))
        self._live = 0
        self._pending = 0

    # ------------------------------------------------------------------
    # Array maintenance
    # ------------------------------------------------------------------
    def _grow(self, needed: int) -> None:
        capacity = max(self._capacity, 1)
        while capacity < needed:
            capacity *= 2
        for name in _RADIO_ARRAYS:
            old = getattr(self, name)
            fresh = np.zeros(capacity, dtype=old.dtype)
            fresh[:self._count] = old[:self._count]
            setattr(self, name, fresh)
        self._capacity = capacity

    def _topology_changed(self) -> None:
        self._epoch += 1
        self._links = None

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
        self._reach[slot] = self._propagation.max_reach(tx_range)
        self._slot[node_id] = slot
        self._count = slot + 1
        self._topology_changed()
        self._resense(slot)

    def update_position(self, node_id: int, position: Position) -> None:
        slot = self._slot.get(node_id)
        if slot is None:
            return
        if self._xs[slot] == position.x and self._ys[slot] == position.y:
            return
        self._xs[slot] = position.x
        self._ys[slot] = position.y
        self._topology_changed()
        self._resense(slot)

    def set_enabled(self, node_id: int, enabled: bool) -> None:
        super().set_enabled(node_id, enabled)
        self._on[self._slot[node_id]] = enabled

    def set_tx_range(self, node_id: int, tx_range: float) -> None:
        super().set_tx_range(node_id, tx_range)
        # A transmission already on air keeps the reach it started with.
        self._reach[self._slot[node_id]] = \
            self._propagation.max_reach(tx_range)
        self._topology_changed()

    # ------------------------------------------------------------------
    # Link table
    # ------------------------------------------------------------------
    def _build_links(self) -> _LinkTable:
        """Every (sender slot, receiver slot) pair within the widest
        reach, both directions, with the two predicates.

        ``close_pairs`` over the widest reach (padded past the boundary
        band) finds each unordered pair once; its squared distance serves
        both directions (``(a - b)**2 == (b - a)**2`` exactly), and each
        direction is judged with its own sender's reach.  A pair neither
        reaching nor sensed stays in its row with both marks off.

        Each directed pair becomes one integer -- sender, receiver's id
        rank, then the two marks -- so a single value sort lays out every
        row in ascending receiver id with its marks attached.  The
        narrowest integer that holds ``4 n**2`` keeps that sort cheap."""
        n = self._count
        xs = self._xs[:n]
        ys = self._ys[:n]
        reach = self._reach[:n]
        order, first, second = close_pairs(
            np.column_stack((xs, ys)),
            float(reach.max()) * (1.0 + 2.0 * _BOUNDARY_BAND))
        if self._ids_sorted:
            rank = slot_of_rank = None
        else:
            slot_of_rank = np.argsort(self._ids[:n])
            rank = np.empty(n, dtype=np.intp)
            rank[slot_of_rank] = np.arange(n)
        pairs = len(first)
        key = np.empty(2 * pairs,
                       dtype=np.int32 if 4 * n * n <= _INT32_MAX
                       else np.int64)
        for lo in range(0, pairs, BLOCK):
            hi = min(lo + BLOCK, pairs)
            a = order[first[lo:hi]]
            b = order[second[lo:hi]]
            d2 = xs[a] - xs[b]
            dy = ys[a] - ys[b]
            d2 *= d2
            dy *= dy
            d2 += dy
            for out, s, r in ((key[lo:hi], a, b),
                              (key[pairs + lo:pairs + hi], b, a)):
                r2 = reach[s]
                r2 *= r2
                senses = d2 < r2
                reaches = d2 < r2 * (1.0 - _BOUNDARY_BAND)
                near = np.flatnonzero(~reaches)
                for k in near[d2[near] <= r2[near] * (1.0 + _BOUNDARY_BAND)]:
                    # Knife-edge pairs get the scalar medium's own
                    # predicate.
                    reaches[k] = math.hypot(
                        float(xs[s[k]]) - float(xs[r[k]]),
                        float(ys[s[k]]) - float(ys[r[k]])) \
                        < float(reach[s[k]])
                np.multiply(s, n, out=out, casting="same_kind")
                out += r if rank is None else rank[r]
                out <<= 1
                out |= senses
                out <<= 1
                out |= reaches
        key.sort()
        indptr = np.searchsorted(
            key, np.arange(n + 1, dtype=key.dtype) * (4 * n)).tolist()
        reaches = (key & 1).astype(bool)
        senses = (key & 2).astype(bool)
        key >>= 2
        ranks = np.remainder(key, n, out=key)
        cols = ranks if slot_of_rank is None else slot_of_rank[ranks]
        return _LinkTable(indptr, cols, reaches, senses)

    def _row(self, slot: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(receiver slots, reaches, senses) of ``slot``'s row in the
        current topology's table, building the table on first use."""
        links = self._links
        if links is None:
            links = self._links = self._build_links()
        lo = links.indptr[slot]
        hi = links.indptr[slot + 1]
        return links.cols[lo:hi], links.reaches[lo:hi], links.senses[lo:hi]

    # ------------------------------------------------------------------
    # Carrier sense
    # ------------------------------------------------------------------
    def channel_busy_at(self, node_id: int) -> bool:
        return bool(self._sensed_until[self._slot[node_id]] > self._sim.now)

    def _resense(self, slot: int) -> None:
        """Recompute one radio's ``sensed_until`` from the live rows
        (after it moved or attached): rows already ended are harmless,
        since only ``end > now`` counts."""
        m = self._live
        if not m:
            self._sensed_until[slot] = -math.inf
            return
        air = self._air[:m]
        dx = air[:, _OX] - self._xs[slot]
        dy = air[:, _OY] - self._ys[slot]
        dx *= dx
        dy *= dy
        dx += dy
        sensed = dx < air[:, _R2]
        sensed |= air[:, _SENDER] == self._ids[slot]
        ends = air[sensed, _END]
        self._sensed_until[slot] = ends.max() if ends.size else -math.inf

    # ------------------------------------------------------------------
    # Transmission
    # ------------------------------------------------------------------
    def transmit(self, node_id: int, packet: Packet) -> Transmission:
        tx = super().transmit(node_id, packet)
        if tx.completed:
            return tx  # a powered-off radio: nothing went on air
        slot = self._slot[node_id]
        receivers, _, senses = self._row(slot)
        sensing = receivers[senses]
        end = tx.end
        until = self._sensed_until
        until[sensing] = np.maximum(until[sensing], end)
        if until[slot] < end:
            until[slot] = end
        m = self._live
        if m == len(self._air):
            grown = np.zeros((max(2 * m, 16), 8))
            grown[:m] = self._air
            self._air = grown
        reach = self._reach[slot]
        self._air[m] = (node_id, tx.origin.x, tx.origin.y, reach * reach,
                        tx.start, end, self._epoch, 0.0)
        self._live = m + 1
        self._pending += 1
        return tx

    # ------------------------------------------------------------------
    # Reception resolution
    # ------------------------------------------------------------------
    def _complete_body(self, tx: Transmission) -> None:
        tx.completed = True
        # Rows are in start order; same-instant starts are told apart by
        # identity.
        index = int(np.searchsorted(self._air[:self._live, _START],
                                    tx.start))
        transmissions = self._transmissions
        while transmissions[index] is not tx:
            index += 1
        self._air[index, _DONE] = 1.0
        self._pending -= 1
        if self._count:
            prof = profiling.ACTIVE
            if prof is None:
                plan = self._reception_plan(tx, index)
            else:
                start = perf_counter()
                plan = self._reception_plan(tx, index)
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
                radio = radios[node_id]
                if not radio.enabled:
                    # A handler earlier in this completion powered off
                    # the radio; honour the live state like the scalar
                    # loop does.
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

    def _reception_plan(self, tx: Transmission, index: int
                        ) -> List[Tuple[int, bool, bool]]:
        """Per-candidate (node_id, half_duplex, interfered) in ascending
        node-id order, for every enabled in-reach radio other than the
        sender.  Pure mask arithmetic over a snapshot of the arrays —
        handler side effects during delivery cannot perturb it (a
        same-instant transmit starts at ``tx.end`` and half-open airtime
        intervals make it non-overlapping, exactly as in the scalar
        live-list checks)."""
        air = self._air
        if air[index, _EPOCH] == self._epoch:
            receivers, reaches, _ = self._row(self._slot[tx.sender])
            candidates = receivers[reaches]
        else:
            candidates = self._field_reach(tx)
        candidates = candidates[self._on[candidates]]
        if not candidates.size:
            return []
        cand_ids = self._ids[candidates]
        # Every other live transmission whose airtime overlaps tx's,
        # evaluated against the (typically degree-sized) candidate set in
        # one (m x k) broadcast.
        m = self._live
        if m > 1:
            overlapping = air[:m, _START] < tx.end
            overlapping &= air[:m, _END] > tx.start
            overlapping[index] = False
            others = air[:m][overlapping]
        else:
            others = ()
        if len(others):
            # ``Position.within`` elementwise: dx*dx + dy*dy < reach*reach.
            dxo = others[:, _OX, None] - self._xs[candidates]
            dyo = others[:, _OY, None] - self._ys[candidates]
            dxo *= dxo
            dyo *= dyo
            dxo += dyo
            mask = dxo < others[:, _R2, None]
            # A node's own transmission half-duplexes it, and does not
            # interfere at itself.
            own = others[:, _SENDER, None] == cand_ids
            half = own.any(0)
            mask &= ~own
            interfered = mask.any(0)
        else:
            half = interfered = np.zeros(candidates.size, dtype=bool)
        # ``tolist()`` materialises native Python ints/bools in one C
        # pass — far cheaper than per-element ``int()``/``bool()`` at
        # degree ~100+.
        return list(zip(cand_ids.tolist(), half.tolist(),
                        interfered.tolist()))

    def _field_reach(self, tx: Transmission) -> np.ndarray:
        """Slots in ``tx``'s reach other than its sender's, in ascending
        node id, from its own origin and range over the whole field: for
        a transmission that went on air in an earlier topology."""
        n = self._count
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
        in_reach[self._slot[tx.sender]] = False
        slots = np.flatnonzero(in_reach)
        if not self._ids_sorted:
            slots = slots[np.argsort(self._ids[slots])]
        return slots

    def _prune(self) -> None:
        """Drop completed transmissions that can no longer overlap a
        pending one (the scalar rule), from the rows and the list."""
        if not self._pending:
            self._live = 0
            self._transmissions = []
            return
        air = self._air[:self._live]
        pending = air[:, _DONE] == 0.0
        # Rows are in start order: the first pending row starts first.
        horizon = air[int(pending.argmax()), _START]
        keep = air[:, _END] > horizon
        keep |= pending
        if keep.all():
            return
        self._live = int(np.count_nonzero(keep))
        air[:self._live] = air[keep]
        self._transmissions = list(itertools.compress(
            self._transmissions, keep.tolist()))

    # ------------------------------------------------------------------
    # Pickling (checkpoint/resume)
    # ------------------------------------------------------------------
    def __getstate__(self) -> dict:
        """Trim arrays to their live rows so checkpoint bytes are a pure
        function of simulation state, not of capacity-growth history;
        the link table is left out and rebuilt on first use."""
        state = self.__dict__.copy()
        count = self._count
        for name in _RADIO_ARRAYS:
            state[name] = state[name][:count].copy()
        state["_capacity"] = count
        state["_air"] = self._air[:self._live].copy()
        state["_links"] = None
        return state
