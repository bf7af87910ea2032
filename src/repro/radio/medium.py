"""The shared wireless medium: airtime, interference, collisions.

Models the physical layer the paper's simulations run over:

* transmissions occupy the channel for ``size / bitrate`` seconds;
* every radio inside a transmission's reach is a candidate receiver;
* two transmissions that overlap in time at a common receiver destroy each
  other there ("if two nodes p and q transmit a message at the same time,
  then ... r will not receive either message");
* radios are half-duplex — a node transmitting during a packet's airtime
  cannot receive it;
* surviving receptions are filtered through a :class:`PropagationModel`
  sample (unit disk, or shadowing + background noise).

The medium knows nothing about protocols; it moves :class:`Packet` objects
between attached radios and reports events to observers (metrics).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

from .. import profiling
from ..des.kernel import Simulator
from ..des.random import RandomStream
from ..obs import context as obs
from .geometry import Position
from .packet import Packet
from .propagation import PropagationModel, UnitDisk

__all__ = ["Medium", "MediumObserver", "MediumStats", "Transmission"]


@dataclass
class Transmission:
    """One packet's occupation of the ether."""

    sender: int
    origin: Position
    start: float
    end: float
    packet: Packet
    tx_range: float
    completed: bool = False

    def overlaps(self, other: "Transmission") -> bool:
        """True iff the two airtimes intersect for a positive duration.

        Airtimes are half-open intervals ``[start, end)``: a transmission
        that ends exactly when another starts does **not** overlap it.
        Back-to-back packets are the normal case on a CSMA channel (a
        deferring node fires the instant the medium frees up), and zero
        shared airtime deposits zero interference energy, so touching
        endpoints must not count as a collision.
        """
        return self.start < other.end and other.start < self.end


@dataclass
class MediumStats:
    """Physical-layer counters (per medium, i.e. per simulation run)."""

    transmissions: int = 0
    bytes_sent: int = 0
    deliveries: int = 0
    collisions: int = 0
    propagation_losses: int = 0
    half_duplex_losses: int = 0
    by_kind: Dict[str, int] = field(default_factory=dict)
    bytes_by_kind: Dict[str, int] = field(default_factory=dict)

    def record_transmit(self, packet: Packet) -> None:
        self.transmissions += 1
        self.bytes_sent += packet.size_bytes
        self.by_kind[packet.kind] = self.by_kind.get(packet.kind, 0) + 1
        self.bytes_by_kind[packet.kind] = (
            self.bytes_by_kind.get(packet.kind, 0) + packet.size_bytes)


class MediumObserver:
    """Subclass and attach to receive physical-layer events."""

    def on_transmit(self, sender: int, packet: Packet) -> None:
        """A packet started occupying the channel."""

    def on_deliver(self, receiver: int, packet: Packet) -> None:
        """A packet was successfully received."""

    def on_collision(self, receiver: int, packet: Packet) -> None:
        """A packet was destroyed at ``receiver`` by interference."""


class _AttachedRadio:
    __slots__ = ("node_id", "get_position", "tx_range", "handler", "enabled")

    def __init__(self, node_id: int, get_position: Callable[[], Position],
                 tx_range: float, handler: Callable[[Packet], None]):
        self.node_id = node_id
        self.get_position = get_position
        self.tx_range = tx_range
        self.handler = handler
        self.enabled = True


class Medium:
    """The single shared broadcast channel of the ad-hoc network.

    This class is the plain scalar resolution: every completion walks
    every attached radio in ascending node-id order, polls its live
    position and distance-checks it.  It is the reference the tests
    compare against; experiments run on
    :class:`repro.radio.vectorized.VectorizedMedium`, which extends it
    and is pinned bit-for-bit identical (events, order, stats, RNG
    draws) by ``tests/test_medium_grid_equivalence.py`` and
    ``tests/test_vectorized_medium.py``.
    """

    def __init__(self, sim: Simulator, rng: RandomStream,
                 propagation: Optional[PropagationModel] = None,
                 bitrate_bps: float = 1_000_000.0,
                 preamble_s: float = 192e-6):
        if bitrate_bps <= 0:
            raise ValueError(f"bitrate must be positive: {bitrate_bps}")
        self._sim = sim
        self._rng = rng
        self._propagation = propagation or UnitDisk()
        self._bitrate = bitrate_bps
        self._preamble = preamble_s
        self._radios: Dict[int, _AttachedRadio] = {}
        self._transmissions: List[Transmission] = []
        self.stats = MediumStats()
        self._observers: List[MediumObserver] = []

    # ------------------------------------------------------------------
    # Attachment
    # ------------------------------------------------------------------
    def attach(self, node_id: int, get_position: Callable[[], Position],
               tx_range: float, handler: Callable[[Packet], None]) -> None:
        """Register a radio.  ``get_position`` is polled at transmission and
        reception time so mobility is reflected automatically."""
        if node_id in self._radios:
            raise ValueError(f"radio {node_id} already attached")
        if tx_range <= 0:
            raise ValueError(f"tx_range must be positive: {tx_range}")
        self._radios[node_id] = _AttachedRadio(
            node_id, get_position, tx_range, handler)

    def update_position(self, node_id: int, position: Position) -> None:
        """A radio moved (mobility models call this via
        ``Radio.position``).  The scalar scan polls ``get_position`` at
        every use, so it has nothing to update; array-backed subclasses
        override this."""

    def set_enabled(self, node_id: int, enabled: bool) -> None:
        """Power a radio on/off (crashed nodes neither send nor receive)."""
        self._radios[node_id].enabled = enabled

    def set_tx_range(self, node_id: int, tx_range: float) -> None:
        """Change a radio's transmission range (transmit-power faults)."""
        if tx_range <= 0:
            raise ValueError(f"tx_range must be positive: {tx_range}")
        self._radios[node_id].tx_range = tx_range

    def add_observer(self, observer: MediumObserver) -> None:
        self._observers.append(observer)

    @property
    def propagation(self) -> PropagationModel:
        return self._propagation

    @property
    def bitrate_bps(self) -> float:
        return self._bitrate

    def airtime(self, packet: Packet) -> float:
        return packet.airtime(self._bitrate, self._preamble)

    # ------------------------------------------------------------------
    # Carrier sense
    # ------------------------------------------------------------------
    def channel_busy_at(self, node_id: int) -> bool:
        """True if the node currently senses energy on the channel
        (including its own ongoing transmission)."""
        radio = self._radios[node_id]
        now = self._sim.now
        position = radio.get_position()
        for tx in self._transmissions:
            if tx.end <= now:
                continue
            if tx.sender == node_id:
                return True
            reach = self._propagation.max_reach(tx.tx_range)
            if tx.origin.within(position, reach):
                return True
        return False

    # ------------------------------------------------------------------
    # Transmission
    # ------------------------------------------------------------------
    def transmit(self, node_id: int, packet: Packet) -> Transmission:
        """Start transmitting; reception outcomes resolve at airtime end.

        A powered-off radio's transmissions vanish silently (the MAC above
        it still sees normal timing, as real drivers do)."""
        radio = self._radios[node_id]
        now = self._sim.now
        if not radio.enabled:
            return Transmission(
                sender=node_id, origin=radio.get_position(), start=now,
                end=now + self.airtime(packet), packet=packet,
                tx_range=radio.tx_range, completed=True)
        tx = Transmission(
            sender=node_id,
            origin=radio.get_position(),
            start=now,
            end=now + self.airtime(packet),
            packet=packet,
            tx_range=radio.tx_range,
        )
        self._transmissions.append(tx)
        self.stats.record_transmit(packet)
        ctx = obs.ACTIVE
        if ctx is not None:
            ctx.span("tx", node_id, msg=obs.msg_of(packet.payload),
                     duration=tx.end - now, kind=packet.kind,
                     size=packet.size_bytes)
        for observer in self._observers:
            observer.on_transmit(node_id, packet)
        self._sim.schedule_at(tx.end, self._complete, tx)
        return tx

    # ------------------------------------------------------------------
    # Reception resolution
    # ------------------------------------------------------------------
    def _complete(self, tx: Transmission) -> None:
        prof = profiling.ACTIVE
        if prof is None:
            self._complete_body(tx)
            return
        start = perf_counter()
        self._complete_body(tx)
        prof.add("medium.complete", perf_counter() - start)

    def _complete_body(self, tx: Transmission) -> None:
        tx.completed = True
        radios = self._radios
        # Once per transmission, not once per receiver.
        ctx = obs.ACTIVE
        msg = obs.msg_of(tx.packet.payload) if ctx is not None else None
        for node_id in self._candidate_ids():
            radio = radios[node_id]
            if node_id == tx.sender or not radio.enabled:
                continue
            self._resolve_reception(tx, radio, ctx, msg)
        self._prune()

    def _candidate_ids(self) -> List[int]:
        """Node ids that could possibly hear a transmission: every
        attached radio, sorted so delivery order is independent of attach
        order (:meth:`_resolve_reception` distance-checks each one before
        any RNG draw)."""
        prof = profiling.ACTIVE
        if prof is None:
            return sorted(self._radios)
        start = perf_counter()
        out = sorted(self._radios)
        prof.add("medium.candidates", perf_counter() - start)
        return out

    def _resolve_reception(self, tx: Transmission, radio: _AttachedRadio,
                           ctx: Optional[obs.ObsContext],
                           msg: Optional[Tuple[int, int]]) -> None:
        """Decide one candidate's reception; ``ctx``/``msg`` are the
        active observability context and the frame's message id, read by
        the caller once for the whole transmission."""
        position = radio.get_position()
        distance = tx.origin.distance_to(position)
        if distance >= self._propagation.max_reach(tx.tx_range):
            return
        if self._transmitted_during(radio.node_id, tx):
            self.stats.half_duplex_losses += 1
            if ctx is not None:
                ctx.span("loss", radio.node_id, msg=msg,
                         kind=tx.packet.kind, sender=tx.sender,
                         reason="half_duplex")
            return
        if self._interfered(tx, radio.node_id, position):
            self.stats.collisions += 1
            if ctx is not None:
                ctx.span("collision", radio.node_id, msg=msg,
                         kind=tx.packet.kind, sender=tx.sender)
            for observer in self._observers:
                observer.on_collision(radio.node_id, tx.packet)
            return
        if not self._propagation.reception_succeeds(
                distance, tx.tx_range, self._rng):
            self.stats.propagation_losses += 1
            if ctx is not None:
                ctx.span("loss", radio.node_id, msg=msg,
                         kind=tx.packet.kind, sender=tx.sender,
                         reason="propagation")
            return
        self.stats.deliveries += 1
        if ctx is not None:
            ctx.span("rx", radio.node_id, msg=msg,
                     kind=tx.packet.kind, sender=tx.sender)
        for observer in self._observers:
            observer.on_deliver(radio.node_id, tx.packet)
        radio.handler(tx.packet)

    def _transmitted_during(self, node_id: int, tx: Transmission) -> bool:
        for other in self._transmissions:
            if other.sender == node_id and other.overlaps(tx):
                return True
        return False

    def _interfered(self, tx: Transmission, receiver: int,
                    position: Position) -> bool:
        for other in self._transmissions:
            if other is tx or other.sender == receiver:
                continue
            if not other.overlaps(tx):
                continue
            reach = self._propagation.max_reach(other.tx_range)
            if other.origin.within(position, reach):
                return True
        return False

    def _prune(self) -> None:
        pending_starts = [t.start for t in self._transmissions
                          if not t.completed]
        if pending_starts:
            horizon = min(pending_starts)
            self._transmissions = [t for t in self._transmissions
                                   if t.end > horizon or not t.completed]
        else:
            self._transmissions = []
