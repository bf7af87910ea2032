"""Per-node radio: position, transmission range, MAC, receive dispatch."""

from __future__ import annotations

from typing import Callable, Optional

from ..des.kernel import Simulator
from ..des.random import RandomStream
from ..obs import context as obs
from .geometry import Position
from .mac import CsmaMac, MacConfig
from .medium import Medium
from .packet import BROADCAST, Packet

__all__ = ["Radio"]


class Radio:
    """A node's wireless interface.

    Owns the node's position (mutable — mobility models update it), its
    transmission range, and a :class:`CsmaMac` instance.  Incoming packets
    are handed to the registered receiver callback.
    """

    def __init__(self, sim: Simulator, medium: Medium, node_id: int,
                 position: Position, tx_range: float, rng: RandomStream,
                 mac_config: Optional[MacConfig] = None):
        self._sim = sim
        self._medium = medium
        self._node_id = node_id
        self._position = position
        self._tx_range = tx_range
        self._nominal_tx_range = tx_range
        self._deaf = False
        self._receiver: Optional[Callable[[Packet], None]] = None
        self._mac = CsmaMac(sim, medium, node_id, rng, mac_config)
        # Bound methods (not a lambda) so an attached radio — and with it
        # the whole medium/node graph — stays checkpoint-serializable.
        medium.attach(node_id, self._get_position, tx_range,
                      self._on_packet)

    # ------------------------------------------------------------------
    @property
    def node_id(self) -> int:
        return self._node_id

    @property
    def position(self) -> Position:
        return self._position

    @position.setter
    def position(self, value: Position) -> None:
        self._position = value
        # Keep the medium's position arrays in sync: every mobility model
        # moves nodes through this setter.
        self._medium.update_position(self._node_id, value)

    @property
    def tx_range(self) -> float:
        return self._tx_range

    @property
    def mac(self) -> CsmaMac:
        return self._mac

    # ------------------------------------------------------------------
    def set_receiver(self, handler: Callable[[Packet], None]) -> None:
        self._receiver = handler

    def send(self, payload, size_bytes: int, kind: str = "data",
             link_dest: int = BROADCAST) -> bool:
        """Queue a frame for transmission; returns False on queue overflow."""
        packet = Packet(sender=self._node_id, payload=payload,
                        size_bytes=size_bytes, kind=kind, link_dest=link_dest)
        return self._mac.send(packet)

    def power_off(self) -> None:
        """Silence the radio entirely (for crash-fault experiments)."""
        self._medium.set_enabled(self._node_id, False)

    def power_on(self) -> None:
        self._medium.set_enabled(self._node_id, True)

    # ------------------------------------------------------------------
    # Impairments (repro.chaos drives these)
    # ------------------------------------------------------------------
    @property
    def deaf(self) -> bool:
        return self._deaf

    def set_deaf(self, deaf: bool) -> None:
        """Drop all incoming packets at the antenna while still
        transmitting — a broken receive path (or a jammed front end).

        The medium still counts the delivery (energy arrived); the packet
        simply never reaches the node's receiver callback.
        """
        self._deaf = deaf

    def set_tx_power_factor(self, factor: float) -> None:
        """Scale the transmission range to ``factor`` of its nominal value
        (a sick amplifier / low-battery transmit-power drop).

        Only reductions are allowed (``0 < factor <= 1``); ``factor=1.0``
        restores the nominal range.
        """
        if not 0.0 < factor <= 1.0:
            raise ValueError(f"factor must be in (0, 1]: {factor}")
        self._tx_range = self._nominal_tx_range * factor
        self._medium.set_tx_range(self._node_id, self._tx_range)

    def _get_position(self) -> Position:
        return self._position

    def _on_packet(self, packet: Packet) -> None:
        if self._deaf:
            ctx = obs.ACTIVE
            if ctx is not None:
                ctx.span("loss", self._node_id,
                         msg=obs.msg_of(packet.payload), kind=packet.kind,
                         sender=packet.sender, reason="deaf")
            return
        if self._receiver is not None:
            self._receiver(packet)
