"""Shared machinery for nodes that flood signed DATA frames.

:class:`ArenaNode` is the signed-DATA half of an arena node on top of
:class:`repro.core.shell.NodeShell` (identity, radio, accept fan-out and
the one ``start``/``stop``/``crash``/``restart``): DATA creation,
at-most-once delivery, behaviour-policy filtering on both the transmit
and the receive seam, and the ``origin``/``sign``/``deliver`` lifecycle
spans.  A concrete protocol only decides *when* to transmit and *when* a
received copy is trustworthy enough to deliver: it implements
``_on_broadcast(message)`` (the node originated ``message``; disseminate
it) and ``_on_message(packet)`` (a packet arrived, already
behaviour-intercepted), optionally ``_rewrap`` and the shell's lifecycle
hooks — an extended reset calls ``super()._reset_protocol_state()`` so
the delivery set goes with the rest.

Everything here is picklable (bound methods only, no closures), so every
arena protocol works under checkpoint/resume unchanged.
"""

from __future__ import annotations

from typing import Optional

from ..core.messages import DATA, DataMessage, MessageId
from ..core.protocol import NodeBehavior
from ..core.shell import NodeShell
from ..crypto.keystore import KeyDirectory
from ..des.kernel import Simulator
from ..des.random import StreamFactory
from ..obs import context as obs
from ..radio.geometry import Position
from ..radio.mac import MacConfig
from ..radio.medium import Medium
from ..radio.packet import Packet

__all__ = ["ArenaNode", "DATA_HEADER_BYTES"]

DATA_HEADER_BYTES = 20


class ArenaNode(NodeShell):
    """Base class for nodes that flood signed DATA frames."""

    def __init__(self, sim: Simulator, medium: Medium, node_id: int,
                 position: Position, tx_range: float,
                 streams: StreamFactory, directory: KeyDirectory,
                 mac_config: Optional[MacConfig] = None,
                 behavior: Optional[NodeBehavior] = None):
        super().__init__(sim, medium, node_id, position, tx_range, streams,
                         directory, mac_config)
        self._behavior = behavior
        self._seq = 0
        self._delivered: set = set()

    def set_behavior(self, behavior: Optional[NodeBehavior]) -> None:
        """Swap the behaviour policy mid-run (``None`` → correct)."""
        self._behavior = behavior

    # ------------------------------------------------------------------
    # Broadcast / deliver
    # ------------------------------------------------------------------
    def broadcast(self, payload: bytes) -> MessageId:
        """Application-level broadcast(p, m)."""
        self._seq += 1
        message = DataMessage.create(self.signer, self._seq, payload)
        self._delivered.add(message.msg_id)
        ctx = obs.ACTIVE
        if ctx is not None:
            msg = (message.msg_id.originator, message.msg_id.seq)
            ctx.span("origin", self._node_id, msg=msg,
                     size=len(message.payload))
            ctx.span("sign", self._node_id, msg=msg)
        self._on_broadcast(message)
        return message.msg_id

    def _deliver(self, message: DataMessage, sender: int) -> bool:
        """Accept ``message`` at-most-once; True if newly delivered."""
        if message.msg_id in self._delivered:
            ctx = obs.ACTIVE
            if ctx is not None:
                ctx.span("suppress", self._node_id,
                         msg=(message.msg_id.originator, message.msg_id.seq),
                         reason="duplicate")
            return False
        self._delivered.add(message.msg_id)
        ctx = obs.ACTIVE
        if ctx is not None:
            ctx.span("deliver", self._node_id,
                     msg=(message.msg_id.originator, message.msg_id.seq),
                     sender=sender)
        self._on_accept(message.msg_id.originator, message.payload,
                        message.msg_id)
        return True

    # ------------------------------------------------------------------
    # Transmission
    # ------------------------------------------------------------------
    def _send_data(self, message: DataMessage, wire=None,
                   extra_bytes: int = 0) -> bool:
        """Behaviour-filter and transmit one DATA frame.

        ``wire`` is the on-air object when the protocol wraps the message
        in an envelope (path lists, overlay tags); the behaviour policy
        always filters the *inner* :class:`DataMessage`, and envelope
        subclasses rebuild around the filtered copy via ``_rewrap``.
        """
        if self._behavior is not None:
            filtered = self._behavior.filter_outgoing(DATA, message)
            if filtered is None:
                return False
            if filtered is not message:
                message = filtered
                wire = None if wire is None else self._rewrap(wire, message)
        size = (DATA_HEADER_BYTES + extra_bytes + len(message.payload)
                + self.directory.signature_size)
        self.radio.send(message if wire is None else wire,
                        size_bytes=size, kind=DATA)
        return True

    def _rewrap(self, wire, message: DataMessage):
        """Rebuild a wire envelope around a behaviour-mutated message;
        envelope protocols override."""
        return wire

    # ------------------------------------------------------------------
    # Receive path
    # ------------------------------------------------------------------
    def _on_packet(self, packet: Packet) -> None:
        if self._behavior is not None and self._behavior.intercept_incoming(
                packet.kind, packet.payload, packet.sender):
            return
        self._on_message(packet)

    # ------------------------------------------------------------------
    # Subclass hooks
    # ------------------------------------------------------------------
    def _on_broadcast(self, message: DataMessage) -> None:
        raise NotImplementedError

    def _on_message(self, packet: Packet) -> None:
        raise NotImplementedError

    def _reset_protocol_state(self) -> None:
        """The delivery set is RAM; subclasses extend (and call up)."""
        self._delivered = set()
