"""Plain flooding baseline.

"The simplest way to obtain broadcast in a multiple hop network is by
employing flooding.  That is, the sender sends the message to everyone in
its transmission range.  Each device that receives a message for the first
time delivers it to the application and also forwards it to all other
devices in its range.  While this form of dissemination is very robust, it
is also very wasteful and may cause a large number of collisions."

This is the first comparator of the paper's evaluation.  Messages are
signed (so validity is comparable) but there is no overlay, no gossip, no
recovery: a message lost to a collision stays lost.
"""

from __future__ import annotations

from ..core.messages import DataMessage
from ..radio.packet import Packet
from .base import ArenaNode

__all__ = ["FloodingNode"]


class FloodingNode(ArenaNode):
    """A node running signed flooding (no Byzantine tolerance machinery)."""

    def _on_broadcast(self, message: DataMessage) -> None:
        self._send_data(message)

    def _on_message(self, packet: Packet) -> None:
        message = packet.payload
        if not isinstance(message, DataMessage):
            return
        if message.msg_id in self._delivered:
            return
        if not message.verify(self.directory):
            return
        self._deliver(message, packet.sender)
        self._send_data(message)
