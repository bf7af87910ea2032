"""The node shell: identity, keys, radio, accept fan-out, one lifecycle.

Every node in the tree — :class:`~repro.core.node.NetworkNode` and every
:class:`~repro.arena.base.ArenaNode` — is a :class:`NodeShell`.  The
shell owns what the experiment runner, the chaos controller, the
invariant oracle and the fuzz fixtures drive; a subclass supplies the
protocol behind it: ``_on_packet(packet)`` (the radio's receiver),
``broadcast(payload)``, ``set_behavior(behavior)`` and three hooks —

``_start_protocol()`` / ``_stop_protocol()``
    Start / halt periodic machinery.  ``crash`` stops, ``restart``
    starts; both may run many times over one node's life.
``_reset_protocol_state()``
    Forget what a device loses with its RAM (a state-wiping
    ``restart``).  The broadcast sequence counter must survive, so a
    node never reuses a message id.

Accepting goes through ``_on_accept`` and nothing overrides it or
``restart``, so one patch point plants a bug under every protocol.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

from ..crypto.keystore import KeyDirectory
from ..des.kernel import Simulator
from ..des.random import StreamFactory
from ..radio.geometry import Position
from ..radio.mac import MacConfig
from ..radio.medium import Medium
from ..radio.packet import Packet
from ..radio.radio import Radio
from .messages import MessageId

__all__ = ["NodeShell"]

AcceptRecord = Tuple[float, int, MessageId]
AcceptListener = Callable[[int, int, bytes, MessageId], None]


class NodeShell:
    """A node attached to a medium, minus its protocol."""

    def __init__(self, sim: Simulator, medium: Medium, node_id: int,
                 position: Position, tx_range: float,
                 streams: StreamFactory, directory: KeyDirectory,
                 mac_config: Optional[MacConfig] = None):
        self._sim = sim
        self._node_id = node_id
        self._crashed = False
        self.directory = directory
        self.signer = directory.issue(node_id)
        self.accepted: List[AcceptRecord] = []
        self._accept_listeners: List[AcceptListener] = []
        self.radio = Radio(sim, medium, node_id, position, tx_range,
                           streams.stream(f"mac:{node_id}"), mac_config)
        self.radio.set_receiver(self._on_packet)

    @property
    def node_id(self) -> int:
        return self._node_id

    @property
    def position(self) -> Position:
        return self.radio.position

    @property
    def crashed(self) -> bool:
        return self._crashed

    def start(self) -> None:
        self._start_protocol()

    def stop(self) -> None:
        self._stop_protocol()

    # ------------------------------------------------------------------
    # Fault injection (repro.chaos drives these)
    # ------------------------------------------------------------------
    def crash(self) -> None:
        """Crash-fault the node: radio off, periodic machinery halted.

        Idempotent.  One-shot events already scheduled (request/serve
        timers, assessment windows) may still fire, but any transmission
        they attempt vanishes at the powered-off radio — the same
        observable silence a real crashed device produces.
        """
        if self._crashed:
            return
        self._crashed = True
        self.radio.power_off()
        self._stop_protocol()

    def restart(self, reset_state: bool = True) -> None:
        """Bring a crashed node back.  Idempotent on a live node.
        ``reset_state`` is the default: crashed devices lose RAM."""
        if not self._crashed:
            return
        self._crashed = False
        if reset_state:
            self._reset_protocol_state()
        self.radio.power_on()
        self._start_protocol()

    # ------------------------------------------------------------------
    def add_accept_listener(self, listener: AcceptListener) -> None:
        """``listener(receiver, originator, payload, msg_id)`` on accept."""
        self._accept_listeners.append(listener)

    def _on_accept(self, originator: int, payload: bytes,
                   msg_id: MessageId) -> None:
        self.accepted.append((self._sim.now, originator, msg_id))
        for listener in self._accept_listeners:
            listener(self._node_id, originator, payload, msg_id)

    def _on_packet(self, packet: Packet) -> None:
        raise NotImplementedError

    def _start_protocol(self) -> None:
        """Default: no periodic machinery."""

    def _stop_protocol(self) -> None:
        """Default: no periodic machinery."""

    def _reset_protocol_state(self) -> None:
        """Default: no volatile protocol state."""
