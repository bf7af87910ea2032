"""Dolev-style reliable broadcast with path tracking.

The classic result (Dolev 1982, as revisited for multi-hop networks by
Bonomi, Farina and Tixeuil) delivers a broadcast despite ``f`` Byzantine
*relays* by accepting a message only when it arrived over ``f + 1``
node-disjoint relay paths, or directly from its originator.  Every copy
on the wire carries the list of nodes it traversed; each relay appends
itself before forwarding.

Two standard optimizations are implemented:

* **Echo amplification / single-hop send** (Bonomi et al.'s MD.5): a
  node that has *delivered* the message re-broadcasts it once with an
  **empty path**, acting as a source of one fresh single-hop path — its
  neighbors count the copy as the one-node path ``{sender}`` instead of
  whatever long path first convinced it.  Delivery then spreads in
  short, cheap hops instead of ever-growing path lists.
* **Relay damping** (MD.2/MD.4): once delivered, a node sends only its
  echo and stops relaying tracked paths entirely; before delivery it
  forwards at most ``relay_budget`` distinct paths per message and
  discards copies whose path already contains it (loops carry no new
  disjointness).

The repo-wide authentication assumption is kept — DATA payloads stay
originator-signed, so a Byzantine relay cannot *forge* content here any
more than it can elsewhere; what path disjointness adds on top is
robustness of *propagation* against relays that drop, delay, or play
games with topology knowledge, without trusting any single cut vertex
more than the declared fault budget allows.

``paths_required`` is the knob: ``1`` degenerates to signed flooding
with provenance tracking; ``f + 1`` is Dolev's rule for ``f`` faulty
relays (and needs ``f + 1``-connectivity among correct nodes to stay
live, which the conformance harness checks at the protocol's declared
threshold).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Set, Tuple

from ..core.messages import DataMessage, MessageId
from ..des.random import RandomStream
from ..radio.packet import Packet
from .base import ArenaNode

__all__ = ["DolevData", "DolevNode", "disjoint_path_count"]

#: Wire-size overhead per path entry (a node id on the path list).
_PATH_ENTRY_BYTES = 2


@dataclass(frozen=True)
class DolevData:
    """A DATA copy annotated with the relay path it traveled so far.

    ``path`` holds the ids of the relays that forwarded this copy, in
    order, *excluding* the originator and the link-layer sender (the
    receiver appends the sender itself — link-layer sender ids are the
    authenticated-channel assumption and cannot be spoofed on this
    medium model).
    """

    message: DataMessage
    path: Tuple[int, ...] = ()


def disjoint_path_count(paths: List[frozenset]) -> int:
    """Size of a greedily-packed pairwise-disjoint subset of ``paths``.

    Exact for the small path sets a node accumulates before delivering
    in practice (shortest paths are considered first, which is optimal
    whenever any maximum packing contains a shortest path — and the
    greedy answer is always a valid lower bound, so the delivery rule
    stays *sound*: it never claims more disjointness than exists).
    """
    used: Set[int] = set()
    count = 0
    for path in sorted(paths, key=lambda p: (len(p), sorted(p))):
        if not (path & used):
            used |= path
            count += 1
    return count


class DolevNode(ArenaNode):
    """Reliable broadcast via node-disjoint relay paths."""

    def __init__(self, *args, rng: RandomStream,
                 paths_required: int = 1,
                 relay_budget: int = 3, max_paths: int = 24,
                 echo_budget: int = 3,
                 repair_delay: float = 0.15, **kwargs):
        super().__init__(*args, **kwargs)
        if paths_required < 1:
            raise ValueError("paths_required must be >= 1")
        if relay_budget < 1:
            raise ValueError("relay_budget must be >= 1")
        if echo_budget < 1:
            raise ValueError("echo_budget must be >= 1")
        self._rng = rng
        self._paths_required = paths_required
        self._relay_budget = relay_budget
        self._max_paths = max_paths
        self._echo_budget = echo_budget
        self._repair_delay = repair_delay
        #: msg_id -> distinct relay-sets received so far (pre-delivery).
        self._paths: Dict[MessageId, List[frozenset]] = {}
        #: msg_id -> how many tracked relays this node already forwarded.
        self._relayed: Dict[MessageId, int] = {}
        #: msg_id -> (message, repair echoes left); present while this
        #: node still answers post-delivery distress with re-echoes.
        self._echo_state: Dict[MessageId, Tuple[DataMessage, int]] = {}
        #: msg_ids with a repair echo already in flight.
        self._repair_pending: Set[MessageId] = set()

    @property
    def paths_required(self) -> int:
        return self._paths_required

    def _reset_protocol_state(self) -> None:
        super()._reset_protocol_state()
        self._paths = {}
        self._relayed = {}
        self._echo_state = {}
        self._repair_pending = set()

    # ------------------------------------------------------------------
    def _on_broadcast(self, message: DataMessage) -> None:
        self._transmit(message, ())

    def _on_message(self, packet: Packet) -> None:
        wire = packet.payload
        if not isinstance(wire, DolevData):
            return
        message = wire.message
        msg_id = message.msg_id
        if msg_id in self._delivered:
            # MD.2: delivered — but a *tracked-path* copy proves its
            # sender is still collecting evidence (delivered nodes only
            # transmit empty paths), i.e. our first echo may have been
            # lost to a collision.  A single echo per delivered node is
            # the protocol's weak spot on a contended channel: delivery
            # needs copies from *distinct* neighbours, so one lost frame
            # can starve a node forever where flooding shrugs it off.
            # Repair: re-echo within budget, after a jittered delay so
            # the echo lands once the relay storm that just ate it has
            # died down.
            if wire.path and msg_id in self._echo_state \
                    and msg_id not in self._repair_pending:
                self._repair_pending.add(msg_id)
                self._sim.schedule(
                    self._rng.jitter(self._repair_delay, 0.5),
                    self._repair_echo, msg_id)
            return
        if self._node_id in wire.path or packet.sender == self._node_id:
            return  # MD.3: looped copies add no disjointness
        if not message.verify(self.directory):
            return
        if packet.sender == msg_id.originator and not wire.path:
            # Direct link from the source: Dolev delivers immediately.
            self._deliver_and_echo(message, packet.sender)
            return
        relays = frozenset(
            node for node in wire.path + (packet.sender,)
            if node != msg_id.originator)
        known = self._paths.setdefault(msg_id, [])
        if relays in known:
            return
        if len(known) < self._max_paths:
            known.append(relays)
        if disjoint_path_count(known) >= self._paths_required:
            del self._paths[msg_id]
            self._relayed.pop(msg_id, None)
            self._deliver_and_echo(message, packet.sender)
            return
        # Not convinced yet: forward the extended path within budget so
        # nodes further out keep accumulating disjoint evidence.
        forwarded = self._relayed.get(msg_id, 0)
        if forwarded < self._relay_budget:
            self._relayed[msg_id] = forwarded + 1
            self._transmit(message, wire.path + (packet.sender,))

    # ------------------------------------------------------------------
    def _deliver_and_echo(self, message: DataMessage, sender: int) -> None:
        if self._deliver(message, sender):
            # Echo amplification: an empty-path re-broadcast, so each
            # neighbor gains the single-hop path {self}.  Further repair
            # echoes stay available while pre-delivery traffic persists.
            # Repair echoes only matter when disjoint-path quorums do:
            # at paths_required = 1 any single copy delivers, so
            # flooding's robustness suffices.
            if self._echo_budget > 1 and self._paths_required > 1:
                self._echo_state[message.msg_id] = (message,
                                                    self._echo_budget - 1)
            self._transmit(message, ())

    def _repair_echo(self, msg_id: MessageId) -> None:
        self._repair_pending.discard(msg_id)
        state = self._echo_state.get(msg_id)
        if state is None or self._crashed:
            return
        message, budget = state
        if budget <= 1:
            del self._echo_state[msg_id]
        else:
            self._echo_state[msg_id] = (message, budget - 1)
        self._transmit(message, ())

    def _transmit(self, message: DataMessage, path: Tuple[int, ...]) -> None:
        self._send_data(message, wire=DolevData(message=message, path=path),
                        extra_bytes=_PATH_ENTRY_BYTES * len(path))

    def _rewrap(self, wire: DolevData, message: DataMessage) -> DolevData:
        return DolevData(message=message, path=wire.path)
