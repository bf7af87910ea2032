"""The paper's primary contribution: Byzantine-tolerant broadcast."""

from .config import ProtocolConfig
from .messages import (
    DATA,
    FIND_MISSING_MSG,
    GOSSIP,
    REQUEST_MSG,
    DataMessage,
    FindMissingMessage,
    GossipMessage,
    GossipPacket,
    MessageId,
    RequestMessage,
)
from .node import NetworkNode, NodeStackConfig, make_election_rule
from .protocol import (
    ByzantineBroadcastProtocol,
    CorrectBehavior,
    ManagerOverlayPort,
    NodeBehavior,
    OverlayPort,
    ProtocolStats,
    StaticOverlayPort,
)
from .shell import NodeShell
from .store import MessageStore

__all__ = [
    "ByzantineBroadcastProtocol",
    "CorrectBehavior",
    "DATA",
    "DataMessage",
    "FIND_MISSING_MSG",
    "FindMissingMessage",
    "GOSSIP",
    "GossipMessage",
    "GossipPacket",
    "ManagerOverlayPort",
    "MessageId",
    "MessageStore",
    "NetworkNode",
    "NodeBehavior",
    "NodeShell",
    "NodeStackConfig",
    "OverlayPort",
    "ProtocolConfig",
    "ProtocolStats",
    "REQUEST_MSG",
    "RequestMessage",
    "StaticOverlayPort",
    "make_election_rule",
]
