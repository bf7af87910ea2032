"""Reliable FIFO broadcast on top of the paper's primitive (footnote 4)."""

from .channel import ReliableChannel
from .flow import FlowControlledSender
from .ordering import FifoDeliveryQueue, GapPolicy
from .stability import StabilityConfig, StabilityDetector

__all__ = [
    "FifoDeliveryQueue",
    "FlowControlledSender",
    "GapPolicy",
    "ReliableChannel",
    "StabilityConfig",
    "StabilityDetector",
]
