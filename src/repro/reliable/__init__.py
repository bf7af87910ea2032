"""Reliable FIFO broadcast on top of the paper's primitive (footnote 4):
per-source FIFO delivery and ack-vector stability detection, whose
stability purge is the §3.2.2 alternative to the timeout purge."""

from .ordering import FifoDeliveryQueue, GapPolicy
from .stability import StabilityConfig, StabilityDetector

__all__ = [
    "FifoDeliveryQueue",
    "GapPolicy",
    "StabilityConfig",
    "StabilityDetector",
]
