"""Metrics: per-broadcast delivery records and latency statistics."""

from .collector import BroadcastRecord, MetricsCollector

__all__ = [
    "BroadcastRecord",
    "MetricsCollector",
]
