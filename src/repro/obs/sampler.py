"""Virtual-time metric sampling.

A :class:`MetricSampler` walks the live experiment world on a fixed
virtual-time cadence and appends one row to the context's metric series:
per-node MAC queue depth, store occupancy vs the §3.5 buffer bound,
request backlog, failure-detector suspicion counts, radio energy, and
cumulative/interval collision counts.  The sampler is an ordinary
:class:`~repro.des.timers.PeriodicTask` client — plain picklable state,
bound-method callback — so it checkpoints and resumes with the world.
"""

from __future__ import annotations

from time import perf_counter
from typing import Dict, Optional

from .. import profiling
from ..des.kernel import Simulator
from ..des.timers import PeriodicTask
from .context import ObsContext

__all__ = ["MetricSampler"]


class MetricSampler:
    """Periodically samples world state into a context's registry."""

    def __init__(self, sim: Simulator, context: ObsContext, nodes,
                 medium, energy=None,
                 buffer_bound: Optional[int] = None):
        self._sim = sim
        self._context = context
        self._nodes = list(nodes)
        self._medium = medium
        self._energy = energy
        self._buffer_bound = buffer_bound
        self._last_collisions = 0
        self._task = PeriodicTask(sim, context.config.sample_period,
                                  self.sample, start_immediately=True)

    def start(self) -> None:
        if self._context.config.metrics:
            self._task.start()

    def stop(self) -> None:
        self._task.stop()

    # ------------------------------------------------------------------
    def sample(self) -> None:
        """One tick: read every probe and append a series row."""
        prof = profiling.ACTIVE
        if prof is None:
            self._sample_body()
            return
        start = perf_counter()
        self._sample_body()
        prof.add("obs.sample", perf_counter() - start)

    def _sample_body(self) -> None:
        """Read the probes.

        All reads are cheap attribute walks (``getattr`` guards keep the
        sampler protocol-agnostic — baseline stacks without a store or
        failure detectors simply contribute zeros).
        """
        queue_total = 0
        queue_max = 0
        occupancy_total = 0
        occupancy_max = 0
        backlog_total = 0
        suspected_total = 0
        for node in self._nodes:
            mac = getattr(getattr(node, "radio", None), "mac", None)
            if mac is not None:
                depth = mac.queue_length
                queue_total += depth
                if depth > queue_max:
                    queue_max = depth
            store = getattr(getattr(node, "protocol", None), "store", None)
            if store is not None:
                occupancy = store.buffered_count
                occupancy_total += occupancy
                if occupancy > occupancy_max:
                    occupancy_max = occupancy
                backlog_total += store.request_backlog
            mute = getattr(node, "mute", None)
            if mute is not None:
                suspected_total += len(mute.suspected_nodes())
            verbose = getattr(node, "verbose", None)
            if verbose is not None:
                suspected_total += len(verbose.suspected_nodes())

        stats = self._medium.stats
        collisions = stats.collisions
        values: Dict[str, float] = {
            "queue_depth_total": queue_total,
            "queue_depth_max": queue_max,
            "store_occupancy_total": occupancy_total,
            "store_occupancy_max": occupancy_max,
            "request_backlog_total": backlog_total,
            "fd_suspected_total": suspected_total,
            "collisions_total": collisions,
            "collisions_interval": collisions - self._last_collisions,
            "deliveries_total": stats.deliveries,
            "transmissions_total": stats.transmissions,
        }
        self._last_collisions = collisions
        if self._buffer_bound is not None:
            values["buffer_bound"] = self._buffer_bound
        if self._energy is not None:
            summary = self._energy.summary()
            values["energy_tx_joules"] = summary["tx_joules"]
            values["energy_rx_joules"] = summary["rx_joules"]

        self._context.registry.record_sample(self._sim.now, values)
