"""Key-indexed result views for the campaign service.

The store *is* the existing content-addressed :class:`Campaign`
directory — the service adds no second persistence format, and a record
a client fetches over HTTP is the stored file's own bytes, the file a
serial ``Campaign.run`` would have written (and the quarantining reader
in :mod:`repro.persist` protects every read path).  On top of it this
module provides the projections the HTTP results API serves: record
summaries, the sampled metric series as CSV text, and a Perfetto-loadable
``trace_event`` counter document built from the same series.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from ..obs.export import render_series_csv
from ..persist import read_json_file
from ..sim.campaign import Campaign

__all__ = ["ResultStore"]

#: Record fields surfaced in the /api/records listing.
_SUMMARY_FIELDS = ("protocol", "n", "byzantine", "seed", "broadcasts",
                   "delivery_ratio", "mean_latency")


class ResultStore:
    """The service's view over one campaign record directory."""

    def __init__(self, directory: str):
        self._campaign = Campaign(directory)

    @property
    def campaign(self) -> Campaign:
        return self._campaign

    @property
    def directory(self) -> str:
        return self._campaign.directory

    # ------------------------------------------------------------------
    def load_key(self, key: str) -> Optional[Tuple[bytes, Dict[str, Any]]]:
        """The stored bytes of one record and the record they parse to,
        or None (a damaged file is quarantined and reads as absent)."""
        return read_json_file(self._campaign._path(key), "campaign record")

    def keys(self) -> List[str]:
        return self._campaign.keys()

    def summaries(self) -> List[Dict[str, Any]]:
        """One summary row per record, sorted by key."""
        return [{"key": record.get("key"),
                 **{name: record.get(name) for name in _SUMMARY_FIELDS},
                 "has_metrics": record.get("metrics") is not None}
                for record in self._campaign.records()]

    # ------------------------------------------------------------------
    @staticmethod
    def series_of(record: Dict[str, Any]) -> Optional[Dict[str, Any]]:
        """The record's sampled metric series (observed runs only)."""
        metrics = record.get("metrics")
        if not metrics:
            return None
        series = metrics.get("series")
        return series or None

    @classmethod
    def series_csv(cls, record: Dict[str, Any]) -> Optional[str]:
        """The metric series as CSV text
        (:func:`repro.obs.export.render_series_csv`, the same bytes
        ``repro run --metrics-out`` writes)."""
        series = cls.series_of(record)
        return None if series is None else render_series_csv(series)

    @classmethod
    def counter_trace(cls,
                      record: Dict[str, Any]) -> Optional[Dict[str, Any]]:
        """A Chrome/Perfetto ``trace_event`` document of the record's
        metric series as counter tracks (``ph: "C"``), one named counter
        per metric, virtual seconds mapped to trace microseconds — valid
        per :func:`repro.obs.validate_chrome`."""
        series = cls.series_of(record)
        if series is None:
            return None
        name = (f"repro {record.get('protocol')} n={record.get('n')} "
                f"seed={record.get('seed')} [{record.get('key')}]")
        events: List[Dict[str, Any]] = [
            {"ph": "M", "pid": 0, "tid": 0, "name": "process_name",
             "args": {"name": name}},
        ]
        times = series.get("time") or ()
        for column in sorted(key for key in series if key != "time"):
            values = series.get(column) or ()
            for i, time in enumerate(times):
                if i >= len(values):  # ragged column: stop at its end
                    break
                events.append({
                    "ph": "C", "pid": 0, "tid": 0, "name": column,
                    "ts": float(time) * 1e6,
                    "args": {"value": float(values[i])},
                })
        return {"traceEvents": events, "displayTimeUnit": "ms"}
