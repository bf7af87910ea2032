"""The ``runtime`` block: wall-clock/resource accounting per record.

Every campaign record may carry a ``runtime`` dict next to its virtual
time results:

``{"wall_seconds": 1.82, "peak_rss_kb": 91240, "events": 20412,
  "events_per_second": 11215.4}``

A per-run artifact: sweep averages carry none, and a profiled run's
phase totals live only in the record's ``profile`` field.

Being wall-clock, it is host-dependent by construction and therefore:

* **never** part of ``config_key`` (it lives in the result, not the
  config, so the hash is untouched by design), and
* **always** stripped before byte-identity comparisons — see
  :func:`strip_runtime`, which the determinism tests share.

``peak_rss_kb`` comes from ``resource.getrusage`` where available
(Linux reports KB, macOS bytes; normalised here) and is ``None`` on
platforms without the module — never a hard dependency.
"""

from __future__ import annotations

import sys
from typing import Any, Dict, Optional

__all__ = ["peak_rss_kb", "runtime_block", "strip_runtime"]

try:  # pragma: no cover - resource is present on all posix pythons
    import resource
except ImportError:  # pragma: no cover - e.g. windows
    resource = None  # type: ignore[assignment]


def peak_rss_kb() -> Optional[int]:
    """Peak resident set size of this process in kilobytes, or None."""
    if resource is None:
        return None
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # ru_maxrss is bytes on macOS
        rss //= 1024
    return int(rss)


def runtime_block(wall_seconds: float,
                  events: Optional[int] = None) -> Dict[str, Any]:
    """Assemble one record's ``runtime`` dict.

    ``events`` is the kernel event count (None for tiers that do not
    run the discrete kernel, e.g. fluid).
    """
    block: Dict[str, Any] = {
        "wall_seconds": round(float(wall_seconds), 6),
        "peak_rss_kb": peak_rss_kb(),
        "events": None if events is None else int(events),
    }
    if events is not None and wall_seconds > 0:
        block["events_per_second"] = round(events / wall_seconds, 3)
    else:
        block["events_per_second"] = None
    return block


def strip_runtime(record: Dict[str, Any]) -> Dict[str, Any]:
    """A copy of ``record`` without its wall-clock ``runtime`` block.

    The one helper every byte-identity comparison goes through: records
    produced on different hosts/workers/resume paths agree on
    everything *except* runtime, so determinism tests compare
    ``strip_runtime(a) == strip_runtime(b)``.
    """
    return {k: v for k, v in record.items() if k != "runtime"}
