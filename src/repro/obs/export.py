"""Trace exporters: span JSONL, metric-series CSV, Chrome trace_event.

Three formats, one source of truth (the ``ExperimentResult.trace``
payload / an :class:`~repro.obs.ObsContext`):

* **JSONL** — one meta line followed by one span per line; loss-free and
  re-importable (:func:`load_trace`), the interchange format the
  ``repro trace`` analyzers consume.
* **CSV** — the sampled metric series, one row per virtual-time tick,
  for spreadsheets/pandas.
* **Chrome trace_event JSON** — loadable in Perfetto
  (https://ui.perfetto.dev) or ``chrome://tracing``: the run is pid 0,
  each node is a "thread", spans with extent (``tx``, ``backoff``)
  become duration events and the rest instants.  A self-contained
  validator (:func:`validate_chrome`) checks the subset of the
  trace_event schema we emit, so CI can gate on it without external
  schema tooling.

All writers are deterministic: keys are emitted in a fixed order and no
wall-clock or environment state leaks in, which is what lets the
determinism matrix compare exports byte-for-byte.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional, Sequence, Tuple

__all__ = [
    "write_trace",
    "load_trace",
    "render_series_csv",
    "series_to_csv",
    "chrome_trace",
    "write_chrome",
    "validate_chrome",
]

#: Phases rendered as duration ("X") events; everything else is an
#: instant.  ``tx`` carries airtime, ``backoff`` the contention window.
_DURATION_PHASES = {"tx", "backoff"}

#: Perfetto category per phase — groups the timeline rows sensibly.
_PHASE_CATEGORY = {
    "origin": "app", "sign": "crypto", "deliver": "app",
    "suppress": "app", "request": "recovery", "serve": "recovery",
    "find": "recovery", "purge": "store",
    "mac_enqueue": "mac", "mac_drop": "mac", "backoff": "mac",
    "tx": "radio", "collision": "radio", "loss": "radio", "rx": "radio",
    "verify": "crypto", "verify_hit": "crypto",
    "fd_timeout": "fd", "fd_strike": "fd", "fd_indict": "fd",
}

_VALID_PH = {"B", "E", "X", "i", "I", "M", "C", "b", "e", "n",
             "s", "t", "f", "P", "O", "N", "D"}
_VALID_INSTANT_SCOPE = {"g", "p", "t"}


# ----------------------------------------------------------------------
# JSONL
# ----------------------------------------------------------------------
def write_trace(payload: Dict[str, Any], path: str) -> int:
    """Write a ``result.trace`` payload as JSON Lines: one ``meta`` record
    (run metadata + counters) then one span per line, in ``seq`` order.
    Returns the number of spans written."""
    spans = payload.get("spans") or []
    meta_line = {
        "type": "meta",
        "meta": payload.get("meta") or {},
        "span_count": payload.get("span_count", len(spans)),
        "dropped_spans": payload.get("dropped_spans", 0),
        "counters": payload.get("counters") or {},
    }
    with open(path, "w") as handle:
        handle.write(json.dumps(meta_line, sort_keys=True) + "\n")
        for span in spans:
            handle.write(json.dumps(span, sort_keys=True) + "\n")
    return len(spans)


def load_trace(path: str) -> Tuple[Dict[str, Any], List[Dict[str, Any]]]:
    """Read a JSONL trace back: ``(meta_record, spans)``, spans sorted by
    their monotonic ``seq`` (total order even under timestamp ties)."""
    meta: Dict[str, Any] = {}
    spans: List[Dict[str, Any]] = []
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            record = json.loads(line)
            if record.get("type") == "meta":
                meta = record
            else:
                spans.append(record)
    spans.sort(key=lambda span: span.get("seq", 0))
    return meta, spans


# ----------------------------------------------------------------------
# CSV series
# ----------------------------------------------------------------------
def render_series_csv(series: Dict[str, Sequence[float]]) -> str:
    """The sampled metric series as CSV text: ``time`` column first,
    remaining columns sorted, one row per tick.  A ragged column (a
    hand-edited or partial record) pads with empty cells: a damaged
    record degrades to odd CSV, never to an error."""
    columns = ["time"] + sorted(key for key in series if key != "time")
    lines = [",".join(columns)]
    for i in range(len(series.get("time") or ())):
        row = []
        for column in columns:
            values = series.get(column) or ()
            row.append(repr(float(values[i])) if i < len(values) else "")
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def series_to_csv(series: Dict[str, Sequence[float]], path: str) -> int:
    """Write :func:`render_series_csv` to ``path``; returns the number of
    data rows."""
    text = render_series_csv(series)
    with open(path, "w") as handle:
        handle.write(text)
    return text.count("\n") - 1


# ----------------------------------------------------------------------
# Chrome trace_event
# ----------------------------------------------------------------------
def chrome_trace(spans: Sequence[Dict[str, Any]],
                 meta: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
    """Build a Chrome ``trace_event`` document from span dicts.

    Layout: a single process (pid 0) named after the run; one "thread"
    per node (tid = node id, run-level events land on tid -1), named and
    sorted by node id.  Virtual seconds map to trace microseconds."""
    events: List[Dict[str, Any]] = []
    nodes = sorted({span["node"] for span in spans})
    run_name = "repro experiment"
    if meta:
        inner = meta.get("meta", meta)
        if inner.get("n") is not None:
            run_name = f"repro n={inner['n']} seed={inner.get('seed')}"
    events.append({"ph": "M", "pid": 0, "tid": 0, "name": "process_name",
                   "args": {"name": run_name}})
    for node in nodes:
        label = f"node {node}" if node >= 0 else "run"
        events.append({"ph": "M", "pid": 0, "tid": node,
                       "name": "thread_name", "args": {"name": label}})
        events.append({"ph": "M", "pid": 0, "tid": node,
                       "name": "thread_sort_index",
                       "args": {"sort_index": node}})
    reserved = {"seq", "span", "time", "phase", "node", "msg", "duration"}
    for span in spans:
        phase = span["phase"]
        args = {"span": span.get("span"), "seq": span.get("seq")}
        if span.get("msg") is not None:
            args["msg"] = span["msg"]
        for key in sorted(span):
            if key not in reserved:
                args[key] = span[key]
        name = phase if span.get("msg") is None else f"{phase} {span['msg']}"
        event: Dict[str, Any] = {
            "name": name,
            "cat": _PHASE_CATEGORY.get(phase, "other"),
            "pid": 0,
            "tid": span["node"],
            "ts": span["time"] * 1e6,
            "args": args,
        }
        if phase in _DURATION_PHASES and span.get("duration", 0) > 0:
            event["ph"] = "X"
            event["dur"] = span["duration"] * 1e6
        else:
            event["ph"] = "i"
            event["s"] = "t"
        events.append(event)
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome(spans: Sequence[Dict[str, Any]], path: str,
                 meta: Optional[Dict[str, Any]] = None) -> int:
    """Write :func:`chrome_trace` output to ``path``; returns the event
    count (metadata records included)."""
    document = chrome_trace(spans, meta)
    with open(path, "w") as handle:
        json.dump(document, handle, sort_keys=True)
    return len(document["traceEvents"])


def validate_chrome(document: Any) -> List[str]:
    """Validate a trace_event document (dict, or a path to one).

    Checks the structural rules of the format we emit — ``traceEvents``
    list, known ``ph`` codes, required ``name``/``pid``/``tid``, numeric
    ``ts`` on timed events, non-negative ``dur`` on complete events,
    valid instant scope.  Returns a list of problems (empty == valid)."""
    if isinstance(document, str):
        try:
            with open(document) as handle:
                document = json.load(handle)
        except (OSError, json.JSONDecodeError) as exc:
            return [f"unreadable trace: {exc}"]
    problems: List[str] = []
    if not isinstance(document, dict):
        return ["top level must be a JSON object"]
    events = document.get("traceEvents")
    if not isinstance(events, list):
        return ["missing traceEvents array"]
    for index, event in enumerate(events):
        where = f"traceEvents[{index}]"
        if not isinstance(event, dict):
            problems.append(f"{where}: not an object")
            continue
        ph = event.get("ph")
        if ph not in _VALID_PH:
            problems.append(f"{where}: invalid ph {ph!r}")
            continue
        if not isinstance(event.get("name"), str):
            problems.append(f"{where}: missing name")
        for field in ("pid", "tid"):
            if not isinstance(event.get(field), int):
                problems.append(f"{where}: missing integer {field}")
        if ph != "M":
            ts = event.get("ts")
            if not isinstance(ts, (int, float)):
                problems.append(f"{where}: missing numeric ts")
        if ph == "X":
            dur = event.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                problems.append(f"{where}: X event needs dur >= 0")
        if ph in ("i", "I"):
            if event.get("s", "t") not in _VALID_INSTANT_SCOPE:
                problems.append(f"{where}: invalid instant scope "
                                f"{event.get('s')!r}")
        if "args" in event and not isinstance(event["args"], dict):
            problems.append(f"{where}: args must be an object")
    return problems
