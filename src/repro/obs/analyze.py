"""Trace analyzers: causal paths, latency bounds, per-node timelines.

These operate on exported span dicts (``ObsContext.span_dicts()`` or the
span list re-imported by :func:`repro.obs.export.load_trace`), so the
same analysis runs live in a test and offline via ``repro trace``.

The central reconstruction is :func:`trace_path`: given a message id it
rebuilds the hop-by-hop causal chain — who originated it, which radio
receptions carried it where, which nodes delivered, suppressed, merely
requested, or never heard it, and when buffer entries were purged.  It
works equally for delivered and undelivered messages: an undelivered
message's "chain" is the evidence of why it went nowhere (suppressed
sends, collisions, unanswered requests) ending in the purge span.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

__all__ = [
    "parse_msg",
    "message_ids",
    "trace_path",
    "causal_chain",
    "latency_report",
    "timeline",
]

#: Span-dict keys that are structure, not detail.
_RESERVED = ("seq", "span", "time", "phase", "node", "msg", "duration")

#: Bucket bounds (seconds) for delivery-latency histograms.
LATENCY_BOUNDS = (0.05, 0.1, 0.2, 0.5, 1.0, 2.0, 5.0, 10.0)


def parse_msg(text: str) -> str:
    """Normalise a user-supplied message id (``"originator:seq"``) to the
    canonical key used in span dicts."""
    try:
        originator, seq = text.split(":")
        return f"{int(originator)}:{int(seq)}"
    except ValueError:
        raise ValueError(
            f"message id must look like 'originator:seq', got {text!r}")


def message_ids(spans: Sequence[Dict[str, Any]]) -> List[str]:
    """All message ids present in a trace, sorted numerically."""
    keys = {span["msg"] for span in spans if span.get("msg")}
    return sorted(keys, key=lambda key: tuple(int(p) for p in key.split(":")))


def _ordered(spans: Sequence[Dict[str, Any]]) -> List[Dict[str, Any]]:
    return sorted(spans, key=lambda s: (s["time"], s.get("seq", 0)))


def trace_path(spans: Sequence[Dict[str, Any]], msg: str) -> Dict[str, Any]:
    """Reconstruct the causal story of one message.

    Returns a dict with:

    * ``origin`` — the origin span (or ``None`` if the trace starts
      mid-flight),
    * ``deliveries`` — hop records ``{node, time, sender, depth, span}``
      in delivery order, ``depth`` counting hops from the originator,
    * ``nodes`` — per-node outcome: ``origin``, ``delivered``,
      ``suppressed``, ``requested`` (gossiped-about but never recovered)
      or ``silent``; plus first-contact and purge times where known,
    * ``purges`` — every buffer reclaim of this message,
    * ``events`` — all spans about the message in causal order.
    """
    msg = parse_msg(msg)
    related = _ordered([s for s in spans if s.get("msg") == msg])
    origin = next((s for s in related if s["phase"] == "origin"), None)
    deliveries = [s for s in related if s["phase"] == "deliver"]
    purges = [s for s in related if s["phase"] == "purge"]

    depth: Dict[int, int] = {}
    if origin is not None:
        depth[origin["node"]] = 0
    hop_records: List[Dict[str, Any]] = []
    for deliver in deliveries:
        sender = deliver.get("sender")
        hop_depth = depth.get(sender, 0) + 1 if sender is not None else 1
        depth.setdefault(deliver["node"], hop_depth)
        hop_records.append({"node": deliver["node"], "time": deliver["time"],
                            "sender": sender, "depth": hop_depth,
                            "span": deliver.get("span")})

    nodes: Dict[int, Dict[str, Any]] = {}
    for span in related:
        entry = nodes.setdefault(span["node"], {"outcome": "silent",
                                                "first_time": span["time"]})
        phase = span["phase"]
        if phase == "origin":
            entry["outcome"] = "origin"
        elif phase == "deliver" and entry["outcome"] != "origin":
            entry["outcome"] = "delivered"
        elif phase == "suppress" and entry["outcome"] == "silent":
            entry["outcome"] = "suppressed"
            entry["reason"] = span.get("reason")
        elif phase == "request" and entry["outcome"] == "silent":
            entry["outcome"] = "requested"
        if phase == "purge":
            entry["purged_at"] = span["time"]

    return {"msg": msg, "origin": origin, "deliveries": hop_records,
            "nodes": nodes, "purges": purges, "events": related}


def causal_chain(spans: Sequence[Dict[str, Any]], msg: str,
                 node: int) -> List[Dict[str, Any]]:
    """The end-to-end span chain that got ``msg`` to ``node`` (or as far
    as the trace can explain): walks backwards from the node's terminal
    span through ``deliver.sender`` links to the origin, then returns the
    spans forward-ordered.  For a node that never delivered, the chain is
    that node's own evidence (rx/collision/request/suppress spans)."""
    msg = parse_msg(msg)
    related = _ordered([s for s in spans if s.get("msg") == msg])
    by_node: Dict[int, List[Dict[str, Any]]] = {}
    for span in related:
        by_node.setdefault(span["node"], []).append(span)

    chain: List[Dict[str, Any]] = []
    current: Optional[int] = node
    visited = set()
    while current is not None and current not in visited:
        visited.add(current)
        local = by_node.get(current, [])
        chain = local + chain
        terminal = next((s for s in local
                         if s["phase"] in ("origin", "deliver")), None)
        if terminal is None or terminal["phase"] == "origin":
            break
        current = terminal.get("sender")
    return chain


def latency_report(spans: Sequence[Dict[str, Any]],
                   bound: Optional[float] = None) -> Dict[str, Any]:
    """Per-delivery latency distribution with a §3.5 bound check.

    Latency is ``deliver.time - origin.time`` per (message, node) pair.
    When ``bound`` is given (or found in the trace meta by the CLI),
    every violating delivery is reported with the offending span id."""
    origins = {s["msg"]: s["time"] for s in spans
               if s["phase"] == "origin" and s.get("msg")}
    rows: List[Dict[str, Any]] = []
    for span in _ordered(spans):
        if span["phase"] != "deliver":
            continue
        start = origins.get(span.get("msg"))
        if start is None:
            continue
        rows.append({"msg": span["msg"], "node": span["node"],
                     "latency": span["time"] - start,
                     "span": span.get("span"), "time": span["time"]})

    latencies = [row["latency"] for row in rows]
    counts = [0] * (len(LATENCY_BOUNDS) + 1)
    for value in latencies:
        index = len(LATENCY_BOUNDS)
        for i, upper in enumerate(LATENCY_BOUNDS):
            if value <= upper:
                index = i
                break
        counts[index] += 1
    violations = ([row for row in rows if row["latency"] > bound]
                  if bound is not None else [])
    return {
        "bound": bound,
        "count": len(rows),
        "messages": len(origins),
        "mean": sum(latencies) / len(latencies) if latencies else 0.0,
        "min": min(latencies) if latencies else 0.0,
        "max": max(latencies) if latencies else 0.0,
        "buckets": list(zip(list(LATENCY_BOUNDS) + [None], counts)),
        "violations": violations,
    }


def timeline(spans: Sequence[Dict[str, Any]],
             node: Optional[int] = None) -> Dict[str, Any]:
    """Per-node activity summary; with ``node`` given, also the ordered
    event list for that node."""
    summary: Dict[int, Dict[str, Any]] = {}
    for span in _ordered(spans):
        entry = summary.setdefault(span["node"],
                                   {"count": 0, "first": span["time"],
                                    "last": span["time"], "phases": {}})
        entry["count"] += 1
        entry["last"] = span["time"]
        phases = entry["phases"]
        phases[span["phase"]] = phases.get(span["phase"], 0) + 1
    result: Dict[str, Any] = {"nodes": summary}
    if node is not None:
        result["events"] = _ordered([s for s in spans
                                     if s["node"] == node])
    return result
