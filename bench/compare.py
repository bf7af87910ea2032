"""``python -m bench compare A.json B.json`` — is B worse than A?

One row per workload and end-to-end metric: both medians, both quartile
ranges, the metric's bound and a verdict.  ``worse`` means B's median is
worse than A's by more than the bound.  When it is, but either side's
own pass-to-pass spread is wider than the bound and the two quartile
ranges overlap, the runs cannot tell the two apart and the verdict is
``unresolved`` rather than ``worse``.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Tuple

from .metrics import END_TO_END, EndToEnd, quartiles

__all__ = ["compare_sets", "compare_files", "verdict"]


def _range(entry: Dict[str, Any], name: str) -> Tuple[float, float, float]:
    samples = entry.get("samples", {}).get(name)
    if samples:
        q1, _, q3 = quartiles(samples)
    else:
        q1 = q3 = entry["metrics"][name]
    return q1, entry["metrics"][name], q3


def verdict(spec: EndToEnd, base: Tuple[float, float, float],
            current: Tuple[float, float, float]) -> str:
    (a1, a, a3), (b1, b, b3) = base, current
    if not a:
        return "ok" if not b else "worse"
    worse_by = (b - a) / a if spec.better == "lower" else (a - b) / a
    if worse_by <= spec.bound:
        return "ok"
    widest = max((a3 - a1) / a, (b3 - b1) / b if b else 0.0)
    overlap = a1 <= b3 and b1 <= a3
    return "unresolved" if widest > spec.bound and overlap else "worse"


def compare_sets(base: Dict[str, Any], current: Dict[str, Any]
                 ) -> List[Dict[str, Any]]:
    rows = []
    for workload, entry in base["workloads"].items():
        other = current["workloads"].get(workload)
        if other is None:
            continue
        for spec in END_TO_END:
            a = _range(entry["end_to_end"], spec.name)
            b = _range(other["end_to_end"], spec.name)
            rows.append({"workload": workload, "metric": spec.name,
                         "unit": spec.unit, "bound": spec.bound,
                         "base": a, "current": b,
                         "verdict": verdict(spec, a, b)})
        failed = (entry["end_to_end"]["failed"], other["end_to_end"]["failed"])
        if any(failed):
            rows.append({"workload": workload, "metric": "failed",
                         "unit": "count", "bound": 0.0,
                         "base": (failed[0],) * 3, "current": (failed[1],) * 3,
                         "verdict": "worse" if failed[1] > failed[0]
                         else "ok"})
    return rows


def compare_files(base_path: str, current_path: str) -> int:
    with open(base_path) as handle:
        base = json.load(handle)
    with open(current_path) as handle:
        current = json.load(handle)
    rows = compare_sets(base, current)
    print(f"{'workload':16s} {'metric':16s} {'A median [q1, q3]':34s} "
          f"{'B median [q1, q3]':34s} {'bound':>6s}  verdict")
    for row in rows:
        cells = ["{:.5g} [{:.5g}, {:.5g}]".format(side[1], side[0], side[2])
                 for side in (row["base"], row["current"])]
        print(f"{row['workload']:16s} {row['metric']:16s} {cells[0]:34s} "
              f"{cells[1]:34s} {row['bound']:6.0%}  {row['verdict']}")
    digests = [(name, entry["end_to_end"]["sim_digest"],
                current["workloads"].get(name, {}).get(
                    "end_to_end", {}).get("sim_digest"))
               for name, entry in base["workloads"].items()]
    if base.get("seed") == current.get("seed"):
        for name, a, b in digests:
            print(f"sim_digest {name}: "
                  f"{'identical' if a == b else 'DIFFERENT'}")
    worse = [row for row in rows if row["verdict"] == "worse"]
    unresolved = [row for row in rows if row["verdict"] == "unresolved"]
    print(f"{len(worse)} worse, {len(unresolved)} unresolved, "
          f"{len(rows) - len(worse) - len(unresolved)} ok")
    return 1 if worse else 0
