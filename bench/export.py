"""Chrome ``trace_event`` export of a traced pass, checked with the
program's own validator so the file is known to load in Perfetto."""

from __future__ import annotations

import json
import os

from repro.obs import validate_chrome

from .trace import Tracer

__all__ = ["write_chrome"]


def write_chrome(tracer: Tracer, workload: str, path: str) -> bool:
    """Write the trace; False when ``validate_chrome`` finds a problem."""
    document = tracer.chrome(f"bench {workload}")
    if validate_chrome(document):
        return False
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w") as handle:
        json.dump(document, handle)
    return True
