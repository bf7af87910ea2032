#!/usr/bin/env python3
"""The command ``BENCHMARK.json`` names: one workload, one seed.

    python3 bench/run.py --workload byzcast_mute --seed 1 --seconds 10 --trace 0

Prints what it measured and, as the last line of standard output, one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.  Needs the
program's sources at ``src/`` beside this directory and fails without
printing a result when they are missing.
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]

if __name__ == "__main__":
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        sys.exit(f"bench: no program to measure: {ROOT}/src/repro is missing")
    from bench.cli import main_single
    sys.exit(main_single())
