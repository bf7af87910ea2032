"""Command lines: the single-run contract command and ``python -m bench``."""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from typing import Any, Dict, List, Optional, Sequence

from .metrics import END_TO_END, PER_LAYER, as_json, unit_of

__all__ = ["main", "main_single", "workloads"]

_HERE = os.path.dirname(os.path.abspath(__file__))
_DETAIL = "detail: "


def workloads() -> Dict[str, Any]:
    """Every workload by name, in the order ``BENCHMARK.json`` lists them.

    Imported here, not at the top: ``compare`` and ``--help`` work without
    the program's sources, the workloads do not."""
    from .simload import SIM_WORKLOADS
    from .svcload import SVC_WORKLOADS
    return {workload.name: workload
            for workload in (*SIM_WORKLOADS, *SVC_WORKLOADS)}


def _workload(name: str) -> Any:
    known = workloads()
    if name not in known:
        raise SystemExit(f"unknown workload {name!r}; choose from "
                         f"{', '.join(known)}")
    return known[name]


def _units(traced: bool) -> Dict[str, str]:
    if traced:
        return {name: unit_of(name) for name in PER_LAYER}
    return {spec.name: spec.unit for spec in END_TO_END}


def main_single(argv: Optional[Sequence[str]] = None) -> int:
    """``--workload W --seed N --seconds S --trace 0|1``: measure, print
    the result line last.  Exit 0 whenever a result was printed; the
    result says whether the outputs were correct."""
    parser = argparse.ArgumentParser(prog="bench/run.py",
                                     description=main_single.__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--passes", type=int, default=None,
                        help="fixed number of timed passes instead of "
                             "--seconds of them (smoke tests)")
    parser.add_argument("--trace-out", default=None, metavar="PATH",
                        help="with --trace 1, also write the spans as "
                             "Chrome trace_event JSON")
    args = parser.parse_args(argv)

    from .harness import measure
    outcome = measure(_workload(args.workload), args.seed, args.seconds,
                      passes=args.passes, traced=bool(args.trace),
                      trace_out=args.trace_out)
    units = _units(outcome.traced)
    detail = outcome.detail()
    print(f"{outcome.workload} seed {outcome.seed}: {outcome.passes} timed "
          f"passes, work = {outcome.unit_of_work}, "
          f"sim_digest {outcome.digest[:16]}")
    for name, value in outcome.metrics.items():
        q = detail["quartiles"].get(name)
        spread = f"  [q1 {q[0]:.6g}, q3 {q[2]:.6g}]" if q else ""
        print(f"  {name:40s} {value:14.6g} {units[name]}{spread}")
    for failure in outcome.gate.failures:
        print(f"  FAILED: {failure}")
    print(_DETAIL + json.dumps(detail))
    print(json.dumps({
        "correct": outcome.gate.correct,
        "attempted": outcome.gate.attempted,
        "failed": outcome.gate.failed,
        "metrics": as_json(outcome.metrics, units),
    }))
    return 0


# ----------------------------------------------------------------------
def _run_child(workload: str, args: argparse.Namespace, traced: bool
               ) -> Dict[str, Any]:
    """One workload in its own process, so memory high-water marks and
    warmed caches never leak from one workload into the next."""
    command = [sys.executable, os.path.join(_HERE, "run.py"),
               "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(int(traced))]
    if args.passes is not None:
        command += ["--passes", str(args.passes)]
    if traced:
        command += ["--trace-out", os.path.join(
            _HERE, "results", f"trace_{workload}.json")]
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.splitlines()
    details = [line for line in lines if line.startswith(_DETAIL)]
    if done.returncode != 0 or not details:
        sys.stdout.write(done.stdout)
        raise SystemExit(f"{workload}: run failed with exit code "
                         f"{done.returncode}")
    for line in lines:
        if not line.startswith(_DETAIL) and not line.startswith("{"):
            print(line)
    return json.loads(details[0][len(_DETAIL):])


def _run(args: argparse.Namespace) -> int:
    names: List[str] = (args.workloads.split(",") if args.workloads
                        else list(workloads()))
    run_set: Dict[str, Any] = {"seed": args.seed, "seconds": args.seconds,
                               "workloads": {}}
    failed = 0
    for name in names:
        entry = {"end_to_end": _run_child(name, args, traced=False)}
        failed += entry["end_to_end"]["failed"]
        if args.traced:
            entry["per_layer"] = _run_child(name, args, traced=True)
            failed += entry["per_layer"]["failed"]
        run_set["workloads"][name] = entry
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(run_set, handle, indent=1, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.out}")
    print(f"{failed} failed operations")
    return 1 if failed else 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m bench")
    commands = parser.add_subparsers(dest="command", required=True)
    run = commands.add_parser(
        "run", help="every workload, each in its own process; prints every "
                    "end-to-end metric by name with its unit and exits "
                    "non-zero if any check failed")
    run.add_argument("--seed", type=int, default=1)
    run.add_argument("--seconds", type=float, default=10.0)
    run.add_argument("--passes", type=int, default=None)
    run.add_argument("--traced", action="store_true",
                     help="add one traced run per workload (per-layer "
                          "metrics, Chrome traces in bench/results/)")
    run.add_argument("--workloads", default=None,
                     help="comma-separated subset")
    run.add_argument("--out", default=None, metavar="PATH",
                     help="write the run set as JSON (input of compare)")
    compare = commands.add_parser(
        "compare", help="judge run set B against run set A, per workload "
                        "and end-to-end metric; exits non-zero on 'worse'")
    compare.add_argument("baseline")
    compare.add_argument("current")
    args = parser.parse_args(argv)
    if args.command == "run":
        return _run(args)
    from .compare import compare_files
    return compare_files(args.baseline, args.current)
