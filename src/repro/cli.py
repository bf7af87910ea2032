"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``run``       one experiment, full report
``compare``   every paper-canonical protocol on the same scenario
``sweep``     sweep n or the mute count for one protocol
``experiments``  list the reconstructed paper experiments and their benches
``arena``     protocol registry: list/run/compare every registered protocol
``serve``     run the always-on campaign service (queue + workers + HTTP)
``submit``    submit a sweep spec to a running campaign service
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from typing import List, Optional, Sequence

from . import arena
from .chaos import FaultSchedule, OracleConfig
from .obs import (
    causal_chain,
    latency_report,
    load_trace,
    series_to_csv,
    timeline,
    trace_path,
    validate_chrome,
    write_chrome,
    write_trace,
)
from .service.spec import CHANNELS, MOBILITY, RULES, SWEEP_PARAMS, SweepSpec
from .sim.checkpoint import CheckpointConfig
from .sim.experiment import (
    PROTOCOLS,
    SCHEMES,
    TIERS,
    ExperimentConfig,
    run_experiment,
    run_many,
)
from .sim.render import format_rows
from .sim.sweeps import average_results

__all__ = ["main", "build_parser"]

_EXPERIMENTS = (
    ("E1", "failure-free overhead vs n", "test_e1_overhead_vs_n.py"),
    ("E2", "failure-free delivery vs n", "test_e2_delivery_vs_n.py"),
    ("E3", "failure-free latency vs n", "test_e3_latency_vs_n.py"),
    ("E4", "delivery vs mute overlay nodes", "test_e4_delivery_vs_mute.py"),
    ("E5", "latency vs mute overlay nodes", "test_e5_latency_vs_mute.py"),
    ("E6", "overhead vs mute overlay nodes", "test_e6_overhead_vs_mute.py"),
    ("E7", "overlay quality: CDS vs MIS+B", "test_e7_overlay_quality.py"),
    ("E8", "MUTE interval failure detector", "test_e8_fd_intervals.py"),
    ("E9", "verbose attacker vs VERBOSE FD", "test_e9_verbose_attack.py"),
    ("E10", "analysis bounds (Thm 3.4)", "test_e10_analysis_bounds.py"),
    ("E11", "delivery under mobility", "test_e11_mobility.py"),
    ("E12", "hundred-node scale + energy", "test_e12_scale_energy.py"),
    ("E12X", "two-tier scale curve: packet 5k, fluid 100k",
     "test_e12_extended_scale.py"),
    ("E13", "mid-run mute onset vs permanent mute", "test_e13_midrun_mute.py"),
    ("A1", "gossip period trade-off", "test_a1_gossip_period.py"),
    ("A2", "FIND TTL 1 vs 2", "test_a2_find_ttl.py"),
    ("A3", "gossip aggregation/piggyback", "test_a3_gossip_aggregation.py"),
    ("A4", "DSA vs HMAC crypto cost", "test_a4_crypto_cost.py"),
    ("A5", "line-29 discrepancy", "test_a5_line29_discrepancy.py"),
    ("A6", "timeout vs stability purging", "test_a6_stability_purge.py"),
    ("A7", "verified-signature cache", "test_a7_verify_cache.py"),
)


def _worker_count(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"need at least one worker, got {value}")
    return value


def _runner_name(text: str) -> str:
    """A ``fuzz --runner`` name, checked when fuzz arguments are parsed so
    that building the parser does not import the fuzzer."""
    from .fuzz.fixtures import RUNNERS
    if text not in RUNNERS:
        raise argparse.ArgumentTypeError(
            f"invalid choice: {text!r} (choose from "
            f"{', '.join(sorted(RUNNERS))})")
    return text


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Byzantine broadcast in wireless ad-hoc networks "
                    "(DSN 2005 reproduction)")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_scenario_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("--n", type=int, default=30,
                       help="number of nodes (default 30)")
        p.add_argument("--mute", type=int, default=0,
                       help="mute Byzantine nodes at the highest ids")
        p.add_argument("--seed", type=int, default=1)
        p.add_argument("--tx-range", type=float, default=100.0)
        p.add_argument("--degree", type=float, default=8.0,
                       help="target average node degree")
        p.add_argument("--mobility", choices=MOBILITY, default="static")
        p.add_argument("--channel", choices=CHANNELS, default="disk")
        p.add_argument("--messages", type=int, default=5)
        p.add_argument("--interval", type=float, default=1.5,
                       help="seconds between broadcasts")
        p.add_argument("--warmup", type=float, default=8.0)
        p.add_argument("--drain", type=float, default=15.0)
        p.add_argument("--rule", choices=RULES, default="cds",
                       help="overlay election rule")
        p.add_argument("--gossip-period", type=float, default=1.0)
        p.add_argument("--chaos", metavar="SPEC.json", default=None,
                       help="fault-timeline JSON replayed against the run "
                            "(times relative to end of warmup); implies "
                            "--oracle")
        p.add_argument("--oracle", action="store_true",
                       help="check run-time invariants (forged/duplicate "
                            "delivery, latency and buffer bounds)")
        p.add_argument("--scheme", choices=SCHEMES, default="hmac",
                       help="signature scheme: hmac oracle (fast, default) "
                            "or real DSA (the paper's choice)")
        p.add_argument("--profile", action="store_true",
                       help="collect and print the per-phase cost profile "
                            "(crypto/codec/medium/kernel)")
        p.add_argument("--verify-cache", type=int, default=1024,
                       metavar="SIZE",
                       help="per-node verified-signature LRU entries "
                            "(0 disables; default 1024)")
        p.add_argument("--no-wire-cache", action="store_true",
                       help="disable the encode-once wire-frame cache")
        p.add_argument("--checkpoint-every", type=float, default=None,
                       metavar="T",
                       help="snapshot the run every T virtual seconds and "
                            "auto-resume from an existing snapshot of the "
                            "same configuration (results are identical to "
                            "an uninterrupted run)")
        p.add_argument("--checkpoint-dir", default=".repro-checkpoints",
                       metavar="DIR",
                       help="where snapshots live "
                            "(default .repro-checkpoints)")
        p.add_argument("--observe", action="store_true",
                       help="record causal lifecycle spans and virtual-time "
                            "metric series (see `repro trace`)")
        p.add_argument("--tier", choices=TIERS, default="packet",
                       help="simulation tier: 'packet' (discrete-event) "
                            "or 'fluid' (calibrated mean-field model, "
                            "usable to n of 10^5+)")
        p.add_argument("--paths-required", type=int, default=None,
                       metavar="K",
                       help="dolev: node-disjoint paths required before "
                            "accepting (default min(f+1, 3))")
        p.add_argument("--suppression-threshold", type=int, default=None,
                       metavar="K",
                       help="optflood: duplicate overhears that suppress "
                            "a retransmission (default 3)")
        p.add_argument("--cpa-k", type=int, default=None, metavar="K",
                       help="maurer_tixeuil: local fault bound k — accept "
                            "on k+1 vouching neighbours (default 1 under "
                            "declared faults, else 0)")

    def add_output_args(p: argparse.ArgumentParser) -> None:
        """Trace/series files: only the single-run commands have one
        trace to write."""
        p.add_argument("--trace-out", metavar="FILE.jsonl", default=None,
                       help="write the span trace as JSONL "
                            "(implies --observe)")
        p.add_argument("--metrics-out", metavar="FILE.csv", default=None,
                       help="write the sampled metric series as CSV "
                            "(implies --observe)")

    run_p = sub.add_parser("run", help="run one experiment")
    add_scenario_args(run_p)
    add_output_args(run_p)
    run_p.add_argument("--protocol", choices=arena.available_protocols(),
                       default="byzcast")

    cmp_p = sub.add_parser("compare",
                           help="run every protocol on one scenario")
    add_scenario_args(cmp_p)
    cmp_p.add_argument("--workers", type=_worker_count, default=1,
                       help="worker processes (results identical to "
                            "serial; default 1)")

    sweep_p = sub.add_parser("sweep", help="sweep one parameter")
    add_scenario_args(sweep_p)
    sweep_p.add_argument("--protocol", choices=arena.available_protocols(),
                         default="byzcast")
    sweep_p.add_argument("--param", choices=SWEEP_PARAMS, required=True,
                         help="what to sweep: scenario size/faults, or a "
                              "rival-protocol knob (paths_required, "
                              "suppression, cpa_k)")
    sweep_p.add_argument("--values", required=True,
                         help="comma-separated values, e.g. 20,40,60")
    sweep_p.add_argument("--seeds", default="1,2",
                         help="comma-separated seeds (default 1,2)")
    sweep_p.add_argument("--workers", type=_worker_count, default=1,
                         help="worker processes for the parameter × seed "
                              "grid (results identical to serial; "
                              "default 1)")

    sub.add_parser("experiments",
                   help="list the reconstructed paper experiments")

    fuzz_p = sub.add_parser(
        "fuzz", help="coverage-guided fault-schedule fuzzing")
    fuzz_sub = fuzz_p.add_subparsers(dest="fuzz_command", required=True)

    def add_target_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("--n", type=int, default=10,
                       help="world size of the fuzzed target (default 10)")
        p.add_argument("--seed", type=int, default=3,
                       help="world seed of the fuzzed target (default 3)")
        p.add_argument("--protocol", choices=arena.available_protocols(),
                       default="byzcast")
        p.add_argument("--runner", type=_runner_name, default="experiment",
                       help="experiment runner (default experiment); "
                            "broken_* are planted-bug fixtures for "
                            "validating the loop itself")
        p.add_argument("--delivery-threshold", type=float, default=0.75,
                       help="delivery ratio below which a run counts as "
                            "degraded (default 0.75)")

    fr_p = fuzz_sub.add_parser(
        "run", help="run a fuzzing campaign against one target")
    add_target_args(fr_p)
    fr_p.add_argument("--iterations", type=int, default=200,
                      help="candidate evaluations (default 200)")
    fr_p.add_argument("--batch", type=int, default=8,
                      help="candidates per generation (default 8)")
    fr_p.add_argument("--workers", type=_worker_count, default=1,
                      help="worker processes (results identical to "
                           "serial; default 1)")
    fr_p.add_argument("--fuzz-seed", type=int, default=1,
                      help="mutation-stream seed (default 1)")
    fr_p.add_argument("--corpus", metavar="DIR", default=None,
                      help="write shrunk reproducers into this "
                           "content-addressed corpus directory")
    fr_p.add_argument("--max-events", type=int, default=12,
                      help="schedule size cap (default 12)")
    fr_p.add_argument("--stop-after-failures", type=int, default=None,
                      metavar="K",
                      help="stop once K distinct failure signatures are "
                           "found (default: spend the whole budget)")
    fr_p.add_argument("--report", metavar="FILE.json", default=None,
                      help="write the canonical campaign report as JSON")

    sh_p = fuzz_sub.add_parser(
        "shrink", help="re-shrink a corpus entry to a minimal reproducer")
    sh_p.add_argument("entry", help="corpus entry JSON file")
    sh_p.add_argument("--budget", type=int, default=200,
                      help="predicate-execution cap (default 200)")
    sh_p.add_argument("--out", metavar="DIR", default=None,
                      help="write the re-shrunk entry into this corpus "
                           "directory (default: print only)")

    rp_p = fuzz_sub.add_parser(
        "replay", help="replay corpus reproducers and verify signatures")
    rp_p.add_argument("corpus", help="corpus directory or entry file")

    arena_p = sub.add_parser(
        "arena", help="protocol arena: list/run/compare every registered "
                      "broadcast protocol")
    arena_sub = arena_p.add_subparsers(dest="arena_command", required=True)

    ls_p = arena_sub.add_parser(
        "list", help="show every registered protocol and its stated claims")
    ls_p.add_argument("--n", type=int, default=40,
                      help="world size at which to evaluate each "
                           "protocol's stated mute tolerance (default 40)")

    ar_p = arena_sub.add_parser(
        "run", help="run one registered protocol (same knobs as "
                    "`repro run`)")
    add_scenario_args(ar_p)
    add_output_args(ar_p)
    ar_p.add_argument("--protocol", choices=arena.available_protocols(),
                      required=True)

    ac_p = arena_sub.add_parser(
        "compare", help="run every registered protocol on one scenario")
    add_scenario_args(ac_p)
    ac_p.add_argument("--protocols", default=None,
                      help="comma-separated subset (default: all "
                           "registered)")
    ac_p.add_argument("--workers", type=_worker_count, default=1,
                      help="worker processes (results identical to "
                           "serial; default 1)")

    serve_p = sub.add_parser(
        "serve", help="run the always-on campaign service: persistent "
                      "job queue, resumable workers, HTTP results API "
                      "+ dashboard")
    serve_p.add_argument("--dir", default=".repro-service", metavar="DIR",
                         help="service state directory: jobs/ queue + "
                              "records/ content-addressed store "
                              "(default .repro-service)")
    serve_p.add_argument("--host", default="127.0.0.1")
    serve_p.add_argument("--port", type=int, default=8765,
                         help="listen port; 0 binds an ephemeral port "
                              "and prints it (default 8765)")
    serve_p.add_argument("--workers", type=_worker_count, default=1,
                         help="worker processes per job chunk (records "
                              "identical to serial; default 1)")
    serve_p.add_argument("--checkpoint-every", type=float, default=None,
                         metavar="T",
                         help="snapshot each running config every T "
                              "virtual seconds so a killed worker "
                              "resumes instead of restarting")
    serve_p.add_argument("--verbose", action="store_true",
                         help="log every HTTP request (structured JSONL, "
                              "like all service logs)")

    submit_p = sub.add_parser(
        "submit", help="submit a sweep spec (JSON file) to a running "
                       "campaign service")
    submit_p.add_argument("spec", help="sweep spec JSON file (see "
                                       "docs/SERVICE.md; e.g. "
                                       "examples/sweep_mute_grid.json)")
    submit_p.add_argument("--server", default="http://127.0.0.1:8765",
                          metavar="URL",
                          help="service base URL "
                               "(default http://127.0.0.1:8765)")
    submit_p.add_argument("--wait", action="store_true",
                          help="poll until the job reaches a terminal "
                               "state; exit 0 only on success")
    submit_p.add_argument("--poll", type=float, default=0.5, metavar="T",
                          help="seconds between --wait polls "
                               "(default 0.5)")
    submit_p.add_argument("--json", action="store_true",
                          help="print the final job document as JSON "
                               "instead of a summary line")

    trace_p = sub.add_parser(
        "trace", help="analyze an exported span trace (see --trace-out)")
    trace_sub = trace_p.add_subparsers(dest="trace_command", required=True)

    path_p = trace_sub.add_parser(
        "path", help="causal hop chain of one message")
    path_p.add_argument("msg", help="message id, 'originator:seq'")
    path_p.add_argument("trace", help="span trace JSONL")
    path_p.add_argument("--node", type=int, default=None,
                        help="also print the end-to-end causal chain that "
                             "reached (or stranded) this node")

    lat_p = trace_sub.add_parser(
        "latency", help="delivery-latency distribution + §3.5 bound check")
    lat_p.add_argument("trace", help="span trace JSONL")
    lat_p.add_argument("--bound", type=float, default=None,
                       help="latency bound in seconds "
                            "(default: the trace meta's §3.5 bound)")

    tl_p = trace_sub.add_parser(
        "timeline", help="per-node activity summary")
    tl_p.add_argument("trace", help="span trace JSONL")
    tl_p.add_argument("--node", type=int, default=None,
                      help="print this node's full event list")

    exp_p = trace_sub.add_parser(
        "export", help="convert a trace to another format")
    exp_p.add_argument("trace", help="span trace JSONL")
    exp_p.add_argument("--chrome", required=True, metavar="OUT.json",
                       help="write Chrome trace_event JSON "
                            "(Perfetto / chrome://tracing)")

    val_p = trace_sub.add_parser(
        "validate", help="validate a Chrome trace_event export")
    val_p.add_argument("trace", help="Chrome trace_event JSON file")
    return parser


def _configs_from(args: argparse.Namespace, protocols: Sequence[str], *,
                  param: Optional[str] = None, values: Sequence[int] = (),
                  seeds: Optional[Sequence[int]] = None
                  ) -> List[ExperimentConfig]:
    """The experiments one command line asks for.

    The flat knobs become a :class:`SweepSpec` — the one place they turn
    into configs, so a command line and the equivalent service spec
    share every ``config_key`` — and the single-host knobs a spec does
    not carry (chaos, oracle, profile, the verify and wire caches,
    checkpoints) are set on each expanded config.
    """
    spec = SweepSpec(
        protocols=tuple(protocols), param=param, values=tuple(values),
        seeds=(args.seed,) if seeds is None else tuple(seeds),
        n=args.n, mute=args.mute, tx_range=args.tx_range,
        degree=args.degree, mobility=args.mobility, channel=args.channel,
        messages=args.messages, interval=args.interval,
        warmup=args.warmup, drain=args.drain, rule=args.rule,
        gossip_period=args.gossip_period, scheme=args.scheme,
        tier=args.tier,
        observe=bool(args.observe or getattr(args, "trace_out", None)
                     or getattr(args, "metrics_out", None)),
        paths_required=args.paths_required,
        suppression_threshold=args.suppression_threshold,
        cpa_k=args.cpa_k)
    chaos = FaultSchedule.from_file(args.chaos) if args.chaos else None
    host = dict(
        chaos=chaos, oracle=OracleConfig() if args.oracle or chaos else None,
        profile=args.profile,
        checkpoint=(CheckpointConfig(every=args.checkpoint_every,
                                     directory=args.checkpoint_dir)
                    if args.checkpoint_every is not None else None))
    configs = []
    for config in spec.expand():
        caches = dataclasses.replace(
            config.stack.protocol, verify_cache_size=args.verify_cache,
            wire_cache=not args.no_wire_cache)
        configs.append(dataclasses.replace(
            config, stack=dataclasses.replace(config.stack, protocol=caches),
            **host))
    return configs


def _print_report(result, out, *, oracle: bool = False) -> None:
    print(format_rows([result.row()]), file=out)
    print(f"\nbytes/broadcast:      {result.bytes_per_broadcast:.0f}",
          file=out)
    print(f"DATA tx/broadcast:    "
          f"{result.data_transmissions_per_broadcast:.1f}", file=out)
    if result.overlay_quality is not None:
        q = result.overlay_quality
        print(f"overlay: {q.overlay_size}/{result.n} active, "
              f"coverage {q.coverage:.0%}, connected "
              f"{q.correct_overlay_connected}", file=out)
    print(f"energy (radio): total "
          f"{result.energy.get('tx_joules', 0.0) + result.energy.get('rx_joules', 0.0):.2f} J, "
          f"hottest node {result.energy.get('max_node_joules', 0.0):.2f} J",
          file=out)
    print("\npackets by type:", file=out)
    for key, value in sorted(result.physical.items()):
        if key.startswith("tx_"):
            print(f"  {key[3:]:<14}{value:>8.0f}", file=out)
    if result.profile:
        print("\nper-phase cost profile:", file=out)
        for phase, stats in sorted(result.profile.items()):
            print(f"  {phase:<18}{stats['count']:>10.0f} calls"
                  f"{stats['seconds'] * 1e3:>12.3f} ms", file=out)
    if result.trace is not None:
        trace = result.trace
        spans = {key[len("spans."):]: value
                 for key, value in trace.get("counters", {}).items()
                 if key.startswith("spans.")}
        top = sorted(spans.items(), key=lambda item: (-item[1], item[0]))[:6]
        summary = ", ".join(f"{phase}={count}" for phase, count in top)
        print(f"\nobservability: {trace.get('span_count', 0)} spans "
              f"({trace.get('dropped_spans', 0)} dropped), "
              f"{len(trace.get('series', {}).get('time', ()))} metric "
              f"samples", file=out)
        if summary:
            print(f"  top phases: {summary}", file=out)
    if result.runtime and result.runtime.get("wall_seconds") is not None:
        rt = result.runtime
        line = f"\nruntime: {rt['wall_seconds']:.3f}s wall"
        if rt.get("events"):
            line += f", {rt['events']} kernel events"
            if rt.get("events_per_second"):
                line += f" ({rt['events_per_second']:.0f}/s)"
        if rt.get("peak_rss_kb"):
            line += f", peak RSS {rt['peak_rss_kb'] / 1024:.0f} MB"
        print(line, file=out)
    if result.chaos_events:
        print(f"\nchaos: {result.chaos_events} fault events applied",
              file=out)
    if oracle:
        print(f"invariant violations: {result.invariant_violations}",
              file=out)
        for violation in result.violations[:10]:
            print(f"  t={violation['time']:<10} "
                  f"node={violation['node']:<4} "
                  f"{violation['invariant']} {violation['detail']}",
                  file=out)


def _run_main(args: argparse.Namespace, out) -> int:
    """``repro run`` and ``repro arena run``: one experiment, its report,
    and the optional trace/series files."""
    config, = _configs_from(args, [args.protocol])
    result = run_experiment(config)
    _print_report(result, out, oracle=config.oracle is not None)
    if result.trace is not None and args.trace_out:
        count = write_trace(result.trace, args.trace_out)
        print(f"trace: {count} spans -> {args.trace_out}", file=out)
    if result.trace is not None and args.metrics_out:
        rows = series_to_csv(result.trace.get("series", {}),
                             args.metrics_out)
        print(f"metrics: {rows} samples -> {args.metrics_out}", file=out)
    return 0


def _fuzz_main(args: argparse.Namespace, out) -> int:
    """The ``repro fuzz`` subcommand family (schedule fuzzing)."""
    import json as _json
    import os as _os

    from .fuzz import (FuzzConfig, TargetSpec, fuzz, load_entry, replay,
                       shrink_events, write_entry)
    from .fuzz.corpus import CorpusEntry, corpus_paths

    if args.fuzz_command == "run":
        target = TargetSpec(
            n=args.n, seed=args.seed, protocol=args.protocol,
            runner=args.runner,
            delivery_threshold=args.delivery_threshold)
        config = FuzzConfig(
            target=target, iterations=args.iterations, batch=args.batch,
            workers=args.workers, fuzz_seed=args.fuzz_seed,
            corpus_dir=args.corpus, max_events=args.max_events,
            stop_after_failures=args.stop_after_failures)
        report = fuzz(config,
                      progress=lambda line: print(line, file=out))
        print(f"evaluated {report.evaluated} candidates, "
              f"{report.coverage['keys']} coverage keys, "
              f"{len(report.failures)} distinct failure signatures",
              file=out)
        for failure in report.failures:
            where = failure.get("path", failure["digest"])
            print(f"  {'/'.join(failure['signature'])}: "
                  f"{failure['events']} events, found at iteration "
                  f"{failure['found_iteration']} -> {where}", file=out)
        if args.report:
            with open(args.report, "w") as handle:
                _json.dump(report.to_dict(), handle, sort_keys=True,
                           indent=1)
            print(f"report -> {args.report}", file=out)
        return 0

    if args.fuzz_command == "shrink":
        entry = load_entry(args.entry)
        target = entry.target

        def predicate(schedule):
            result = target.run(schedule)
            return set(entry.signature) <= set(target.signature_of(result))

        shrunk = shrink_events(entry.schedule, predicate,
                               budget=args.budget)
        print(f"{len(entry.schedule.events)} -> "
              f"{len(shrunk.schedule.events)} events "
              f"({shrunk.tests} tests)", file=out)
        for event in shrunk.schedule.events:
            print(f"  t={event.time:<8} node={event.node:<4} "
                  f"{event.action} {dict(event.params)}", file=out)
        if not shrunk.accepted:
            print("entry does not reproduce its signature; left as-is",
                  file=out)
            return 1
        if args.out:
            slim = CorpusEntry(
                target=target, schedule=shrunk.schedule,
                signature=entry.signature,
                found_iteration=entry.found_iteration,
                stats={**dict(entry.stats),
                       "shrunk_events": len(shrunk.schedule.events),
                       "shrink_tests": shrunk.tests})
            print(f"-> {write_entry(slim, args.out)}", file=out)
        return 0

    if args.fuzz_command == "replay":
        paths = ([args.corpus] if _os.path.isfile(args.corpus)
                 else corpus_paths(args.corpus))
        if not paths:
            print(f"no corpus entries under {args.corpus}", file=out)
            return 1
        failures = 0
        for path in paths:
            try:
                entry = load_entry(path)
            except (OSError, ValueError, KeyError, TypeError,
                    AttributeError) as exc:
                failures += 1
                print(f"CORRUPT {_os.path.basename(path)}: {exc}", file=out)
                continue
            verdict = replay(entry)
            status = "ok" if verdict["reproduced"] else "LOST"
            if not verdict["reproduced"]:
                failures += 1
            print(f"{status:<5} {_os.path.basename(path):<22} "
                  f"{'/'.join(entry.signature):<45} "
                  f"delivery={verdict['delivery_ratio']:.3f} "
                  f"violations={verdict['violations']}", file=out)
        print(f"{len(paths) - failures}/{len(paths)} reproduced",
              file=out)
        return 0 if failures == 0 else 1

    raise AssertionError(f"unhandled fuzz command {args.fuzz_command!r}")


def _arena_main(args: argparse.Namespace, out) -> int:
    """The ``repro arena`` subcommand family (protocol registry)."""
    if args.arena_command == "list":
        rows = []
        for spec in arena.protocol_specs():
            rows.append({
                "protocol": spec.name,
                "provenance": spec.provenance,
                f"mute_tol(n={args.n})": spec.mute_tolerance(args.n),
                "overlay": "yes" if spec.overlay else "-",
            })
        print(format_rows(rows), file=out)
        for spec in arena.protocol_specs():
            if spec.description:
                print(f"  {spec.name:<16}{spec.description}", file=out)
        print("\nconformance: every protocol above inherits the "
              "tests/arena/ suite (pytest -m arena)", file=out)
        return 0

    if args.arena_command == "run":
        return _run_main(args, out)

    if args.arena_command == "compare":
        if args.protocols:
            names = [name.strip() for name in args.protocols.split(",")]
            for name in names:
                arena.get_protocol(name)  # fail fast on typos
        else:
            names = arena.available_protocols()
        results = run_many(_configs_from(args, names), workers=args.workers)
        print(format_rows([result.row() for result in results]), file=out)
        return 0

    raise AssertionError(f"unhandled arena command {args.arena_command!r}")


def _make_shutdown_handler(server, out):
    """Signal handler factory for ``repro serve`` (module-level so the
    regression test can simulate a signal without delivering one).

    The handler only asks ``serve_forever`` to return — and it must do so
    from another thread, because ``shutdown()`` blocks until the serve
    loop (the very thread signals are delivered on) acknowledges.  The
    ``finally`` block in :func:`_serve_main` then runs the graceful
    teardown: ``CampaignService.stop()`` requeues the running job at its
    next chunk boundary with progress persisted.
    """
    import signal
    import threading

    def handle(signum, frame):
        name = signal.Signals(signum).name
        print(f"received {name}; shutting down", file=out, flush=True)
        threading.Thread(target=server.shutdown, daemon=True).start()
    return handle


def _serve_main(args: argparse.Namespace, out) -> int:
    """The ``repro serve`` command: boot the campaign service and block."""
    import signal

    from .service import CampaignService, make_server
    from .telemetry.log import configure as configure_logging

    service = CampaignService(args.dir, workers=args.workers,
                              checkpoint_every=args.checkpoint_every)
    server = make_server(service, host=args.host, port=args.port,
                         verbose=args.verbose)
    host, port = server.server_address[:2]
    # First line is machine-readable: scripts (CI smoke) parse the port.
    print(f"listening on http://{host}:{port}", file=out, flush=True)
    print(f"store: {service.store.directory} "
          f"({len(service.store.keys())} records), "
          f"queue: {service.queue.directory}, "
          f"workers: {args.workers}", file=out, flush=True)
    # Uniform JSONL service logs on stderr (after the banner, so the
    # machine-readable first line stays first even under 2>&1).
    configure_logging()
    handler = _make_shutdown_handler(server, out)
    for signum in (signal.SIGTERM, signal.SIGINT):
        signal.signal(signum, handler)
    service.start()
    try:
        server.serve_forever()
    except KeyboardInterrupt:  # pragma: no cover - handler owns SIGINT
        print("shutting down", file=out)
    finally:
        server.shutdown()
        server.server_close()
        service.stop()
    return 0


def _submit_main(args: argparse.Namespace, out) -> int:
    """The ``repro submit`` command: POST a spec, optionally wait."""
    import json as _json
    import time as _time
    import urllib.error
    import urllib.request

    from .service import TERMINAL_STATES, SpecError, SweepSpec

    try:
        spec = SweepSpec.from_file(args.spec)
    except (OSError, SpecError) as exc:
        print(f"bad spec {args.spec}: {exc}", file=out)
        return 1
    base = args.server.rstrip("/")
    request = urllib.request.Request(
        f"{base}/api/jobs",
        data=_json.dumps(spec.to_dict()).encode(),
        headers={"Content-Type": "application/json"})

    def fetch(req):
        with urllib.request.urlopen(req) as response:
            return _json.load(response)

    try:
        job = fetch(request)
    except urllib.error.HTTPError as exc:
        detail = exc.read().decode(errors="replace")
        print(f"submit rejected ({exc.code}): {detail}", file=out)
        return 1
    except urllib.error.URLError as exc:
        print(f"cannot reach {base}: {exc.reason}", file=out)
        return 1
    if args.wait:
        while job["state"] not in TERMINAL_STATES:
            _time.sleep(args.poll)
            job = fetch(f"{base}/api/jobs/{job['id']}")
    if args.json:
        print(_json.dumps(job, indent=1, sort_keys=True), file=out)
    else:
        line = (f"{job['id']} {job['state']}: {job['total']} configs, "
                f"{job['cache_hits']} cache hits, "
                f"{job['executed']} executed")
        if job.get("error"):
            line += f" — {job['error']}"
        print(line, file=out)
    if args.wait:
        return 0 if job["state"] == "done" else 1
    return 0


def _trace_main(args: argparse.Namespace, out) -> int:
    """The ``repro trace`` subcommand family (span-trace analysis)."""
    if args.trace_command == "validate":
        problems = validate_chrome(args.trace)
        if problems:
            for problem in problems:
                print(problem, file=out)
            return 1
        print(f"{args.trace}: valid trace_event document", file=out)
        return 0

    meta, spans = load_trace(args.trace)

    if args.trace_command == "export":
        count = write_chrome(spans, args.chrome, meta=meta)
        print(f"{count} events -> {args.chrome}", file=out)
        return 0

    if args.trace_command == "path":
        story = trace_path(spans, args.msg)
        origin = story["origin"]
        if origin is None:
            print(f"{story['msg']}: no origin span in this trace", file=out)
        else:
            print(f"{story['msg']}: originated by node {origin['node']} "
                  f"at t={origin['time']:.6f}", file=out)
        for hop in story["deliveries"]:
            sender = (f"from {hop['sender']}" if hop["sender"] is not None
                      else "")
            print(f"  deliver -> node {hop['node']:<4} "
                  f"t={hop['time']:<12.6f} depth={hop['depth']} {sender} "
                  f"[{hop['span']}]", file=out)
        outcomes: dict = {}
        for entry in story["nodes"].values():
            outcomes[entry["outcome"]] = outcomes.get(entry["outcome"], 0) + 1
        print("  outcomes: " + ", ".join(
            f"{name}={count}" for name, count in sorted(outcomes.items())),
            file=out)
        for purge in story["purges"]:
            print(f"  purge at node {purge['node']} t={purge['time']:.6f} "
                  f"reason={purge.get('reason')} [{purge.get('span')}]",
                  file=out)
        if not story["deliveries"]:
            print("  never delivered; evidence:", file=out)
            for span in story["events"]:
                detail = {k: v for k, v in span.items()
                          if k not in ("seq", "span", "time", "phase",
                                       "node", "msg", "duration")}
                print(f"    t={span['time']:<12.6f} node={span['node']:<4} "
                      f"{span['phase']:<12} {detail} [{span.get('span')}]",
                      file=out)
        if args.node is not None:
            print(f"  causal chain to node {args.node}:", file=out)
            for span in causal_chain(spans, args.msg, args.node):
                print(f"    t={span['time']:<12.6f} node={span['node']:<4} "
                      f"{span['phase']} [{span.get('span')}]", file=out)
        return 0

    if args.trace_command == "latency":
        bound = args.bound
        if bound is None:
            bound = (meta.get("meta") or {}).get("latency_bound")
        report = latency_report(spans, bound=bound)
        print(f"{report['count']} deliveries of {report['messages']} "
              f"messages: mean {report['mean']:.4f}s, "
              f"min {report['min']:.4f}s, max {report['max']:.4f}s",
              file=out)
        for upper, count in report["buckets"]:
            label = f"<= {upper}s" if upper is not None else f"> {report['buckets'][-2][0]}s"
            if count:
                print(f"  {label:<10}{count:>6}", file=out)
        if bound is not None:
            print(f"§3.5 bound {bound:.4f}s: "
                  f"{len(report['violations'])} violations", file=out)
            for row in report["violations"][:20]:
                print(f"  {row['msg']} -> node {row['node']} "
                      f"latency={row['latency']:.4f}s [{row['span']}]",
                      file=out)
        return 0

    if args.trace_command == "timeline":
        view = timeline(spans, node=args.node)
        for node, entry in sorted(view["nodes"].items()):
            phases = ", ".join(f"{name}={count}" for name, count
                               in sorted(entry["phases"].items()))
            print(f"node {node:<4} {entry['count']:>6} spans "
                  f"t=[{entry['first']:.3f}, {entry['last']:.3f}]  {phases}",
                  file=out)
        for span in view.get("events", ()):
            detail = {k: v for k, v in span.items()
                      if k not in ("seq", "span", "time", "phase", "node",
                                   "msg", "duration")}
            print(f"  t={span['time']:<12.6f} {span['phase']:<12} "
                  f"msg={span.get('msg')} {detail}", file=out)
        return 0

    raise AssertionError(f"unhandled trace command {args.trace_command!r}")


def main(argv: Optional[Sequence[str]] = None, out=None) -> int:
    out = out or sys.stdout
    args = build_parser().parse_args(argv)

    if args.command == "experiments":
        rows = [{"id": eid, "what": what, "bench": f"benchmarks/{bench}"}
                for eid, what, bench in _EXPERIMENTS]
        print(format_rows(rows), file=out)
        print("\nrun one with: pytest benchmarks/<bench> "
              "--benchmark-only -s", file=out)
        return 0

    if args.command == "arena":
        return _arena_main(args, out)

    if args.command == "serve":
        return _serve_main(args, out)

    if args.command == "submit":
        return _submit_main(args, out)

    if args.command == "trace":
        return _trace_main(args, out)

    if args.command == "fuzz":
        return _fuzz_main(args, out)

    if args.command == "run":
        return _run_main(args, out)

    if args.command == "compare":
        results = run_many(_configs_from(args, PROTOCOLS),
                           workers=args.workers)
        print(format_rows([result.row() for result in results]), file=out)
        return 0

    if args.command == "sweep":
        values = [int(v) for v in args.values.split(",")]
        seeds = [int(s) for s in args.seeds.split(",")]
        configs = _configs_from(args, [args.protocol], param=args.param,
                                values=values, seeds=seeds)
        results = run_many(configs, workers=args.workers)
        group = len(seeds)
        rows = [{args.param: value,
                 **average_results(
                     results[i * group:(i + 1) * group]).row()}
                for i, value in enumerate(values)]
        print(format_rows(rows), file=out)
        return 0

    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
