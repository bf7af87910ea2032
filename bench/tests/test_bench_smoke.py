"""Smoke test of the benchmark itself (not in tier-1 ``testpaths``).

    python -m pytest bench/tests -q

Runs ``python -m bench run --passes 1 --traced`` once over every workload
(about three minutes) and checks its output against ``BENCHMARK.json``;
the tracer and ``compare`` are checked on their own, without a run.
"""

import copy
import json
import os
import re
import subprocess
import sys
import time

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]

from bench import compare, metrics, trace  # noqa: E402
from bench.cli import workloads  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


@pytest.fixture(scope="module")
def contract():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def run_set(tmp_path_factory):
    out = tmp_path_factory.mktemp("bench") / "run.json"
    done = subprocess.run(
        [sys.executable, "-m", "bench", "run", "--passes", "1", "--traced",
         "--out", str(out)],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True)
    assert done.returncode == 0, done.stdout
    with open(out) as handle:
        return json.load(handle), done.stdout


# ----------------------------------------------------------------------
def test_contract_matches_the_tables(contract):
    assert set(contract) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert [(w["name"], w["why"]) for w in contract["workloads"]] == [
        (w.name, w.why) for w in workloads().values()]
    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in contract["end_to_end"]] == [
        tuple(spec) for spec in metrics.END_TO_END]
    assert [(m["name"], m["unit"]) for m in contract["per_layer"]] == [
        (name, metrics.unit_of(name)) for name in metrics.PER_LAYER]


def test_contract_limits(contract):
    assert 2 <= len(contract["workloads"]) <= 8
    assert 1 <= len(contract["end_to_end"]) <= 16
    assert 1 <= len(contract["per_layer"]) <= 128
    names = [entry["name"] for section in ("workloads", "end_to_end",
                                           "per_layer")
             for entry in contract[section]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in contract["workloads"])
    assert all(0 < m["bound"] <= 0.25 for m in contract["end_to_end"])
    setup = [m for m in contract["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"]
                                    for m in contract["end_to_end"])
    assert 1 <= contract["run_seconds"] <= 60


def test_every_metric_is_printed_with_its_unit(contract, run_set):
    data, printed = run_set
    for workload in contract["workloads"]:
        entry = data["workloads"][workload["name"]]
        for section, key in (("end_to_end", "end_to_end"),
                             ("per_layer", "per_layer")):
            assert entry[key]["failed"] == 0, entry[key]["failures"]
            assert set(entry[key]["metrics"]) == {
                m["name"] for m in contract[section]}
    for section in ("end_to_end", "per_layer"):
        for metric in contract[section]:
            line = re.compile(r"^\s+" + re.escape(metric["name"])
                              + r"\s+\S+ " + re.escape(metric["unit"])
                              + r"(\s|$)", re.M)
            assert len(line.findall(printed)) == len(contract["workloads"]), \
                metric["name"]
    for workload in data["workloads"].values():
        assert all(value > 0
                   for value in workload["end_to_end"]["metrics"].values())


def test_traffic_is_what_the_workloads_claim(run_set):
    data, _ = run_set
    layer = {name: entry["per_layer"]["metrics"]
             for name, entry in data["workloads"].items()}
    sparse, dense, byz = (layer["flood_sparse"], layer["flood_dense"],
                          layer["byzcast_mute"])
    assert sparse["mobility.placement_s"] >= \
        0.5 * sparse["sim.experiment.build_world_s"]
    for quiet in (byz, dense):
        assert quiet["mobility.placement_s"] <= 0.05 * (
            quiet["sim.experiment.build_world_s"]
            + quiet["sim.experiment.finish_world_s"])
    assert dense["radio.medium.collisions"] >= \
        10 * sparse["radio.medium.collisions"]
    for name, values in layer.items():
        handled = values["core.protocol.handle_packets"]
        assert (handled > 0) == (name in ("byzcast_mute", "svc_sweep",
                                          "svc_resubmit", "svc_record_get"))
    for name in ("flood_sparse", "flood_dense", "byzcast_mute"):
        entry = data["workloads"][name]
        assert entry["per_layer"]["sim_digest"] == \
            entry["end_to_end"]["sim_digest"]


def _slowed(data, factor):
    slow = copy.deepcopy(data)
    entry = slow["workloads"]["flood_dense"]["end_to_end"]
    entry["metrics"]["run_wall_s"] *= factor
    entry["samples"]["run_wall_s"] = [
        value * factor for value in entry["samples"]["run_wall_s"]]
    return slow


def test_compare_flags_a_slowdown_beyond_the_bound(run_set):
    data, _ = run_set
    bound = {spec.name: spec.bound
             for spec in metrics.END_TO_END}["run_wall_s"]
    for other, worse in ((data, []),
                         (_slowed(data, 1 + bound - 0.05), []),
                         (_slowed(data, 1 + bound + 0.05),
                          [("flood_dense", "run_wall_s")])):
        assert [(row["workload"], row["metric"])
                for row in compare.compare_sets(data, other)
                if row["verdict"] != "ok"] == worse


# ----------------------------------------------------------------------
def test_compare_calls_a_noisy_overlap_unresolved():
    spec = metrics.EndToEnd("run_wall_s", "s", "lower", 0.10)
    assert compare.verdict(spec, (0.99, 1.0, 1.01), (1.04, 1.05, 1.06)) == "ok"
    assert compare.verdict(spec, (0.99, 1.0, 1.01),
                           (1.19, 1.2, 1.21)) == "worse"
    assert compare.verdict(spec, (0.8, 1.0, 1.3),
                           (1.1, 1.2, 1.5)) == "unresolved"
    faster = metrics.EndToEnd("work_per_s", "1/s", "higher", 0.10)
    assert compare.verdict(faster, (99, 100, 101), (79, 80, 81)) == "worse"
    assert compare.verdict(faster, (99, 100, 101), (119, 120, 121)) == "ok"


def test_self_time_and_retro_adoption():
    tracer = trace.Tracer()
    with tracer.span("outer"):
        with tracer.span("child"):
            time.sleep(0.02)
        began = time.perf_counter()
        with tracer.span("late"):
            time.sleep(0.01)
        time.sleep(0.005)
        # a phase timer that covered "late" but not "child"
        tracer.retro(tracer.name_id("phase"), time.perf_counter() - began)
    totals = tracer.totals()
    assert {n: t.count for n, t in totals.items()} == {
        "outer": 1, "child": 1, "late": 1, "phase": 1}
    assert totals["phase"].seconds >= 0.015
    assert totals["phase"].self_seconds == pytest.approx(
        totals["phase"].seconds - totals["late"].seconds)
    assert totals["outer"].self_seconds == pytest.approx(
        totals["outer"].seconds - totals["child"].seconds
        - totals["phase"].seconds)
    problems = __import__("repro.obs", fromlist=["validate_chrome"]) \
        .validate_chrome(tracer.chrome("test"))
    assert problems == []


def test_a_missing_wrap_target_fails_loudly():
    before = trace.profiling.Profiler
    with pytest.raises(trace.WrapTargetError, match="no_such_method"):
        with trace.install(trace.Tracer(), (
                ("repro.des.kernel", "Simulator.run", "des.kernel.run"),
                ("repro.radio.mac", "CsmaMac.no_such_method", "x"))):
            pass
    from repro.des.kernel import Simulator
    assert not hasattr(Simulator.run, "__wrapped__")
    assert trace.profiling.Profiler is before


def test_the_contract_command_needs_the_program(tmp_path):
    """In a directory holding only BENCHMARK.json and bench/ the command
    fails and prints no result line."""
    import shutil
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "bench"), tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".work"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "byzcast_mute",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
