"""Checkpoint/resume equivalence suite.

The contract under test (see :mod:`repro.sim.checkpoint`): a run that is
snapshotted — and a run resumed from any such snapshot — produces a final
campaign record byte-identical to an uninterrupted run's, modulo the
record's config block (which carries the checkpoint settings themselves).
Covered here across both medium implementations, with and without a
chaos schedule, at arbitrary interruption points, serially and across a
worker pool, plus the failure paths: stale format versions, corrupt
files, and a SIGTERM-killed campaign worker picked up by the next run.
"""

import json
import os
import pickle
import signal
import subprocess
import sys
import time
import types
from dataclasses import replace

import pytest

from repro.chaos import FaultEvent, FaultSchedule, OracleConfig
from repro.sim import (
    Campaign,
    CheckpointConfig,
    CheckpointError,
    ExperimentConfig,
    build_world,
    config_key,
    finish_world,
    latest_checkpoint,
    load_checkpoint,
    resume_experiment,
    run_experiment,
    result_to_record,
    write_checkpoint,
)
from repro.sim.checkpoint import (
    CHECKPOINT_VERSION,
    checkpoint_path,
    describe_checkpoint,
)
from repro.sim.experiment import MEDIA
from repro.workloads.scenarios import AdversaryMix, ScenarioConfig

pytestmark = pytest.mark.checkpoint


class V6Recorder:
    """Stands in for the tap recorder a version-6 observed world
    carried: picklable, holding the world's clock and its own events."""

    def __init__(self, sim):
        self.sim = sim
        self.events = []


REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: A short fault timeline exercising mid-run behaviour swaps around the
#: resume points used below.
SCHEDULE = FaultSchedule(events=(
    FaultEvent(time=1.0, node=3, action="mute"),
    FaultEvent(time=2.5, node=5, action="deaf"),
    FaultEvent(time=4.0, node=3, action="recover"),
))


def base_config(seed=3, chaos=None):
    return ExperimentConfig(
        scenario=ScenarioConfig(n=8, seed=seed,
                                adversaries=AdversaryMix.mute(1)),
        chaos=chaos, oracle=OracleConfig(),
        warmup=3.0, message_count=2, message_interval=1.5, drain=5.0)


def canonical(config, result):
    """The record a campaign would persist, minus the config block —
    the acceptance criterion's "byte-identical modulo config block" —
    and minus the wall-clock ``runtime`` block (host timing is never
    part of the determinism contract)."""
    record = result_to_record(config, result)
    record.pop("config")
    record.pop("runtime", None)
    return json.dumps(record, sort_keys=True)


def interrupt(config, at, directory):
    """Run a checkpointed config partway and abandon it — the simulated
    kill.  Returns the snapshot path."""
    world = build_world(config)
    world.sim.run(until=at)
    return write_checkpoint(world, config_key(config), directory)


# ----------------------------------------------------------------------
# Core equivalence
# ----------------------------------------------------------------------
def test_checkpoint_setting_does_not_change_config_key(tmp_path):
    config = base_config()
    ck = replace(config, checkpoint=CheckpointConfig(
        every=1.0, directory=str(tmp_path)))
    assert config_key(ck) == config_key(config)


def test_uninterrupted_checkpointed_run_matches_plain(tmp_path):
    config = base_config()
    ck = replace(config, checkpoint=CheckpointConfig(
        every=1.5, directory=str(tmp_path)))
    baseline = canonical(config, run_experiment(config))
    assert canonical(ck, run_experiment(ck)) == baseline
    # Completed runs leave no snapshot behind.
    assert latest_checkpoint(str(tmp_path), config_key(ck)) is None


# Interruption instants spanning the run: end of warmup, mid-workload,
# and deep into the drain (the horizon here is 9.5).
@pytest.mark.parametrize("at", [3.0, 4.7, 6.25, 9.4])
def test_resume_from_arbitrary_midpoint(tmp_path, at):
    config = base_config()
    ck = replace(config, checkpoint=CheckpointConfig(
        every=2.0, directory=str(tmp_path)))
    baseline = canonical(config, run_experiment(config))
    interrupt(ck, at, str(tmp_path))
    # run_experiment auto-resumes from the leftover snapshot.
    assert canonical(ck, run_experiment(ck)) == baseline
    assert latest_checkpoint(str(tmp_path), config_key(ck)) is None


def test_resume_experiment_entry_point(tmp_path):
    config = base_config(seed=11)
    ck = replace(config, checkpoint=CheckpointConfig(
        every=1.0, directory=str(tmp_path)))
    baseline = canonical(config, run_experiment(config))
    path = interrupt(ck, 5.5, str(tmp_path))
    assert canonical(ck, resume_experiment(path)) == baseline


def test_resume_with_chaos_schedule(tmp_path):
    config = base_config(seed=5, chaos=SCHEDULE)
    ck = replace(config, checkpoint=CheckpointConfig(
        every=1.0, directory=str(tmp_path)))
    baseline_result = run_experiment(config)
    baseline = canonical(config, baseline_result)
    # Interrupt mid-timeline (between the deaf and recover faults).
    interrupt(ck, 6.0, str(tmp_path))
    resumed = run_experiment(ck)
    assert canonical(ck, resumed) == baseline
    assert resumed.chaos_events == baseline_result.chaos_events
    assert resumed.invariant_violations == 0


def test_resume_equivalence_on_both_media(tmp_path):
    outcomes = {}
    for medium in MEDIA:
        config = replace(base_config(seed=7), medium=medium)
        ck = replace(config, checkpoint=CheckpointConfig(
            every=2.5, directory=str(tmp_path)))
        baseline = canonical(config, run_experiment(config))
        interrupt(ck, 7.3, str(tmp_path))
        resumed = canonical(ck, run_experiment(ck))
        assert resumed == baseline
        outcomes[medium] = resumed
    # The two media also agree with each other.
    assert len(set(outcomes.values())) == 1


# ----------------------------------------------------------------------
# Campaign integration (workers=1 and workers=4)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("workers", [1, 4])
def test_campaign_resumes_interrupted_worker(tmp_path, workers):
    configs = [base_config(seed=s) for s in (1, 2, 3, 4)]

    baseline = Campaign(str(tmp_path / "baseline"))
    baseline.run(configs)

    resumed = Campaign(str(tmp_path / "resumed"))
    ckpt_dir = os.path.join(resumed.directory, "checkpoints")
    # Simulate a worker killed mid-run on the first configuration: its
    # snapshot is sitting in the campaign's checkpoint directory.
    victim = replace(configs[0], checkpoint=CheckpointConfig(
        every=1.0, directory=ckpt_dir))
    interrupt(victim, 5.0, ckpt_dir)
    executed, skipped = resumed.run(configs, checkpoint_every=1.0,
                                    workers=workers)
    assert (executed, skipped) == (4, 0)

    base_records = {r["key"]: r for r in baseline.records()}
    for record in resumed.records():
        expected = dict(base_records[record["key"]])
        got = dict(record)
        expected.pop("config")
        got.pop("config")
        expected.pop("runtime", None)
        got.pop("runtime", None)
        assert got == expected
    # All snapshots cleaned up after their runs completed.
    assert not [name for name in os.listdir(ckpt_dir)
                if name.endswith(".ckpt")]


def test_campaign_skip_semantics_unchanged(tmp_path):
    config = base_config()
    campaign = Campaign(str(tmp_path))
    campaign.run([config], checkpoint_every=1.0)
    # The record key ignores checkpoint settings, so a plain re-run of
    # the same configuration is recognised as done.
    executed, skipped = campaign.run([config])
    assert (executed, skipped) == (0, 1)


# ----------------------------------------------------------------------
# Snapshot file format and failure paths
# ----------------------------------------------------------------------
def test_snapshot_manifest(tmp_path):
    config = base_config()
    ck = replace(config, checkpoint=CheckpointConfig(
        every=1.0, directory=str(tmp_path)))
    path = interrupt(ck, 5.0, str(tmp_path))
    manifest = describe_checkpoint(path)
    assert manifest["version"] == CHECKPOINT_VERSION
    assert manifest["key"] == config_key(ck)
    assert manifest["sim_time"] == 5.0
    assert manifest["events_fired"] > 0
    assert "medium" in manifest["stream_names"]


def test_version_mismatch_is_refused_and_run_restarts(tmp_path):
    config = base_config()
    ck = replace(config, checkpoint=CheckpointConfig(
        every=1.0, directory=str(tmp_path)))
    baseline = canonical(config, run_experiment(config))
    path = interrupt(ck, 5.0, str(tmp_path))
    with open(path, "rb") as handle:
        payload = pickle.load(handle)
    payload["version"] = CHECKPOINT_VERSION + 1
    with open(path, "wb") as handle:
        pickle.dump(payload, handle)
    with pytest.raises(CheckpointError):
        load_checkpoint(path)
    # run_experiment treats the stale snapshot as absent and still
    # produces the right answer from a fresh start.
    assert canonical(ck, run_experiment(ck)) == baseline


def test_snapshot_of_removed_class_is_refused_and_run_restarts(
        tmp_path, monkeypatch):
    """A snapshot written before a module was deleted may pickle one of
    its classes — ``repro.radio.grid``'s index (format 3), a
    ``repro.baselines`` node (format 5; the classes now live in
    ``repro.arena``, with no alias left behind).  The old version number
    and the failed import must both read as "no usable checkpoint",
    never a crash."""
    config = base_config()
    ck = replace(config, checkpoint=CheckpointConfig(
        every=1.0, directory=str(tmp_path)))
    baseline = canonical(config, run_experiment(config))

    for module, name, version, missing in (
            ("repro.radio.grid", "Index", 3, "repro.radio.grid"),
            ("repro.baselines.flooding", "FloodingNode", 5,
             "repro.baselines")):
        assert version < CHECKPOINT_VERSION
        gone = types.ModuleType(module)
        setattr(gone, name, type(name, (), {"__module__": module}))
        path = checkpoint_path(str(tmp_path), config_key(ck))
        with monkeypatch.context() as patch:
            patch.setitem(sys.modules, module, gone)
            with open(path, "wb") as handle:
                pickle.dump({"version": version, "key": config_key(ck),
                             "world": getattr(gone, name)()}, handle)

        with pytest.raises(CheckpointError, match=missing):
            load_checkpoint(path)
        assert canonical(ck, run_experiment(ck)) == baseline
        assert latest_checkpoint(str(tmp_path), config_key(ck)) is None


def test_v4_observed_snapshot_is_refused_and_run_restarts(
        tmp_path, monkeypatch):
    """A version-4 observed snapshot pickles ``Span`` as a dataclass with
    dict state and a recorder holding an eager ``events`` list.  Neither
    shape loads into the slotted classes; there is no second format in
    ``__setstate__`` — the snapshot reads as "no usable checkpoint".

    A version-6 observed world is refused the same way: its spans pickle
    a ninth slot (``stream_seq``) and it carries the recorder they fed.
    Even stamped with the current version number that shape does not
    load."""
    import dataclasses
    from repro.obs import ObsConfig
    from repro.obs import context as obs_context
    from repro.sim.experiment import _instruments

    config = replace(base_config(), observe=ObsConfig())
    ck = replace(config, checkpoint=CheckpointConfig(
        every=1.0, directory=str(tmp_path)))
    baseline = canonical(config, run_experiment(config))

    @dataclasses.dataclass(frozen=True)
    class Span:
        seq: int
        span_id: str
        time: float
        phase: str
        node: int
        msg: tuple = None
        duration: float = 0.0
        detail: dict = dataclasses.field(default_factory=dict)

    Span.__module__, Span.__qualname__ = obs_context.__name__, "Span"
    legacy = Span(1, "0:1/2/1", 4.0, "rx", 2, (0, 1), 0.0, {"sender": 0})
    path = checkpoint_path(str(tmp_path), config_key(ck))
    with monkeypatch.context() as patch:
        patch.setattr(obs_context, "Span", Span)
        with open(path, "wb") as handle:
            pickle.dump({"version": 4, "key": config_key(ck),
                         "world": {"spans": [legacy], "events": []}}, handle)

    with pytest.raises(CheckpointError):
        load_checkpoint(path)
    assert CHECKPOINT_VERSION > 4
    # The observed run starts over and still gets the right answer.
    assert canonical(ck, run_experiment(ck)) == baseline
    assert latest_checkpoint(str(tmp_path), config_key(ck)) is None

    assert CHECKPOINT_VERSION > 6
    for version in (6, CHECKPOINT_VERSION):
        world = build_world(ck)
        with _instruments(world.profiler, world.obs):
            world.sim.run(until=5.0)
        world.recorder = V6Recorder(world.sim)
        with monkeypatch.context() as patch:
            patch.setattr(obs_context.Span, "__getstate__",
                          lambda span: span._value() + (0,))
            with open(path, "wb") as handle:
                pickle.dump({"version": version, "key": config_key(ck),
                             "world": world}, handle)
        with pytest.raises(CheckpointError):
            load_checkpoint(path)
        assert canonical(ck, run_experiment(ck)) == baseline
        assert latest_checkpoint(str(tmp_path), config_key(ck)) is None


def test_corrupt_snapshot_falls_back_to_fresh_run(tmp_path):
    config = base_config()
    ck = replace(config, checkpoint=CheckpointConfig(
        every=1.0, directory=str(tmp_path)))
    baseline = canonical(config, run_experiment(config))
    path = checkpoint_path(str(tmp_path), config_key(ck))
    os.makedirs(str(tmp_path), exist_ok=True)
    with open(path, "wb") as handle:
        handle.write(b"not a pickle")
    with pytest.raises(CheckpointError):
        load_checkpoint(path)
    assert canonical(ck, run_experiment(ck)) == baseline


def test_wrong_config_snapshot_is_refused(tmp_path):
    config = base_config(seed=21)
    other = base_config(seed=22)
    ck = replace(config, checkpoint=CheckpointConfig(
        every=1.0, directory=str(tmp_path)))
    path = interrupt(ck, 5.0, str(tmp_path))
    with pytest.raises(CheckpointError):
        load_checkpoint(path, expect_key=config_key(other))


# ----------------------------------------------------------------------
# Instruments ride inside the world: profiler and trace across a resume
# ----------------------------------------------------------------------
def interrupt_instrumented(config, at, directory):
    """Like :func:`interrupt`, but with the world's own instruments
    (profiler/observability) active during the slice — faithful to a real
    kill, which lands inside the instrumented ``finish_world`` loop."""
    from repro.sim.experiment import _instruments

    world = build_world(config)
    with _instruments(world.profiler, world.obs):
        world.sim.run(until=at)
    return write_checkpoint(world, config_key(config), directory)


def test_profiler_counts_survive_resume(tmp_path):
    """Regression: the profiler rides in the world, so a resumed run's
    phase *counts* match an uninterrupted run exactly (seconds are host
    wall-clock and excluded).  The wire cache is a process-global memo —
    its hit/miss split depends on what ran earlier in this process — so
    it is disabled for the comparison, as in the determinism suite."""
    from repro.core.config import ProtocolConfig
    from repro.core.node import NodeStackConfig

    config = replace(base_config(seed=9), profile=True,
                     stack=NodeStackConfig(
                         protocol=ProtocolConfig(wire_cache=False)))
    baseline = run_experiment(config).profile
    assert baseline, "profiled run must produce a profile"

    ck = replace(config, checkpoint=CheckpointConfig(
        every=1.0, directory=str(tmp_path)))
    interrupt_instrumented(ck, 5.0, str(tmp_path))
    resumed = run_experiment(ck).profile
    assert {phase: stats["count"] for phase, stats in resumed.items()} == \
        {phase: stats["count"] for phase, stats in baseline.items()}


def test_observed_trace_survives_resume_byte_identical(tmp_path):
    """The observability payload — span stream, metric series, counters,
    meta — of a resumed run is byte-identical to an uninterrupted run's
    (span ids come from occurrence counters that checkpoint with the
    world, not from anything wall-clock)."""
    from repro.obs import ObsConfig

    config = replace(base_config(seed=13), observe=ObsConfig())
    baseline = run_experiment(config)
    assert baseline.trace is not None

    ck = replace(config, checkpoint=CheckpointConfig(
        every=1.0, directory=str(tmp_path)))
    interrupt_instrumented(ck, 6.0, str(tmp_path))
    resumed = run_experiment(ck)
    assert json.dumps(resumed.trace, sort_keys=True) == \
        json.dumps(baseline.trace, sort_keys=True)
    # And the full campaign record (metrics block included) matches.
    assert canonical(ck, resumed) == canonical(config, baseline)


def test_observe_setting_does_not_change_config_key(tmp_path):
    from repro.obs import ObsConfig

    config = base_config()
    assert config_key(replace(config, observe=ObsConfig())) == \
        config_key(config)


def test_snapshot_of_other_observe_setting_is_discarded(tmp_path):
    """The key leaves ``observe`` out, so an unobserved snapshot sits
    where an observed re-run of the same config looks.  It must not
    resume (the run would export no spans): the re-run starts fresh and
    returns the trace an uninterrupted observed run returns."""
    from repro.obs import ObsConfig

    config = base_config()
    ck = replace(config, checkpoint=CheckpointConfig(
        every=1.0, directory=str(tmp_path)))
    interrupt(ck, 5.0, str(tmp_path))
    resumed = run_experiment(replace(ck, observe=ObsConfig()))
    baseline = run_experiment(replace(config, observe=ObsConfig()))
    assert resumed.trace is not None
    assert json.dumps(resumed.trace, sort_keys=True) == \
        json.dumps(baseline.trace, sort_keys=True)
    assert latest_checkpoint(str(tmp_path), config_key(ck)) is None


# ----------------------------------------------------------------------
# Real kill: SIGTERM a campaign worker, resume, compare
# ----------------------------------------------------------------------
def _kill_config():
    """The configuration the subprocess kill test runs (importable from
    the child process, which must build the identical config)."""
    return base_config(seed=17)


_CHILD_SCRIPT = """
import sys, time
from repro.des import kernel

_orig_step = kernel.Simulator.step
def _slow_step(self):
    time.sleep(0.002)   # wall-clock drag only: no RNG, no virtual time
    return _orig_step(self)
kernel.Simulator.step = _slow_step

from repro.sim import Campaign
from tests.test_checkpoint_resume import _kill_config

Campaign(sys.argv[1]).run([_kill_config()], checkpoint_every=1.0)
"""


def test_sigterm_killed_worker_resumes_identically(tmp_path):
    """The CI scenario: a campaign worker dies to SIGTERM mid-run; the
    next campaign invocation resumes from its snapshot and the final
    record matches an uninterrupted baseline byte for byte (modulo the
    config block)."""
    config = _kill_config()
    campaign_dir = str(tmp_path / "campaign")
    ckpt = checkpoint_path(os.path.join(campaign_dir, "checkpoints"),
                           config_key(config))

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(REPO_ROOT, "src"), REPO_ROOT]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    child = subprocess.Popen(
        [sys.executable, "-c", _CHILD_SCRIPT, campaign_dir],
        cwd=REPO_ROOT, env=env,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        deadline = time.monotonic() + 120.0
        while not os.path.exists(ckpt):
            if child.poll() is not None:
                out, err = child.communicate()
                raise AssertionError(
                    "worker finished before writing a checkpoint "
                    f"(slow-step drag too small?)\nstdout: {out!r}\n"
                    f"stderr: {err!r}")
            assert time.monotonic() < deadline, \
                "no checkpoint appeared within the deadline"
            time.sleep(0.02)
        child.send_signal(signal.SIGTERM)
        child.wait(timeout=30.0)
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()

    campaign = Campaign(campaign_dir)
    assert os.path.exists(ckpt), "kill left no snapshot to resume from"
    assert not campaign.records(), "killed worker must not have a record"

    # Resume (in-process, full speed) and compare to an uninterrupted run.
    executed, skipped = campaign.run([config], checkpoint_every=1.0)
    assert (executed, skipped) == (1, 0)

    baseline = result_to_record(config, run_experiment(config))
    baseline.pop("config")
    baseline.pop("runtime", None)
    (record,) = campaign.records()
    record.pop("config")
    record.pop("runtime", None)
    assert record == baseline
    assert not os.path.exists(ckpt)   # consumed on completion
