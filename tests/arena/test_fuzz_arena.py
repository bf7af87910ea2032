"""Fuzzing loop integration: the arena protocols as fuzz targets.

Three contracts:

* A :class:`repro.fuzz.TargetSpec` accepts any registered protocol and a
  fault-free run of it is *healthy* (empty failure signature) — a rival
  whose baseline run already trips the signature would poison every
  fuzzing campaign pointed at it.
* The planted positive controls stay discoverable under every
  protocol: ``broken_forge``'s sabotage patches
  :class:`repro.core.shell.NodeShell`, the one lifecycle every node
  inherits, so the same crash→restart core must light up
  ``forged_payload`` whichever protocol the fuzzer happens to be driving.
* The committed corpus reproducers replay cleanly when re-targeted at
  the rivals — node-level planted bugs are protocol-independent (the
  ``broken_purge`` entry is the documented exception: it sabotages the
  paper stack's MessageStore, which the rivals do not have).
"""

import os

import pytest

import repro.arena as arena
from repro.chaos import FaultEvent, FaultSchedule
from repro.fuzz import TargetSpec, load_corpus, replay

pytestmark = [pytest.mark.arena, pytest.mark.fuzz]

CORPUS_DIR = os.path.join(os.path.dirname(os.path.dirname(
    os.path.dirname(os.path.abspath(__file__)))), "corpus")

#: The minimal reproducer core every planted bug is gated behind.
CRASH_RESTART = FaultSchedule(events=(
    FaultEvent(time=0.5, node=9, action="crash"),
    FaultEvent(time=1.5, node=9, action="restart"),
))


@pytest.fixture(params=arena.available_protocols())
def any_protocol(request):
    return request.param


def test_target_spec_accepts_protocol_and_baseline_is_healthy(any_protocol):
    target = TargetSpec(protocol=any_protocol)
    result = target.run()
    assert target.signature_of(result) == ()
    assert result.delivery_ratio == 1.0


def test_planted_forge_found_under_rivals(any_protocol):
    target = TargetSpec(protocol=any_protocol, runner="broken_forge")
    signature = target.signature_of(target.run(CRASH_RESTART))
    assert "forged_payload" in signature


def test_planted_bug_stays_gated_without_restart(any_protocol):
    """Crash alone must not arm the sabotage — the minimal reproducer is
    genuinely the crash→restart pair, under every protocol."""
    target = TargetSpec(protocol=any_protocol, runner="broken_forge")
    crash_only = FaultSchedule(events=CRASH_RESTART.events[:1])
    signature = target.signature_of(target.run(crash_only))
    assert "forged_payload" not in signature


def test_corpus_reproducers_replay_per_protocol(any_protocol):
    entries = load_corpus(CORPUS_DIR)
    assert entries, "committed corpus is missing"
    replayed = 0
    for _, entry in entries:
        if entry.target.runner == "broken_purge":
            continue  # sabotages the paper stack's MessageStore only
        retargeted = TargetSpec.from_dict(
            {**entry.target.to_dict(), "protocol": any_protocol})
        verdict = replay(type(entry)(
            target=retargeted, schedule=entry.schedule,
            signature=entry.signature,
            found_iteration=entry.found_iteration, stats=entry.stats))
        assert verdict["reproduced"], (
            f"corpus entry {entry.signature} no longer reproduces "
            f"under {any_protocol}: got {verdict['signature']}")
        replayed += 1
    assert replayed >= 2
