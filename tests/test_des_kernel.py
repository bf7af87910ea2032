"""Unit tests for the discrete-event kernel."""

import pytest

from repro.des.kernel import SimulationError, Simulator


def test_clock_starts_at_zero():
    assert Simulator().now == 0.0


def test_events_fire_in_time_order():
    sim = Simulator()
    order = []
    sim.schedule(3.0, order.append, "c")
    sim.schedule(1.0, order.append, "a")
    sim.schedule(2.0, order.append, "b")
    sim.run()
    assert order == ["a", "b", "c"]


def test_same_time_events_fire_fifo():
    sim = Simulator()
    order = []
    for tag in range(10):
        sim.schedule(1.0, order.append, tag)
    sim.run()
    assert order == list(range(10))


def test_clock_advances_to_event_time():
    sim = Simulator()
    seen = []
    sim.schedule(2.5, lambda: seen.append(sim.now))
    sim.run()
    assert seen == [2.5]
    assert sim.now == 2.5


def test_run_until_stops_before_later_events():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, fired.append, 1)
    sim.schedule(5.0, fired.append, 5)
    sim.run(until=2.0)
    assert fired == [1]
    assert sim.now == 2.0  # clock advanced to the until bound


def test_run_until_nan_rejected():
    # Every ``time > nan`` is False, so a NaN bound would fire every
    # event; with re-arming timers the run never returns.
    sim = Simulator()
    fired = []
    sim.schedule(5.0, fired.append, 5)
    with pytest.raises(SimulationError):
        sim.run(until=float("nan"))
    assert fired == []
    assert sim.now == 0.0
    assert sim.pending == 1


def test_run_until_then_resume():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, fired.append, 1)
    sim.schedule(5.0, fired.append, 5)
    sim.run(until=2.0)
    sim.run()
    assert fired == [1, 5]
    assert sim.now == 5.0


def test_cancelled_event_does_not_fire():
    sim = Simulator()
    fired = []
    event = sim.schedule(1.0, fired.append, "x")
    event.cancel()
    sim.run()
    assert fired == []


def test_cancel_is_idempotent():
    sim = Simulator()
    event = sim.schedule(1.0, lambda: None)
    event.cancel()
    event.cancel()
    sim.run()


def test_event_active_lifecycle():
    sim = Simulator()
    event = sim.schedule(1.0, lambda: None)
    assert event.active
    sim.run()
    assert not event.active


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule(-1.0, lambda: None)


def test_non_finite_delay_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule(float("nan"), lambda: None)
    with pytest.raises(SimulationError):
        sim.schedule(float("inf"), lambda: None)


def test_schedule_at_in_past_rejected():
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.schedule_at(0.5, lambda: None)


@pytest.mark.parametrize("method", ["schedule_at"])
@pytest.mark.parametrize("time", [float("nan"), float("inf"),
                                  float("-inf")])
def test_non_finite_absolute_time_rejected(method, time):
    sim = Simulator()
    with pytest.raises(SimulationError):
        getattr(sim, method)(time, lambda: None)
    assert sim.pending == 0


def test_nan_time_cannot_poison_the_clock():
    # A NaN heap key once fired out of order and left the clock at NaN,
    # after which the "not in the past" check passed for every time.
    sim = Simulator()
    fired = []
    for when in (5.0, 1.0, 4.0, 2.0, 3.0, 0.5):
        sim.schedule_at(when, fired.append, when)
    with pytest.raises(SimulationError):
        sim.schedule_at(float("nan"), fired.append, "nan")
    sim.run(until=2.0)
    with pytest.raises(SimulationError):
        sim.schedule_at(1.0, fired.append, "past")
    sim.run()
    assert fired == [0.5, 1.0, 2.0, 3.0, 4.0, 5.0]
    assert sim.now == 5.0


def test_events_scheduled_during_execution():
    sim = Simulator()
    order = []

    def outer():
        order.append("outer")
        sim.schedule(1.0, lambda: order.append("inner"))

    sim.schedule(1.0, outer)
    sim.run()
    assert order == ["outer", "inner"]
    assert sim.now == 2.0


def test_call_soon_runs_at_current_time():
    sim = Simulator()
    times = []

    def outer():
        sim.call_soon(lambda: times.append(sim.now))

    sim.schedule(3.0, outer)
    sim.run()
    assert times == [3.0]


def test_stop_halts_run():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, lambda: (fired.append(1), sim.stop()))
    sim.schedule(2.0, fired.append, 2)
    sim.run()
    assert fired == [1]
    assert sim.pending == 1


def test_step_returns_false_when_exhausted():
    sim = Simulator()
    assert sim.step() is False
    sim.schedule(1.0, lambda: None)
    assert sim.step() is True
    assert sim.step() is False


def test_max_events_bound():
    sim = Simulator()
    fired = []
    for i in range(5):
        sim.schedule(float(i + 1), fired.append, i)
    sim.run(max_events=3)
    assert fired == [0, 1, 2]


def test_events_fired_counts_executed_only():
    sim = Simulator()
    event = sim.schedule(1.0, lambda: None)
    event.cancel()
    sim.schedule(2.0, lambda: None)
    sim.run()
    assert sim.events_fired == 1


def test_clear_drops_pending_events():
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    sim.clear()
    assert sim.pending == 0
    sim.run()
    assert sim.events_fired == 0


def test_pending_excludes_cancelled():
    sim = Simulator()
    keep = sim.schedule(1.0, lambda: None)
    drop = sim.schedule(2.0, lambda: None)
    drop.cancel()
    assert sim.pending == 1
    keep.cancel()
    assert sim.pending == 0


def test_zero_delay_allowed():
    sim = Simulator()
    fired = []
    sim.schedule(0.0, fired.append, True)
    sim.run()
    assert fired == [True]


def test_callback_args_passed_through():
    sim = Simulator()
    captured = []
    sim.schedule(1.0, lambda a, b, c: captured.append((a, b, c)), 1, "x", None)
    sim.run()
    assert captured == [(1, "x", None)]


# ----------------------------------------------------------------------
# run() corner cases: bound interactions and restartability
# ----------------------------------------------------------------------
def test_max_events_combined_with_until():
    # max_events trips first: two events fit the time window but only one
    # may fire.  Pins the documented clock rule — `until` always advances
    # the clock to the bound, even when the event budget cut the run
    # short (only stop() suppresses the jump).
    sim = Simulator()
    fired = []
    sim.schedule(1.0, fired.append, 1)
    sim.schedule(2.0, fired.append, 2)
    sim.schedule(9.0, fired.append, 9)
    sim.run(until=5.0, max_events=1)
    assert fired == [1]
    assert sim.now == 5.0

    # until trips first: the budget allows more events than the window
    # holds; the event at 9.0 stays pending.
    sim.run(max_events=10)
    assert fired == [1, 2, 9]
    assert sim.now == 9.0


def test_stop_then_second_run_resumes():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, lambda: (fired.append(1), sim.stop()))
    sim.schedule(2.0, fired.append, 2)
    sim.run()
    assert fired == [1]
    # A second run() clears the stop flag and drains the remainder.
    sim.run()
    assert fired == [1, 2]
    assert sim.now == 2.0


def test_stop_suppresses_clock_advance_to_until():
    sim = Simulator()
    sim.schedule(1.0, sim.stop)
    sim.run(until=10.0)
    assert sim.now == 1.0  # stopped runs do not jump to the bound


def test_clear_preserves_clock_and_fifo_seq():
    sim = Simulator()
    sim.schedule(2.0, lambda: None)
    pre_clear = sim.schedule(5.0, lambda: None)
    sim.run(until=3.0)
    sim.clear()
    assert sim.now == 3.0       # the clock survives a clear
    assert sim.pending == 0

    # The FIFO sequence counter also survives a clear: same-instant
    # events scheduled afterwards still fire in schedule order.
    order = []
    sim.schedule(2.0, order.append, "first")
    sim.schedule(2.0, order.append, "second")
    sim.run()
    assert order == ["first", "second"]
    assert pre_clear.time == 5.0  # cleared events are untouched, just dropped
