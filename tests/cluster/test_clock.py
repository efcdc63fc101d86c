"""The simulated-time event loop: ordering, event counts, guards."""

from __future__ import annotations

import pytest

from repro.cluster.clock import EventLoop, HorizonOverrunError


def test_events_fire_in_time_order():
    loop = EventLoop()
    fired = []
    loop.at(30, lambda: fired.append("c"))
    loop.at(10, lambda: fired.append("a"))
    loop.at(20, lambda: fired.append("b"))
    assert loop.run() == 30
    assert fired == ["a", "b", "c"]
    assert loop.fired == 3


def test_simultaneous_events_fire_in_scheduling_order():
    loop = EventLoop()
    fired = []
    for label in ("first", "second", "third"):
        loop.at(5, lambda lab=label: fired.append(lab))
    loop.run()
    assert fired == ["first", "second", "third"]


def test_scheduling_into_the_past_is_rejected():
    loop = EventLoop()
    loop.at(10, lambda: loop.at(5, lambda: None))
    with pytest.raises(ValueError, match="past"):
        loop.run()


def test_scheduling_at_now_is_allowed():
    loop = EventLoop()
    fired = []
    loop.at(10, lambda: loop.at(10, lambda: fired.append("again")))
    loop.run()
    assert fired == ["again"]


def test_negative_delay_is_rejected():
    loop = EventLoop()
    with pytest.raises(ValueError, match="non-negative"):
        loop.after(-1, lambda: None)


def test_horizon_guard_raises_on_runaway():
    loop = EventLoop()

    def reschedule():
        loop.after(10, reschedule)

    loop.at(0, reschedule)
    with pytest.raises(HorizonOverrunError, match="horizon"):
        loop.run(horizon=100)


def test_len_reports_pending_entries():
    loop = EventLoop()
    loop.at(1, lambda: None)
    loop.at(2, lambda: None)
    assert len(loop) == 2
    loop.run()
    assert len(loop) == 0
