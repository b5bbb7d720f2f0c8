"""The time bounds on tests: a hang fails the suite instead of stalling it."""

import signal
import time

import pytest

from oracles import alarm, with_alarm


def test_inner_alarm_restores_the_outer_one():
    # every test runs under the per-test alarm of conftest.py
    before = signal.getitimer(signal.ITIMER_REAL)[0]
    assert before > 0
    assert with_alarm(5, lambda: 7) == 7
    assert 0 < signal.getitimer(signal.ITIMER_REAL)[0] <= before


def test_alarm_interrupts_a_hang():
    with pytest.raises(TimeoutError, match=r"^did not end in 0.05 s$"):
        with alarm(0.05):
            while True:
                time.sleep(0.001)
    assert signal.getitimer(signal.ITIMER_REAL)[0] > 0
