"""The oracles' own checks: the time bounds on tests, so that a hang
fails the suite instead of stalling it, and the compound matrices."""

import random
import signal
import time

import pytest

from resnil import IntMatrix

from oracles import alarm, compound_by_minors, with_alarm


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


def test_cauchy_binet_multiplicativity():
    # C_k(AB) = C_k(A) C_k(B) for every order k
    rng = random.Random(73)
    for n in (3, 4):
        for _ in range(10):
            A = IntMatrix(n, n, [rng.randint(-4, 4) for _ in range(n * n)])
            B = IntMatrix(n, n, [rng.randint(-4, 4) for _ in range(n * n)])
            for k in range(1, n + 1):
                lhs = compound_by_minors(A * B, k)
                assert lhs == compound_by_minors(A, k) * compound_by_minors(B, k)
