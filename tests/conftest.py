"""Every test runs under an alarm, so a hang fails the suite instead of
stalling it.  The slowest test takes a few seconds."""

import pytest

from oracles import alarm

TEST_SECONDS = 120


@pytest.fixture(autouse=True)
def per_test_alarm():
    with alarm(TEST_SECONDS):
        yield
