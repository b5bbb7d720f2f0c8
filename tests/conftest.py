"""Every test runs under an alarm, so a hang fails the suite instead of
stalling it.  The slowest test takes a few seconds."""

import functools

import pytest

from resnil.zlinalg import IntMatrix

from oracles import alarm

TEST_SECONDS = 120


@pytest.fixture(autouse=True)
def per_test_alarm():
    with alarm(TEST_SECONDS):
        yield


@pytest.fixture
def reductions(monkeypatch):
    """The matrices whose char poly is computed, in order: each is one
    Hessenberg reduction, which det M and det(M - E) also read."""
    runs = []
    reduce = IntMatrix._char_poly.func
    counting = functools.cached_property(lambda M: runs.append(M) or reduce(M))
    counting.__set_name__(IntMatrix, "_char_poly")
    monkeypatch.setattr(IntMatrix, "_char_poly", counting)
    return runs
