"""Fixtures shared by the test modules."""

import sys
from functools import lru_cache

import pytest

import _oracle


@pytest.fixture
def memo_oracle(monkeypatch):
    # the definitional S recomputes factorials on every call; memoizing it
    # keeps the oracle's route and makes the oracle grids affordable
    monkeypatch.setattr(_oracle, "S", lru_cache(maxsize=None)(_oracle.S))


@pytest.fixture
def full_str():
    # str(value) with the int digit limit of Python 3.11+ lifted for the one
    # call and restored in a finally; the setter is taken before the test
    # runs, so a test may patch sys.set_int_max_str_digits after asking
    set_limit = getattr(sys, "set_int_max_str_digits", None)

    def full_str(value):
        if set_limit is None:  # no limit before Python 3.11
            return str(value)
        limit = sys.get_int_max_str_digits()
        set_limit(0)
        try:
            return str(value)
        finally:
            set_limit(limit)

    return full_str
