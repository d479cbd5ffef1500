"""Fixtures shared by the test modules."""

from functools import lru_cache

import pytest

import _oracle


@pytest.fixture
def memo_oracle(monkeypatch):
    # the definitional S recomputes factorials on every call; memoizing it
    # keeps the oracle's route and makes the oracle grids affordable
    monkeypatch.setattr(_oracle, "S", lru_cache(maxsize=None)(_oracle.S))
