import time

import pytest

from invforge.invariants import mingenset


class TimedCache:
    """Session-wide store for expensive computations with their wall time."""

    def __init__(self):
        self.values = {}
        self.seconds = {}

    def get(self, key, thunk):
        if key not in self.values:
            t0 = time.perf_counter()
            self.values[key] = thunk()
            self.seconds[key] = time.perf_counter() - t0
        return self.values[key]


@pytest.fixture(scope="session")
def store():
    return TimedCache()


@pytest.fixture(scope="session")
def gens5(store):
    return store.get("mingenset5", lambda: mingenset(5, 4, [4, 8, 12, 18]))


@pytest.fixture(scope="session")
def gens6(store):
    return store.get("mingenset6", lambda: mingenset(6, 5, [2, 4, 6, 10, 15]))


@pytest.fixture
def polynomial_arithmetic(monkeypatch):
    """Counts of Polynomial.__add__ and __mul__ calls made during the test."""
    from collections import Counter

    from invforge.rings import Polynomial

    calls = Counter()
    for name in ("__add__", "__mul__"):
        def spy(self, other, _name=name, _orig=getattr(Polynomial, name)):
            calls[_name] += 1
            return _orig(self, other)
        monkeypatch.setattr(Polynomial, name, spy)
    return calls
