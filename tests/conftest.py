"""Shared settings for the property tests, and a memory-peak fixture.

The `hypothesis` profile below draws its examples from a fixed sequence
(`derandomize=True`), keeps no example database, never times out an
example (`deadline=None`) and keeps the example count small, so every run
of the suite checks the same cases in a bounded time.
"""

import tracemalloc

import pytest
from hypothesis import settings

settings.register_profile("nerdct", derandomize=True, database=None,
                          deadline=None, max_examples=20)
settings.load_profile("nerdct")


@pytest.fixture
def peak_traced_bytes():
    """The helper `peak_traced_bytes(fn)`: (peak bytes traced while `fn()`
    runs, `fn()`'s result).

    The peak counts only what is allocated during the call, NumPy buffers
    and Python objects alike, as `tracemalloc` sees them.
    """
    def measure(fn):
        tracemalloc.start()
        try:
            result = fn()
            return tracemalloc.get_traced_memory()[1], result
        finally:
            tracemalloc.stop()
    return measure
