"""Shared settings for the property tests.

The `hypothesis` profile below draws its examples from a fixed sequence
(`derandomize=True`), keeps no example database, never times out an
example (`deadline=None`) and keeps the example count small, so every run
of the suite checks the same cases in a bounded time.
"""

from hypothesis import settings

settings.register_profile("nerdct", derandomize=True, database=None,
                          deadline=None, max_examples=20)
settings.load_profile("nerdct")
