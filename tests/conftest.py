"""Hypothesis draws the same examples on every run: each property test's
examples are seeded from the test itself, so tier-1 is deterministic."""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True)
settings.load_profile("deterministic")
