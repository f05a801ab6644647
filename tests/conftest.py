"""Hypothesis draws the same examples on every run and keeps no example
database, so tier-1 is deterministic.  Each test's max_examples is its own."""
from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")
