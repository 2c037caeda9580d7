"""Shared hypothesis settings.

Per-example deadlines are off for every property test: the slow phases of a
shared host make wall-clock deadlines flaky. Each test keeps its own
``max_examples``.
"""

from hypothesis import settings

settings.register_profile("freshtrack", deadline=None)
settings.load_profile("freshtrack")
