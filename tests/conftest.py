"""Shared test configuration.

Every property test runs under one seeded hypothesis profile, so a run
draws the same examples each time and its run time stays fixed.
"""

from hypothesis import settings

settings.register_profile("rsdnet", derandomize=True, deadline=None,
                          max_examples=100)
settings.load_profile("rsdnet")
