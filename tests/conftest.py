"""Shared test configuration.

Every property test runs under one seeded hypothesis profile, so a run
draws the same examples each time and its run time stays fixed.

When a property test fails, hypothesis' pytest plugin imports
hypothesis.extra._patching, whose libcst import raises a
DeprecationWarning (from mypy_extensions.TypedDict).  Under
filterwarnings = ["error"] that warning would abort the session with an
INTERNALERROR and report no later test, so the module is imported here,
once, with DeprecationWarning ignored for that import only.
"""

import warnings

from hypothesis import settings

with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    import hypothesis.extra._patching  # noqa: F401

settings.register_profile("rsdnet", derandomize=True, deadline=None,
                          max_examples=100)
settings.load_profile("rsdnet")
