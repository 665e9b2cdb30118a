"""Shared test configuration.

Every property test runs under one derandomized hypothesis profile, so
reruns of the same code draw the same examples and the run time stays
fixed.  The draws are not fixed across code changes: hypothesis (6.155)
also seeds them with the literals of the local modules, so a new float
literal in src/ or tests/ re-rolls every property test's examples, and a
latent failure can surface in an unrelated change.

When a property test fails, hypothesis' pytest plugin imports
hypothesis.extra._patching, whose libcst import raises a
DeprecationWarning (from mypy_extensions.TypedDict).  Under
filterwarnings = ["error"] that warning would abort the session with an
INTERNALERROR and report no later test, so the module is imported here,
once, with DeprecationWarning ignored for that import only.
"""

import warnings

import pytest
from hypothesis import settings

with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    import hypothesis.extra._patching  # noqa: F401

settings.register_profile("rsdnet", derandomize=True, deadline=None,
                          max_examples=100)
settings.load_profile("rsdnet")


@pytest.fixture
def blas_count():
    """OpenBLAS's thread-count getter, the count set to 2 for the test (a
    pool that left it at 1 cannot then pass unseen) and restored after."""
    from rsdnet import network  # here: test_session copies this file alone

    blas = network._openblas_threads()
    if blas is None:
        pytest.skip("numpy's BLAS exports no OpenBLAS thread setter")
    get, set_ = blas
    original = get()
    set_(2)
    yield get
    set_(original)
