"""Test-session set-up shared by every test module.

BLAS reads its thread count once, when numpy first loads, so it is fixed here
before any test module imports numpy.  On a small host a multi-threaded BLAS
contends with any other busy process and slows the suite several-fold; the
benchmark (``perfbench/run.py``) fixes the same count for the same reason.

pytest imports this file before the test modules, so the Hypothesis profile
loaded here is the parent of every ``@settings`` they declare: each ``@given``
draws the same examples in every run, and none is replayed from a database.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from hypothesis import settings  # noqa: E402  (after the BLAS pin, as numpy may load)

settings.register_profile("labrr", derandomize=True)
settings.load_profile("labrr")
