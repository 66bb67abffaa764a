"""Shared test settings.

Property tests run under one registered hypothesis profile: examples are
derived from the test itself rather than a random seed (``derandomize``),
there is no per-example deadline (timings vary with machine load), the
example count is bounded, and no example database is written.  A run is
therefore reproducible and its length predictable.
"""

from hypothesis import settings

settings.register_profile(
    "k3lat", derandomize=True, deadline=None, max_examples=25, database=None
)
settings.load_profile("k3lat")
