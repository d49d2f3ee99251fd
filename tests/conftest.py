"""Shared test settings.

Property tests run under one hypothesis profile: a derandomized, fixed
example set (the same examples on every run, so results and run time repeat),
no per-example deadline (small-matrix timings swing with host load), and no
example database on disk.
"""

from hypothesis import settings

settings.register_profile("posmap", derandomize=True, deadline=None, max_examples=40, database=None)
settings.load_profile("posmap")
