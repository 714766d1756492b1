"""Hypothesis profiles.

``pytest --hypothesis-profile=ci`` draws the same examples on every run and
has no per-example deadline, so property tests repeat exactly and a slow
example cannot fail one.  Without the option, each run draws new examples.
"""

from hypothesis import settings

settings.register_profile("ci", derandomize=True, deadline=None)
