"""Hypothesis profiles for the test suite.

Tier-1 runs use hypothesis's default profile.  ``--hypothesis-profile=deep``
gives every property test that does not pin its own example count ten
times the default examples, with no per-example deadline.
"""

from hypothesis import settings

settings.register_profile("deep", max_examples=1000, deadline=None)
