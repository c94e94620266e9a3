"""Test-suite settings shared by every module.

Property-based tests draw their examples deterministically (a seed derived
from each test, and no database of earlier failures to replay) and from a
small budget, so the suite gives the same verdict on every run and the
`hypothesis` tests take a few seconds in total. A test's own
``@settings(max_examples=...)`` still takes precedence over the budget.

The "thorough" profile draws the same way from a budget of 1000 examples.
Select it with ``--hypothesis-profile thorough``, as CI does for the file
formats and the input rules.
"""

from hypothesis import settings

settings.register_profile(
    "deterministic", derandomize=True, database=None, max_examples=50, deadline=None
)
settings.register_profile(
    "thorough", derandomize=True, database=None, max_examples=1000, deadline=None
)
settings.load_profile("deterministic")
