"""One Hypothesis profile for every property test in this directory: derandomized, with no example
database and no deadline, so that each run draws the same examples and a slow one is no failure.
A test's `@settings` gives its `max_examples` only."""

from hypothesis import settings

settings.register_profile("riccati-lie", derandomize=True, database=None, deadline=None)
settings.load_profile("riccati-lie")
