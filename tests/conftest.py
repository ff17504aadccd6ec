"""The hypothesis profile of the suite.

Examples are derived from each test's name instead of drawn at random, so
every run of the suite tries the same inputs, and there is no per-example
deadline: an example's time depends on the quiver it draws.  Property
tests set only their max_examples.
"""

from hypothesis import settings

settings.register_profile("dimerlab", derandomize=True, deadline=None)
settings.load_profile("dimerlab")
