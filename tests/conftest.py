"""Shared pytest configuration.

Property tests run under a hypothesis profile with no per-example deadline,
because host speed varies widely between runs, and with derandomized example
generation, so every run checks the same examples.
"""

from hypothesis import settings

settings.register_profile("surfplan", deadline=None, derandomize=True)
settings.load_profile("surfplan")
