"""Hypothesis settings for the suite: no per-example deadline (the host's
speed varies by up to 2x, so a deadline would make timing failures), and
derandomized examples with no example database, so every run of the suite
tests the same inputs."""

from hypothesis import settings

settings.register_profile("suite", deadline=None, derandomize=True,
                          database=None)
settings.load_profile("suite")
