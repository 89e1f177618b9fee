"""Hypothesis settings for the suite: no per-example deadline (the host's
speed varies by up to 2x, so a deadline would make timing failures), and
derandomized examples with no example database, so every run of the suite
tests the same inputs.  The `cheap_circles` fixture samples each disk on 4
circles of 32 angles, for tests that need many disks but no fine bound."""

import pytest
from hypothesis import settings

from smoothparam import charts

settings.register_profile("suite", deadline=None, derandomize=True,
                          database=None)
settings.load_profile("suite")


@pytest.fixture
def cheap_circles(monkeypatch):
    monkeypatch.setattr(charts, "CIRCLE_RADII", 4)
    monkeypatch.setattr(charts, "CIRCLE_ANGLES", 32)
