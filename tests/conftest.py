"""Shared test setup: one fixed profile for the property tests.

Property tests run a derandomized example sequence with no example
database, so a run repeats on the same source tree. Hypothesis also caches
the constants it reads from the package source, already while tests are
collected; that cache goes to a temporary directory removed at the end of
the run, so a test run writes nothing into the checkout.
"""

import tempfile

import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

settings.register_profile("fixed", derandomize=True, database=None, deadline=None)
settings.load_profile("fixed")

_HOME = pytest.StashKey[tempfile.TemporaryDirectory]()


def pytest_configure(config):
    home = config.stash[_HOME] = tempfile.TemporaryDirectory(prefix="hypothesis-")
    set_hypothesis_home_dir(home.name)


def pytest_unconfigure(config):
    config.stash[_HOME].cleanup()
