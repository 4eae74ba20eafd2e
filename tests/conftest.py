"""Make a hung test fail the run instead of stalling it.

Each test arms faulthandler (stdlib): if it runs past TIMEOUT_S, every
thread's traceback goes to stderr and the process exits nonzero.  The
slowest test takes about 2 s, so only a loop that never ends trips it,
such as elimination against a broken pivot invariant.
"""

import faulthandler
import os

import pytest

TIMEOUT_S = 120

_stderr = None  # a copy of the stderr fd, which pytest redirects while a test runs


def pytest_configure(config):
    global _stderr
    _stderr = os.dup(2)


def pytest_unconfigure(config):
    os.close(_stderr)


@pytest.fixture(autouse=True)
def fail_instead_of_hang():
    faulthandler.dump_traceback_later(TIMEOUT_S, exit=True, file=_stderr)
    yield
    faulthandler.cancel_dump_traceback_later()
