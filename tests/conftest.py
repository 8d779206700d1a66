"""Shared fixtures."""

import signal

import pytest

# generous: every test that opts in finishes in a few seconds
TIME_LIMIT_S = 60


@pytest.fixture
def time_limit():
    """Fail the test after TIME_LIMIT_S seconds instead of letting it hang.

    A broken search (an endless blossom or subset loop) then fails with a
    traceback at the loop. Uses SIGALRM, so the limit needs a POSIX main
    thread; elsewhere the test runs without one.
    """
    if not hasattr(signal, "SIGALRM"):
        yield
        return

    def expire(signum, frame):
        pytest.fail(f"test exceeded its {TIME_LIMIT_S} s time limit")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(TIME_LIMIT_S)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
