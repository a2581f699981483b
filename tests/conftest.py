import signal

import numpy as np
import pytest

import tsphnn as T


# 2-opt and 3-opt do not bound their passes, so a scan whose delta
# disagrees with the move it applies cycles forever; so can SA or the
# network under a faulty change.  Each test fails after this many seconds
# instead, far above the slowest (about 3 s).
TIME_LIMIT_S = 60


class TimeLimitExceeded(BaseException):
    """Raised when a test runs past ``TIME_LIMIT_S``.  Not an ``Exception``,
    so hypothesis fails the test at once instead of shrinking an example
    that hangs."""


@pytest.fixture(autouse=True)
def time_limit():
    def expire(signum, frame):
        raise TimeLimitExceeded(f"test ran past {TIME_LIMIT_S} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, TIME_LIMIT_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture(scope="session")
def paper8():
    return T.get_builtin("paper8")


@pytest.fixture(scope="session")
def cityset1():
    return T.get_builtin("cityset1")


@pytest.fixture(scope="session")
def matrix4():
    return T.get_builtin("matrix4")


@pytest.fixture(scope="session")
def paper8_m(paper8):
    return T.distance_matrix(paper8)


@pytest.fixture(scope="session")
def cityset1_m(cityset1):
    return T.distance_matrix(cityset1)


@pytest.fixture(scope="session")
def matrix4_m(matrix4):
    return T.distance_matrix(matrix4)


@pytest.fixture()
def rng():
    return np.random.default_rng(0)
