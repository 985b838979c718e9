import contextlib
import random
import signal

import pytest

from sgcalc.words import Alphabet, Word, cyclic_core, rotations

# A test still running after this many seconds fails with its traceback, so a
# loop that never ends shows as one failed test, not as a hung suite.  The
# slowest test under tests/ takes a few seconds.
TEST_TIME_LIMIT_S = 120


class TimeLimitExceeded(BaseException):
    """Raised where a test is running when its time is up.  Not an ``Exception``,
    so neither the code under test nor hypothesis, which would replay the slow
    example to shrink it, catches it; pytest reports it as the test's failure."""


@contextlib.contextmanager
def time_limit(seconds: float):
    """Raise :class:`TimeLimitExceeded` if the block is still running after ``seconds``.

    It holds the process's one real-time interval timer and its ``SIGALRM``
    handler, and ends by clearing the timer, so an enclosing limit stops too."""
    def expire(signum, frame):
        raise TimeLimitExceeded(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture(autouse=True)
def _time_limit():
    if not hasattr(signal, "SIGALRM"):  # no interval timer on this platform: run unlimited
        yield
        return
    with time_limit(TEST_TIME_LIMIT_S):
        yield


@pytest.fixture
def xyab():
    return Alphabet(("x", "y", "a", "b"))


def random_word(rng: random.Random, alphabet: Alphabet, max_len: int = 20):
    length = rng.randint(0, max_len)
    return alphabet.word(
        (rng.choice(alphabet.names), rng.choice((-3, -2, -1, 1, 2, 3)))
        for _ in range(length)
    )


def relator_class(w: Word) -> frozenset[Word]:
    """Every rotation of ``w``'s cyclic core and of its inverse, by brute
    force: equal for two words exactly when they are the same relator."""
    core, _ = cyclic_core(w)
    return frozenset(rotations(core) + rotations(~core))
