"""The per-test time limit of ``conftest.py`` fails a test that runs past it."""

import signal
import time

import pytest

from conftest import TimeLimitExceeded, time_limit


@pytest.mark.skipif(not hasattr(signal, "SIGALRM"), reason="no SIGALRM on this platform")
def test_a_block_past_its_time_limit_fails():
    start = time.monotonic()
    with pytest.raises(TimeLimitExceeded, match="still running after 1 s"):
        with time_limit(1):
            time.sleep(5)
    assert time.monotonic() - start < 4
