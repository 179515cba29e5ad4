import pytest

from safemax_lab import gradcore as gc


@pytest.fixture
def on_two_blas_threads():
    """``run(fn)`` returns ``fn()`` computed with OpenBLAS on two threads, its count on two cores
    had the lab not set one, and puts the count back to the lab's one after."""
    _, put = gc._openblas()

    def run(fn):
        put(2)
        try:
            return fn()
        finally:
            put(1)

    return run
