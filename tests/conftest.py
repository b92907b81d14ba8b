"""Checks every test gets: it leaves no child process behind, running or
exited and unreaped, and OpenBLAS's thread count as it found it. Also the
failures the tests of forked children inject."""

import contextlib
import math
import os
import time

import numpy as np
import pytest

from gridlight.errors import ConfigurationError
from gridlight.meta import _openblas_threads


def _simd_math() -> bool:
    z = np.linspace(-30.0, 30.0, 601)
    return any(float(a) != math.exp(v) for a, v in zip(np.exp(z), z.tolist()))


# Whether numpy's exp takes a SIMD loop (AVX-512 on x86-64) whose last bits
# differ from libm's. Trained parameters differ between the two math paths,
# so the pins of parameter hashes hold one value per path.
SIMD_MATH = _simd_math()


def assert_no_child_left():
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail("a child process is still running" if pid == 0 else
                f"child process {pid} ended and was never reaped")


def blas_threads():
    """OpenBLAS's thread count in this process; None for another BLAS."""
    blas = _openblas_threads()
    return blas[0]() if blas else None


@contextlib.contextmanager
def no_child_left():
    """Fail unless the block reaps every child it starts and leaves
    OpenBLAS's thread count as it found it."""
    threads = blas_threads()
    yield
    assert_no_child_left()
    assert blas_threads() == threads, "OpenBLAS's thread count was changed"


@pytest.fixture(autouse=True)
def every_child_reaped():
    with no_child_left():
        yield


# failure -> (the error the caller sees, a pattern of its message)
FAILURES = {
    "child-raises": (ConfigurationError, r"^the child failed$"),
    "child-dies": (RuntimeError, r"without a result \(exit code 3\)$"),
    "parent-raises": (RuntimeError, r"^the parent failed$"),
}


def fail_in(failure: str):
    """A hook for code that runs in both a parent and its forked child: it
    makes the failure named in ``FAILURES`` happen. For ``parent-raises``
    the child first sleeps, so the parent raises while it runs."""
    parent = os.getpid()

    def hook(*args, **kwargs):
        if os.getpid() == parent:
            if failure == "parent-raises":
                raise RuntimeError("the parent failed")
        elif failure == "child-raises":
            raise ConfigurationError("the child failed")
        elif failure == "child-dies":
            os._exit(3)
        else:
            time.sleep(0.2)

    return hook
