"""Tests of the forked paths (parasnet.shards) need a process with one OS
thread, since shards never forks from any other. A default local run
starts OpenBLAS threads at numpy's import, so those tests skip there, and
rerun_single_threaded runs them again in a pytest subprocess with one
BLAS thread, as CI runs the whole suite."""

import os
import subprocess
import sys

# imported first, so that the BLAS threads numpy starts exist before
# needs_fork counts threads
import numpy  # noqa: F401
import pytest

import parasnet


def no_children() -> bool:
    """Whether this process has no child, running or unreaped."""
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


def single_threaded() -> bool:
    return len(os.listdir("/proc/self/task")) == 1


needs_fork = pytest.mark.skipif(
    not single_threaded(),
    reason="forks only from a single-threaded process; a rerun_single_threaded "
           "test reruns it",
)


def rerun_single_threaded(*pytest_args: str) -> None:
    """Skips when this process has one thread, since the forked tests ran
    here; otherwise runs pytest_args in a subprocess with one BLAS thread
    and the warning filters CI sets, and asserts they passed with nothing
    skipped."""
    if single_threaded():
        pytest.skip("the forked tests ran in this process")
    src = os.path.dirname(os.path.dirname(parasnet.__file__))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-W", "error::DeprecationWarning", "-W", "error::ResourceWarning",
         "-W", "error::pytest.PytestUnraisableExceptionWarning", *pytest_args],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert "skipped" not in done.stdout, done.stdout
