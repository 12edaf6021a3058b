"""shards.map_ranges: results in range order, the first range run by the
calling process, a child's exception re-raised with its type, and no
child left running after the call returns or raises."""

import multiprocessing
import os
import time

import pytest

from forking import needs_fork, rerun_single_threaded
from parasnet import shards


def _whoami(tag, start, stop):
    return tag, os.getpid(), start, stop


def test_one_range_runs_in_the_caller(cpus):
    cpus(1)
    assert shards.map_ranges(_whoami, ("t",), 7) == [("t", os.getpid(), 0, 7)]


def test_no_items_are_one_empty_range(cpus):
    cpus(2)
    assert shards.map_ranges(_whoami, ("t",), 0) == [("t", os.getpid(), 0, 0)]


@needs_fork
class TestForked:
    @pytest.mark.parametrize("ranges, bounds", [
        (2, [(0, 3), (3, 7)]), (3, [(0, 2), (2, 4), (4, 7)]),
    ])
    def test_ranges_cover_the_items_in_order(self, cpus, ranges, bounds):
        cpus(ranges)
        results = shards.map_ranges(_whoami, ("t",), 7)
        assert [(tag, start, stop) for tag, _, start, stop in results] == [
            ("t", *b) for b in bounds
        ]
        pids = [pid for _, pid, _, _ in results]
        # the caller ran the first range, and forked children the others
        assert pids[0] == os.getpid()
        assert os.getpid() not in pids[1:]
        assert multiprocessing.active_children() == []

    def test_back_to_back_calls_each_fork(self, cpus):
        # a joined pool's threads outlive join() by a few milliseconds, and
        # a call that counted them would run serially
        cpus(2)
        for _ in range(5):
            results = shards.map_ranges(_whoami, ("t",), 7)
            assert results[1][1] != os.getpid()

    def test_a_child_exception_keeps_its_type(self, cpus):
        cpus(2)
        parent = os.getpid()

        def fail_in_child(start, stop):
            if os.getpid() != parent:
                raise LookupError(f"range {start}-{stop}")
            return start

        with pytest.raises(LookupError, match="range 3-7"):
            shards.map_ranges(fail_in_child, (), 7)
        assert multiprocessing.active_children() == []

    def test_the_callers_exception_terminates_the_children(self, cpus):
        cpus(2)
        parent = os.getpid()

        def fail_in_caller(start, stop):
            if os.getpid() == parent:
                raise KeyError("caller")
            time.sleep(60)

        began = time.monotonic()
        with pytest.raises(KeyError, match="caller"):
            shards.map_ranges(fail_in_caller, (), 7)
        # the child was killed, not waited for
        assert time.monotonic() - began < 30
        assert multiprocessing.active_children() == []


def test_forked_tests_run_in_a_single_threaded_process():
    rerun_single_threaded(f"{__file__}::TestForked")
