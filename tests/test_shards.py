"""shards: map_ranges' results in range order, the first range run by the
calling process, a child's exception re-raised with its type or, when it
cannot be pickled, as its type name and message, a killed child named by
its signal, no child left running after a call returns or raises, and
the Helper's calls."""

import os
import signal
import time

import numpy as np
import pytest

from forking import needs_fork, no_children, rerun_single_threaded
from parasnet import shards


def _whoami(tag, start, stop):
    return tag, os.getpid(), start, stop


def test_one_range_runs_in_the_caller(cpus):
    cpus(1)
    assert shards.map_ranges(_whoami, ("t",), 7) == [("t", os.getpid(), 0, 7)]


def test_no_items_are_one_empty_range(cpus):
    cpus(2)
    assert shards.map_ranges(_whoami, ("t",), 0) == [("t", os.getpid(), 0, 0)]


class Unpicklable(Exception):
    """Its constructor's two arguments are lost in pickling, so unpickling
    fails."""

    def __init__(self, a, b):
        super().__init__(f"{a} and {b}")


def _fill(out, value, items):
    for i in items:
        out[i] = value + i


def _raise_lookup(items):
    raise LookupError(f"items {list(items)}")


def _kill_self():
    os.kill(os.getpid(), signal.SIGKILL)


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
        assert no_children()

    @pytest.mark.parametrize("cpus_, n, bounds", [
        (2, 19, [(0, 8), (8, 19)]), (3, 19, [(0, 8), (8, 16), (16, 19)]),
        # no more ranges than units, so none is empty
        (3, 9, [(0, 8), (8, 9)]), (2, 8, [(0, 8)]),
    ])
    def test_ranges_fall_on_unit_bounds(self, cpus, cpus_, n, bounds):
        cpus(cpus_)
        results = shards.map_ranges(_whoami, ("t",), n, 8)
        assert [(start, stop) for _, _, start, stop in results] == bounds
        assert results[0][1] == os.getpid()
        assert no_children()

    def test_back_to_back_calls_each_fork(self, cpus):
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
        assert no_children()

    def test_an_unpicklable_exception_arrives_as_its_name_and_message(self, cpus):
        cpus(2)
        parent = os.getpid()

        def fail_in_child(start, stop):
            if os.getpid() != parent:
                raise Unpicklable("left", "right")

        with pytest.raises(ChildProcessError, match="^Unpicklable: left and right$"):
            shards.map_ranges(fail_in_child, (), 7)
        assert no_children()

    def test_a_killed_child_raises_naming_the_signal(self, cpus):
        cpus(3)
        parent = os.getpid()

        def die_in_last(start, stop):
            if os.getpid() != parent and stop == 7:
                _kill_self()
            return start

        with pytest.raises(ChildProcessError, match="killed by SIGKILL"):
            shards.map_ranges(die_in_last, (), 7)
        assert no_children()

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
        assert no_children()

    def test_a_child_never_forks(self, cpus):
        cpus(2)

        def usable_here(start, stop):
            return shards.usable(), shards.count(100)

        assert shards.map_ranges(usable_here, (), 4) == [(2, 2), (1, 1)]


class Target:
    """A Helper's target: its methods run in the helper."""

    def __init__(self, values):
        self.values = values

    def total(self):
        return self.values.sum(), os.getpid()

    def fill(self, out, value, items):
        _fill(out, value, items)
        return out

    def fail(self, items):
        _raise_lookup(items)

    def die(self):
        _kill_self()


@needs_fork
class TestHelper:
    def test_the_helper_holds_its_target_as_it_was_at_the_fork(self):
        values = np.arange(1 << 19, dtype=np.float64)
        with shards.Helper(Target(values)) as helper:
            # a change after the fork stays in this process
            values[0] = -1.0
            helper.submit("total")
            total, pid = helper.result()
            assert total == np.arange(1 << 19).sum() and pid != os.getpid()
        assert no_children()

    def test_calls_are_answered_in_order_with_their_values(self):
        with shards.Helper(Target(None)) as helper:
            helper.submit("fill", np.zeros(3), 1.0, [0])
            helper.submit("fill", np.zeros(3), 5.0, [1, 2])
            assert helper.result().tolist() == [1.0, 0.0, 0.0]
            assert helper.result().tolist() == [0.0, 6.0, 7.0]

    def test_a_call_error_keeps_its_type_and_the_helper_lives_on(self):
        with shards.Helper(Target(None)) as helper:
            helper.submit("fail", [1, 2])
            with pytest.raises(LookupError, match=r"items \[1, 2\]"):
                helper.result()
            helper.submit("fill", np.zeros(2), 3.0, [1])
            assert helper.result().tolist() == [0.0, 4.0]
        assert no_children()

    def test_a_killed_helper_raises_naming_the_signal(self):
        with shards.Helper(Target(None)) as helper:
            helper.submit("die")
            with pytest.raises(ChildProcessError, match="killed by SIGKILL"):
                helper.result()
        assert no_children()


def test_forked_tests_run_in_a_single_threaded_process():
    rerun_single_threaded(f"{__file__}::TestForked", f"{__file__}::TestHelper")
