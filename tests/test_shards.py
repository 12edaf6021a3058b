"""shards: map_ranges' results in range order, the first range run by the
calling process, a child's exception re-raised with its type or, when it
cannot be pickled, as its type name and message, a killed child named by
its signal, no child left running after a call returns or raises, and
the Helper's arena and calls."""

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


def _total(a, out):
    out[0] = a.sum()


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


@needs_fork
class TestHelper:
    def test_arena_arrays_are_reused_lowest_first(self):
        with shards.Helper(1 << 16) as helper:
            a = helper.empty((10, 10), np.float32)
            b = helper.empty((10,), np.float64)
            assert helper.holds(a) and helper.holds(b) and helper.holds(a[2:, ::2])
            assert not helper.holds(np.empty(4))
            start = a.__array_interface__["data"][0]
            del a
            # a's bytes, given back, are the lowest free ones again
            c = helper.empty((4,), np.float32)
            assert c.__array_interface__["data"][0] == start
            assert helper.empty((1 << 20,), np.uint8).base is None
            assert b.size == 10

    def test_lent_arrays_never_overlap(self):
        # arrays lent and given back at random, each filled half by the
        # helper: bytes lent twice would overwrite a live array's values
        rng = np.random.default_rng(0)
        with shards.Helper(1 << 20) as helper:
            live = {}
            for k in range(300):
                if live and rng.random() < 0.4:
                    del live[int(rng.choice(list(live)))]
                a = helper.empty((int(rng.integers(1, 200)), 8), np.float64)
                shards.split(helper, _fill, (a, float(k)), list(range(len(a))), (a,))
                live[k] = a
                for j, b in live.items():
                    assert b[:, -1].tolist() == [j + i for i in range(len(b))]

    def test_split_and_beside_write_the_arena(self):
        with shards.Helper(1 << 16) as helper:
            out = shards.zeros(helper, (9, 3), np.float64)
            shards.split(helper, _fill, (out, 1.0), list(range(9)), (out,))
            assert out[:, 0].tolist() == [1.0 + i for i in range(9)]
            left, right = shards.zeros(helper, (2,), np.float64), np.zeros(2)
            shards.beside(helper, (_fill, (left, 5.0, [1]), (left,)),
                          (_fill, (right, 7.0, [0])))
            assert left.tolist() == [0.0, 6.0] and right.tolist() == [7.0, 0.0]

    def test_work_the_helper_cannot_write_stays_here(self):
        with shards.Helper(1 << 16) as helper:
            private = np.zeros((4, 2))
            shards.split(helper, _fill, (private, 0.0), list(range(4)), (private,))
            assert private[:, 0].tolist() == [0.0, 1.0, 2.0, 3.0]

    def test_a_call_error_keeps_its_type_and_the_helper_lives_on(self):
        with shards.Helper(1 << 16) as helper:
            helper.submit(_raise_lookup, [1, 2])
            with pytest.raises(LookupError, match=r"items \[1, 2\]"):
                helper.wait()
            out = shards.zeros(helper, (2,), np.float64)
            helper.submit(_fill, out, 3.0, [1])
            helper.wait()
            assert out.tolist() == [0.0, 4.0]
        assert no_children()

    def test_a_killed_helper_raises_naming_the_signal(self):
        with shards.Helper(1 << 16) as helper:
            helper.submit(_kill_self)
            with pytest.raises(ChildProcessError, match="killed by SIGKILL"):
                helper.wait()
        assert no_children()

    def test_inherited_objects_go_by_reference(self):
        big = np.arange(1 << 19, dtype=np.float64)
        assert big.nbytes > shards.SEND_LIMIT
        with shards.Helper(1 << 16, inherited=(big,)) as helper:
            out = shards.zeros(helper, (1,), np.float64)
            assert helper.takes((big, out), (out,))
            assert not helper.takes((big.copy(), out), (out,))
            helper.submit(_total, big, out)
            helper.wait()
            assert out[0] == big.sum()


def test_forked_tests_run_in_a_single_threaded_process():
    rerun_single_threaded(f"{__file__}::TestForked", f"{__file__}::TestHelper")
