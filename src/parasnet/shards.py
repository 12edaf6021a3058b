"""Contiguous index ranges shared between the calling process and forked
children.

map_ranges runs fn(*args, start, stop) over ranges that cover 0..n-1 in
order and returns the results in that order. The calling process runs
the first range itself while one forked child runs each of the others,
so two usable CPUs fork one child. A child inherits fn and args from
the fork and sends back only its range's result. Batch inference
(model.forward_images) and `parasnet gen` split their images this way;
each image's work depends only on its index, so the results are the
same however the ranges fall.
"""

from __future__ import annotations

import os
import time
from typing import Callable

# no range is shorter than this many images. On a 2-core Xeon, at
# 244x324, starting and joining two forked workers cost as much as about
# 6 images each of serial inference, and 16 each ran x1.1-1.2
MIN_IMAGES_PER_SHARD = 16

# (fn, args) in a forked child of map_ranges, set by its initializer;
# the calling process never sets it
_source: tuple = ()


def _init_child(fn: Callable, args: tuple) -> None:
    global _source
    _source = (fn, args)


def _run_range(bounds: tuple[int, int]):
    fn, args = _source
    return fn(*args, *bounds)


def _threads() -> int:
    """This process's OS threads, or 0 where that cannot be read."""
    try:
        return len(os.listdir("/proc/self/task"))
    except OSError:
        return 0


def count(n: int) -> int:
    """How many ranges map_ranges splits n items into: one per usable CPU
    with at least MIN_IMAGES_PER_SHARD items each, or 1, the whole run in
    the calling process, unless at least two remain. A process with a
    second OS thread (multi-threaded BLAS, say) never forks, since a lock
    that thread held would stay held in the child."""
    if not hasattr(os, "sched_getaffinity") or not hasattr(os, "fork"):
        return 1
    ranges = min(len(os.sched_getaffinity(0)), n // MIN_IMAGES_PER_SHARD)
    if _threads() != 1 or ranges < 2:
        return 1
    # imported only here: the import adds 0.4-0.8 MB of resident memory,
    # which processes that never fork (bench, the baseline) need not pay
    import multiprocessing

    # a daemonic process, such as another pool's worker, may have no children
    return 1 if multiprocessing.current_process().daemon else ranges


def map_ranges(fn: Callable, args: tuple, n: int) -> list:
    """[fn(*args, start, stop) for each range] over count(n) contiguous
    ranges that cover 0..n-1 in order.

    The calling process runs the first range while forked children run
    the rest. The children live only for this call: they are joined on
    return and terminated on any exception, and a child's exception is
    re-raised here with its type.
    """
    ranges = count(n)
    bounds = [(n * k // ranges, n * (k + 1) // ranges) for k in range(ranges)]
    if ranges == 1:
        return [fn(*args, 0, n)]
    import multiprocessing

    pool = multiprocessing.get_context("fork").Pool(
        ranges - 1, initializer=_init_child, initargs=(fn, args)
    )
    try:
        rest = pool.map_async(_run_range, bounds[1:], chunksize=1)
        first = fn(*args, *bounds[0])
        results = [first, *rest.get()]
        pool.close()
    except BaseException:
        pool.terminate()
        raise
    finally:
        pool.join()
        # the pool's threads can outlive join() in the OS by a few
        # milliseconds (up to 4 ms on a 2-core Xeon); wait for them, so
        # that a call right after this one, such as gen's next split,
        # may fork too
        deadline = time.monotonic() + 1.0
        while _threads() > 1 and time.monotonic() < deadline:
            time.sleep(0.001)
    return results
