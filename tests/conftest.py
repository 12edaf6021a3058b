"""Fixtures shared by the tests of the forked paths."""

import os

import pytest

from parasnet import shards


@pytest.fixture
def cpus(monkeypatch):
    """Sets how many CPUs shards.count sees as usable, and lowers its
    per-range minimum to 2 items so that small stacks are split. A
    training helper pins this process to some of those CPUs and back, so
    the real affinity is restored afterwards."""
    monkeypatch.setattr(shards, "MIN_IMAGES_PER_SHARD", 2)
    real = os.sched_getaffinity(0)

    def use(count: int) -> None:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))

    yield use
    os.sched_setaffinity(0, real)
