"""Fixtures shared by the tests of the forked paths."""

import os

import pytest

from parasnet import shards


@pytest.fixture
def cpus(monkeypatch):
    """Sets how many CPUs shards.count sees as usable, and lowers its
    per-range minimum to 2 items so that small stacks are split."""
    monkeypatch.setattr(shards, "MIN_IMAGES_PER_SHARD", 2)

    def use(count: int) -> None:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))

    return use
