"""The forked map that spreads independent items over the usable CPUs."""

import os
import time

import pytest

import cylwidth._fork as _fork
from cylwidth._fork import map_forked

pytestmark = pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")


def test_share_zero_runs_in_the_calling_process(monkeypatch):
    monkeypatch.setattr(_fork, "_usable_cpus", lambda: 2)
    pids = map_forked(lambda i: os.getpid(), 5)
    me = os.getpid()
    assert pids[0] == pids[2] == pids[4] == me
    assert pids[1] == pids[3] != me


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_results_come_back_in_item_order(monkeypatch, workers):
    monkeypatch.setattr(_fork, "_usable_cpus", lambda: workers)
    for n_items in range(8):
        assert map_forked(lambda i: (i, i * i), n_items) == [
            (i, i * i) for i in range(n_items)
        ]


def test_a_failure_in_the_callers_share_kills_and_reaps_the_worker(monkeypatch):
    monkeypatch.setattr(_fork, "_usable_cpus", lambda: 2)

    def item(i):
        if i == 0:
            raise KeyError("item 0")
        time.sleep(60)  # item 1, in the worker: only a kill ends it in time

    start = time.perf_counter()
    with pytest.raises(KeyError, match="item 0"):
        map_forked(item, 2)
    assert time.perf_counter() - start < 30
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_the_caller_forks_one_worker_fewer_than_there_are_cpus(monkeypatch):
    monkeypatch.setattr(_fork, "_usable_cpus", lambda: 3)
    real_fork = os.fork
    parent = os.getpid()
    forks = []

    def fork():
        pid = real_fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    got = map_forked(lambda i: (i, os.getpid() == parent), 100)
    assert len(forks) == 2
    assert got == [(i, i % 3 == 0) for i in range(100)]


def test_a_nested_map_runs_in_place_when_its_share_has_one_cpu(monkeypatch):
    monkeypatch.setattr(_fork, "_usable_cpus", lambda: 2)
    got = map_forked(lambda i: (os.getpid(), map_forked(lambda j: os.getpid(), 3)), 2)
    assert got[0][0] == os.getpid() != got[1][0]
    for outer, inner in got:
        assert inner == [outer] * 3


@pytest.mark.parametrize("cpus, per_item", [(4, [2, 2]), (3, [2, 1]), (5, [3, 2])])
def test_nested_maps_share_out_the_cpus(monkeypatch, cpus, per_item):
    # share w of n over c CPUs lends c // n + (w < c % n) to the maps it starts
    monkeypatch.setattr(_fork, "_usable_cpus", lambda: cpus)
    got = map_forked(lambda i: (i, map_forked(lambda j: (j, os.getpid()), 7)), 2)
    assert [i for i, _ in got] == [0, 1]
    pids = set()
    for (_, inner), want in zip(got, per_item):
        assert [j for j, _ in inner] == list(range(7))
        assert len({pid for _, pid in inner}) == want
        pids |= {pid for _, pid in inner}
    assert len(pids) == cpus
    assert _fork._cpu_budget() == cpus


def test_a_failure_in_a_nested_item_surfaces_and_every_worker_is_reaped(monkeypatch):
    monkeypatch.setattr(_fork, "_usable_cpus", lambda: 4)

    def inner(i, j):
        if (i, j) == (1, 3):  # runs in a worker of outer item 1's own worker
            raise KeyError("item 3 of item 1")
        return j

    with pytest.raises(KeyError, match="item 3 of item 1"):
        map_forked(lambda i: map_forked(lambda j: inner(i, j), 4), 2)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert _fork._cpu_budget() == 4
    assert map_forked(lambda i: map_forked(lambda j: i * j, 3), 2) == [[0, 0, 0], [0, 1, 2]]
