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


def test_items_are_dealt_out_largest_cost_first(monkeypatch):
    # each item goes to the share with the least cost so far, the calling
    # process's on a tie; the results still come back in item order
    monkeypatch.setattr(_fork, "_usable_cpus", lambda: 2)
    me = os.getpid()
    for costs, here in (([1, 5, 1, 5], [True, True, False, False]),
                        ([9, 1, 1, 1, 1], [True, False, False, False, False]),
                        ([2, 2, 2, 2, 2], [True, False, True, False, True])):
        got = map_forked(lambda i: (i, os.getpid() == me), len(costs), costs)
        assert got == list(enumerate(here)), costs


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
