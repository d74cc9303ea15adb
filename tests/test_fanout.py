"""Signature checks split across processes, and answered from one batch:
the same answer on every path."""

import errno
import logging
import math
import multiprocessing
import os
import threading
from concurrent.futures import ProcessPoolExecutor, wait

import pytest

from locprov import fanout
from locprov.crypto import MODERN

LOGGER = "locprov.fanout"


def _jobs(n, bad):
    """``n`` jobs of ``bool``; those at the indexes in ``bad`` fail."""
    return [(bool, i not in bad) for i in range(n)]


def _results(n, bad):
    return [i not in bad for i in range(n)]


def _refuse_context(method):
    raise ValueError(f"cannot find context for {method!r}")


def _refuse_fork():
    raise OSError(errno.ENOMEM, "Cannot allocate memory")


@pytest.fixture()
def three_cpus(monkeypatch):
    monkeypatch.setattr(fanout, "_cpu_count", lambda: 3)
    monkeypatch.setattr(fanout, "FANOUT_MIN_JOBS", 2)


def test_below_threshold_runs_in_the_caller(monkeypatch, caplog):
    monkeypatch.setattr(fanout, "_cpu_count", lambda: 3)
    monkeypatch.setattr(multiprocessing, "get_context", _refuse_context)
    n = fanout.FANOUT_MIN_JOBS - 1
    with caplog.at_level(logging.DEBUG, logger=LOGGER):
        assert fanout.verify_each(_jobs(n, {7})) == _results(n, {7})
    assert not caplog.records


def test_single_cpu_runs_in_the_caller(monkeypatch, caplog):
    monkeypatch.setattr(fanout, "_cpu_count", lambda: 1)
    monkeypatch.setattr(fanout, "FANOUT_MIN_JOBS", 2)
    monkeypatch.setattr(multiprocessing, "get_context", _refuse_context)
    with caplog.at_level(logging.DEBUG, logger=LOGGER):
        assert fanout.verify_each(_jobs(9, {8})) == _results(9, {8})
    assert not caplog.records


def test_cpu_count_follows_affinity():
    assert fanout._cpu_count() == len(os.sched_getaffinity(0))


@pytest.mark.parametrize("bad", [set(), {0}, {2}, {3}, {4}, {6}, {3, 6},
                                 {4, 5}, {6, 0}],
                         ids=lambda bad: "-".join(map(str, sorted(bad)))
                         or "none")
def test_fan_out_finds_the_first_failure(three_cpus, caplog, bad):
    """7 jobs over 3 CPUs: chunks [0, 2), [2, 4), [4, 7). Every result is
    returned, the first failure's and those after it."""
    with caplog.at_level(logging.DEBUG, logger=LOGGER):
        assert fanout.verify_each(_jobs(7, bad)) == _results(7, bad)
    assert [r.getMessage() for r in caplog.records] == [
        "verifying 7 signatures in 3 processes"]


def test_failures_in_every_chunk_all_reported(three_cpus):
    """Two failures in each of the three chunks of 12 jobs, [0, 4), [4, 8)
    and [8, 12): no chunk stops at its first."""
    bad = {1, 3, 4, 6, 9, 11}
    assert fanout.verify_each(_jobs(12, bad)) == _results(12, bad)


def test_workers_see_closures_without_pickling(three_cpus):
    # a lambda cannot be pickled; fork hands it to the workers as it is
    wanted = {5}
    jobs = [(lambda i: i not in wanted, i) for i in range(9)]
    assert fanout.verify_each(jobs) == _results(9, wanted)


def _worker_dies(monkeypatch):
    """Every worker dies on its first job; the caller's jobs run."""
    caller = os.getpid()

    def verify(ok):
        if os.getpid() != caller:
            os._exit(1)
        return ok
    return verify


def _no_fork(monkeypatch):
    monkeypatch.setattr(multiprocessing, "get_context", _refuse_context)
    return bool


def _fork_fails(monkeypatch):
    monkeypatch.setattr(os, "fork", _refuse_fork)
    return bool


def _second_fork_fails(monkeypatch):
    real_fork = os.fork
    forks = []

    def fork():
        forks.append(1)
        if len(forks) > 1:
            _refuse_fork()
        return real_fork()
    monkeypatch.setattr(os, "fork", fork)
    return bool


@pytest.mark.parametrize("bad", [set(), {1}, {5}])
@pytest.mark.parametrize("failure, error", [
    (_no_fork, "ValueError"),
    (_fork_fails, "OSError"),
    (_second_fork_fails, "OSError"),
    (_worker_dies, "BrokenProcessPool"),
], ids=["no-fork", "fork-fails", "second-fork-fails", "worker-dies"])
def test_pool_failure_falls_back_to_serial(three_cpus, monkeypatch, caplog,
                                          failure, error, bad):
    verify = failure(monkeypatch)
    jobs = [(verify, ok) for _, ok in _jobs(7, bad)]
    with caplog.at_level(logging.WARNING, logger=LOGGER):
        assert fanout.verify_each(jobs) == _results(7, bad)
    [record] = caplog.records
    assert record.levelno == logging.WARNING
    assert error in record.getMessage()
    assert "serially" in record.getMessage()
    assert multiprocessing.active_children() == []


def test_worker_dying_before_the_last_submit_falls_back(three_cpus,
                                                       monkeypatch, caplog):
    """A worker that dies before every chunk is handed out breaks the pool
    under ``submit`` itself."""
    real_submit = ProcessPoolExecutor.submit

    def submit(pool, *args):
        future = real_submit(pool, *args)
        wait([future], timeout=10)  # the worker that took it has died
        return future
    monkeypatch.setattr(ProcessPoolExecutor, "submit", submit)
    jobs = [(_worker_dies(monkeypatch), ok) for _, ok in _jobs(7, {5})]
    with caplog.at_level(logging.WARNING, logger=LOGGER):
        assert fanout.verify_each(jobs) == _results(7, {5})
    [record] = caplog.records
    assert "BrokenProcessPool" in record.getMessage()
    assert "serially" in record.getMessage()
    assert multiprocessing.active_children() == []


def test_other_threads_keep_the_check_in_the_caller(three_cpus, caplog):
    """Forking a process that runs threads is unsafe."""
    release = threading.Event()
    thread = threading.Thread(target=release.wait, args=(10,))
    thread.start()
    try:
        with caplog.at_level(logging.DEBUG, logger=LOGGER):
            assert fanout.verify_each(_jobs(7, {4})) == _results(7, {4})
    finally:
        release.set()
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert not caplog.records


# ---------------------------------------------------------------------------
# batched: a walk recorded, verified in one batch, rerun only on a failure
# ---------------------------------------------------------------------------

def _counted(check):
    """``check`` and the list of the arguments of each call made to it."""
    calls = []

    def counted(*args):
        calls.append(args)
        return check(*args)
    return counted, calls


def _walk(*jobs):
    """A walk that asks for ``jobs`` in order and stops at the first that
    fails, returning the answers it read, and the list of its runs."""
    runs = []

    def walk(verify):
        runs.append(verify)
        answers = []
        for check, *args in jobs:
            answers.append(verify(check, *args))
            if not answers[-1]:
                break
        return answers
    return walk, runs


@pytest.fixture()
def batches(monkeypatch):
    """The size of every batch verified."""
    sizes = []
    real_verify_each = fanout.verify_each

    def verify_each(jobs):
        sizes.append(len(jobs))
        return real_verify_each(jobs)
    monkeypatch.setattr(fanout, "verify_each", verify_each)
    return sizes


def test_batched_walks_once_when_every_check_passes(batches):
    check, calls = _counted(bool)
    a, b = object(), object()
    walk, runs = _walk((check, a), (check, b))
    assert fanout.batched(walk) == [True, True]
    assert len(runs) == 1
    assert batches == [2]
    assert calls == [(a,), (b,)]


def test_batched_walks_twice_when_a_check_fails(batches):
    """The first run reads True past the failure and batches every check
    after it; the second is answered from the batch and stops there."""
    good, bad, after = object(), object(), object()
    check, calls = _counted(lambda x: x is not bad)
    walk, runs = _walk((check, good), (check, bad), (check, after))
    assert fanout.batched(walk) == [True, False]
    assert len(runs) == 2
    assert batches == [3]
    assert calls == [(good,), (bad,), (after,)]


def test_batched_verifies_a_job_recorded_twice_once(batches):
    check, calls = _counted(bool)
    item = object()
    walk, _ = _walk((check, item), (check, item), (bool, item))
    assert fanout.batched(walk) == [True, True, True]
    assert batches == [2]
    assert calls == [(item,)]


def test_batched_answers_false_from_the_batch(batches):
    check, calls = _counted(lambda x: False)
    item = object()
    walk, runs = _walk((check, item))
    assert fanout.batched(walk) == [False]
    assert len(runs) == 2
    assert batches == [1]
    assert calls == [(item,)]


def test_batched_checks_an_equal_distinct_argument_on_the_spot(batches):
    """0.0 == -0.0, but only the batched object is answered from the batch:
    a second run that asks for an equal one verifies it on the spot."""
    check, calls = _counted(lambda x: math.copysign(1.0, x) > 0)
    recorded, equal, failing = 0.0, -0.0, -1.0
    asked = [recorded, equal]

    def walk(verify):
        return verify(check, asked.pop(0)), verify(check, failing)

    assert fanout.batched(walk) == (False, False)
    assert batches == [2]
    assert calls == [(recorded,), (failing,), (equal,)]


def test_batched_one_signature_under_two_keys_gets_two_results(batches):
    keys = MODERN.keygen(bytes(32))
    sig = MODERN.sign(keys.private_key, b"signed")
    signed, other = b"signed", b"other"
    check, calls = _counted(
        lambda message, s: MODERN.verify(keys.public_key, message, s))
    answers = []

    def walk(verify):
        answers.append((verify(check, signed, sig),
                        verify(check, other, sig)))
        return answers[-1]

    assert fanout.batched(walk) == (True, False)
    assert batches == [2]
    assert answers == [(True, True), (True, False)]
    assert len(calls) == 2
