"""Signature checks split across a pool of worker processes, and answered
from one batch: the same answer on every path."""

import contextlib
import errno
import logging
import os
import signal
import subprocess
import sys
import threading
import time
import tracemalloc
from dataclasses import replace
from pathlib import Path

import pytest

from locprov import crypto, fanout
from locprov.crypto import LEGACY, MODERN

LOGGER = "locprov.fanout"
KEYS = MODERN.keygen(bytes(32))
SRC = Path(__file__).resolve().parent.parent / "src"


def _signed(n, bad):
    """``n`` Ed25519 jobs; those at the indexes in ``bad`` carry a
    signature over another message."""
    return [("modern", KEYS.public_key, b"%d" % i,
             MODERN.raw_sign(KEYS.private_key,
                             b"%d" % (i + 1 if i in bad else i)))
            for i in range(n)]


def _results(n, bad):
    return [i not in bad for i in range(n)]


def _fake(monkeypatch, raw_verify):
    """Register a profile named "fake" whose ``raw_verify`` is given; each
    job's message is its index."""
    monkeypatch.setitem(crypto._PROFILES, "fake",
                        replace(MODERN, name="fake", raw_verify=raw_verify))


def _fake_jobs(n, bad=()):
    """``n`` jobs of the fake profile; those in ``bad`` carry signature 0."""
    return [("fake", b"", b"%d" % i, b"\0" if i in bad else b"\1")
            for i in range(n)]


def _refuse_fork():
    raise OSError(errno.ENOMEM, "Cannot allocate memory")


def _assert_no_child_left():
    """Every process the pool forked has exited and been reaped."""
    assert fanout._pool == []
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _messages(caplog):
    return [r.getMessage() for r in caplog.records]


@pytest.fixture()
def three_cpus(monkeypatch):
    monkeypatch.setattr(fanout, "_cpu_count", lambda: 3)


def test_below_threshold_runs_in_the_caller(monkeypatch, caplog):
    """A split needs two jobs: one job never forks, whatever the CPU
    count."""
    monkeypatch.delattr(os, "fork")
    with caplog.at_level(logging.DEBUG, logger=LOGGER):
        assert fanout.verify_each(_signed(1, {0})) == _results(1, {0})
    assert not caplog.records
    assert fanout._pool == []


def test_single_cpu_runs_in_the_caller(monkeypatch, caplog):
    monkeypatch.setattr(fanout, "_cpu_count", lambda: 1)
    monkeypatch.delattr(os, "fork")
    with caplog.at_level(logging.DEBUG, logger=LOGGER):
        assert fanout.verify_each(_signed(9, {8})) == _results(9, {8})
    assert not caplog.records


def test_cpu_count_follows_affinity():
    assert fanout._cpu_count() == len(os.sched_getaffinity(0))


@pytest.mark.parametrize("n, processes", [(1, 1), (2, 2), (7, 3), (40, 3)])
def test_one_process_per_job_up_to_the_cpu_count(three_cpus, monkeypatch,
                                                 caplog, n, processes):
    """Even one job per process pays, so no process gets none, and the pool
    forks no worker the split does not use."""
    if processes == 1:
        monkeypatch.delattr(os, "fork")
    with caplog.at_level(logging.DEBUG, logger=LOGGER):
        assert fanout.verify_each(_signed(n, {0})) == _results(n, {0})
    assert _messages(caplog) == (
        [f"verifying {n} signatures in {processes} processes"]
        if processes > 1 else [])
    assert len(fanout._pool) == processes - 1


@pytest.mark.parametrize("bad", [set(), {0}, {2}, {3}, {4}, {6}, {3, 6},
                                 {4, 5}, {6, 0}],
                         ids=lambda bad: "-".join(map(str, sorted(bad)))
                         or "none")
def test_fan_out_finds_the_first_failure(three_cpus, caplog, bad):
    """7 jobs over 3 CPUs: chunks [0, 2), [2, 4), [4, 7). Every result is
    returned, the first failure's and those after it."""
    with caplog.at_level(logging.DEBUG, logger=LOGGER):
        assert fanout.verify_each(_signed(7, bad)) == _results(7, bad)
    assert _messages(caplog) == ["verifying 7 signatures in 3 processes"]


def test_failures_in_every_chunk_all_reported(three_cpus):
    """Two failures in each of the three chunks of 12 jobs, [0, 4), [4, 8)
    and [8, 12): no chunk stops at its first."""
    bad = {1, 3, 4, 6, 9, 11}
    assert fanout.verify_each(_signed(12, bad)) == _results(12, bad)


def test_workers_get_any_triple_as_bytes(three_cpus):
    """Both profiles, empty and oversized fields, and a message larger than
    a pipe holds all reach a worker intact."""
    legacy = LEGACY.keygen(bytes(32))
    big = bytes(range(256)) * 1024
    jobs = [
        ("legacy", legacy.public_key, b"", LEGACY.raw_sign(legacy.private_key,
                                                          b"")),
        ("modern", KEYS.public_key, big, MODERN.raw_sign(KEYS.private_key,
                                                         big)),
        ("modern", b"", b"m", b""),
        ("legacy", legacy.public_key, big[:-1],
         LEGACY.raw_sign(legacy.private_key, big)),
        *_signed(5, {4}),
        ("modern", KEYS.public_key, big, bytes(64)),
    ]
    assert fanout.verify_each(jobs) == fanout._verify(jobs) == [
        True, True, False, False, True, True, True, True, False, False]
    assert len(fanout._pool) == 2


def test_workers_are_forked_once_and_reused(three_cpus, monkeypatch, caplog):
    real_fork, forks = os.fork, []

    def fork():
        forks.append(1)
        return real_fork()
    monkeypatch.setattr(os, "fork", fork)
    with caplog.at_level(logging.DEBUG, logger=LOGGER):
        for bad in ({1}, {4}, set()):
            assert fanout.verify_each(_signed(7, bad)) == _results(7, bad)
    assert len(forks) == 2
    assert _messages(caplog) == ["verifying 7 signatures in 3 processes"] * 3


def _in_workers(act):
    """A fake ``raw_verify`` that runs ``act(index)`` in a worker, and
    answers by the signature byte."""
    caller = os.getpid()

    def raw_verify(public_key, message, signature):
        if os.getpid() != caller:
            act(int(message))
        return signature == b"\1"
    return raw_verify


def _exit_at_4(index):
    if index >= 4:
        os._exit(1)


def _kill_at_4(index):
    if index >= 4:
        os.kill(os.getpid(), signal.SIGKILL)


def _worker_dies(monkeypatch):
    """The worker given [4, 7) exits with status 1 on its first job."""
    _fake(monkeypatch, _in_workers(_exit_at_4))


def _worker_killed(monkeypatch):
    _fake(monkeypatch, _in_workers(_kill_at_4))


def _short_read(monkeypatch):
    """Every worker writes all its results but the last, and exits 0."""
    caller, real_write = os.getpid(), os.write

    def write(fd, data):
        if os.getpid() == caller:
            return real_write(fd, data)
        real_write(fd, bytes(data[:-1]))
        os._exit(0)
    monkeypatch.setattr(os, "write", write)
    _fake(monkeypatch, _in_workers(lambda index: None))


def _fork_fails(monkeypatch):
    monkeypatch.setattr(os, "fork", _refuse_fork)
    _fake(monkeypatch, _in_workers(lambda index: None))


def _second_fork_fails(monkeypatch):
    real_fork = os.fork
    forks = []

    def fork():
        forks.append(1)
        if len(forks) > 1:
            _refuse_fork()
        return real_fork()
    monkeypatch.setattr(os, "fork", fork)
    _fake(monkeypatch, _in_workers(lambda index: None))


@pytest.mark.parametrize("bad", [set(), {1}, {5}])
@pytest.mark.parametrize("failure, error", [
    (_fork_fails, "OSError"),
    (_second_fork_fails, "OSError"),
    (_worker_dies, "0 of 3"),
    (_worker_killed, "0 of 3"),
    (_short_read, "1 of 2"),
], ids=["fork-fails", "second-fork-fails", "worker-dies", "worker-killed",
        "short-read"])
def test_pool_failure_falls_back_to_serial(three_cpus, monkeypatch, caplog,
                                          failure, error, bad):
    """7 jobs over 3 CPUs: the whole pool is killed and reaped, and the
    caller verifies all 7, under one warning."""
    failure(monkeypatch)
    with caplog.at_level(logging.WARNING, logger=LOGGER):
        assert fanout.verify_each(_fake_jobs(7, bad)) == _results(7, bad)
    [record] = caplog.records
    assert record.levelno == logging.WARNING
    assert error in record.getMessage()
    assert "verifying 7 signatures serially" in record.getMessage()
    _assert_no_child_left()


def _raises_at(index, exc):
    def raw_verify(public_key, message, signature):
        if int(message) == index:
            raise exc(f"job {index}")
        return True
    return raw_verify


def test_check_raising_in_a_worker_raises_in_the_caller(three_cpus,
                                                        monkeypatch, caplog):
    """The worker exits; the caller verifies the whole batch and raises
    what a serial run raises."""
    _fake(monkeypatch, _raises_at(5, ValueError))
    jobs = _fake_jobs(7)
    with pytest.raises(ValueError, match="job 5"):
        fanout._verify(jobs)
    with caplog.at_level(logging.WARNING, logger=LOGGER):
        with pytest.raises(ValueError, match="job 5"):
            fanout.verify_each(jobs)
    [record] = caplog.records
    assert "short read" in record.getMessage()
    _assert_no_child_left()


@pytest.mark.parametrize("exc", [ValueError, KeyboardInterrupt])
def test_check_raising_in_the_caller_kills_the_workers(three_cpus,
                                                       monkeypatch, exc):
    """The workers would verify for 30 s; they are killed and reaped as the
    caller's exception propagates, and the next batch forks afresh."""
    caller = os.getpid()
    raising = _raises_at(0, exc)

    def raw_verify(public_key, message, signature):
        if os.getpid() != caller:
            time.sleep(30)
        return raising(public_key, message, signature)
    _fake(monkeypatch, raw_verify)
    began = time.monotonic()
    with pytest.raises(exc, match="job 0"):
        fanout.verify_each(_fake_jobs(7))
    assert time.monotonic() - began < 10
    _assert_no_child_left()
    assert fanout.verify_each(_signed(7, {6})) == _results(7, {6})
    assert len(fanout._pool) == 2


def test_other_threads_keep_the_check_in_the_caller(three_cpus, caplog):
    """Forking, or using workers forked before, while the process runs
    other threads is unsafe."""
    assert fanout.verify_each(_signed(7, set())) == _results(7, set())
    pool = list(fanout._pool)
    release = threading.Event()
    thread = threading.Thread(target=release.wait, args=(10,))
    thread.start()
    try:
        with caplog.at_level(logging.DEBUG, logger=LOGGER):
            assert fanout.verify_each(_signed(7, {4})) == _results(7, {4})
    finally:
        release.set()
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert not caplog.records
    assert fanout._pool == pool


# ---------------------------------------------------------------------------
# the pool's lifetime: killed workers, forked children, exiting owners
# ---------------------------------------------------------------------------

def test_worker_killed_between_batches_falls_back_then_splits_again(
        three_cpus, caplog):
    jobs, expected = _signed(7, {5}), _results(7, {5})
    assert fanout.verify_each(jobs) == expected
    os.kill(fanout._pool[0][0], signal.SIGKILL)
    with caplog.at_level(logging.DEBUG, logger=LOGGER):
        assert fanout.verify_each(jobs) == expected
    [warning] = [r for r in caplog.records if r.levelno == logging.WARNING]
    assert "verifying 7 signatures serially" in warning.getMessage()
    _assert_no_child_left()
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger=LOGGER):
        assert fanout.verify_each(jobs) == expected
    assert _messages(caplog) == ["verifying 7 signatures in 3 processes"]
    assert len(fanout._pool) == 2


def _closed(fd):
    try:
        os.fstat(fd)
    except OSError:
        return True
    return False


def test_forked_child_never_touches_the_owners_pipes(three_cpus, caplog):
    """A child forked from the owner finds the owner's pipe ends closed and
    no pool; its own split forks its own workers. The owner's workers then
    answer the owner's next batch in step."""
    jobs, expected = _signed(7, {2}), _results(7, {2})
    assert fanout.verify_each(jobs) == expected
    pool = list(fanout._pool)
    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(read_end)
            ok = (fanout._pool == []
                  and all(_closed(fd) for _, job_fd, result_fd in pool
                          for fd in (job_fd, result_fd))
                  and fanout.verify_each(jobs) == expected
                  and len(fanout._pool) == 2
                  and {p for p, _, _ in fanout._pool}.isdisjoint(
                      p for p, _, _ in pool))
            fanout._shutdown()
            os.write(write_end, b"1" if ok else b"0")
            status = 0
        finally:
            os._exit(status)
    os.close(write_end)
    try:
        answer = os.read(read_end, 1)
    finally:
        os.close(read_end)
        os.waitpid(pid, 0)
    assert answer == b"1"
    other, other_expected = _signed(9, {0, 8}), _results(9, {0, 8})
    with caplog.at_level(logging.DEBUG, logger=LOGGER):
        assert fanout.verify_each(other) == other_expected
    assert _messages(caplog) == ["verifying 9 signatures in 3 processes"]
    assert fanout._pool == pool


# A process that splits one batch over three processes, prints its workers'
# pids and whether it imported pickle, then exits, or waits on stdin when
# given "wait". Given "refork", it first kills a worker, splits again (the
# pool fails, and the batch is verified serially), and splits once more,
# which forks a fresh pool.
_OWNER = f"""
import os, signal, sys
sys.path.insert(0, {str(SRC)!r})
from locprov import fanout
from locprov.crypto import MODERN
fanout._cpu_count = lambda: 3
keys = MODERN.keygen(bytes(32))
jobs = [("modern", keys.public_key, b"%d" % i,
         MODERN.raw_sign(keys.private_key, b"%d" % i)) for i in range(8)]
assert fanout.verify_each(jobs) == [True] * 8
if sys.argv[1:] == ["refork"]:
    killed = [pid for pid, _, _ in fanout._pool]
    os.kill(killed[0], signal.SIGKILL)
    assert fanout.verify_each(jobs) == [True] * 8
    assert fanout._pool == []
    assert fanout.verify_each(jobs) == [True] * 8
    assert killed[0] not in (pid for pid, _, _ in fanout._pool)
print(*(pid for pid, _, _ in fanout._pool), "pickle" in sys.modules,
      flush=True)
if sys.argv[1:] == ["wait"]:
    sys.stdin.read()
"""


def _live_in_session(sid):
    """Pids of the processes of session ``sid`` that are not zombies."""
    live = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path(f"/proc/{entry}/stat").read_text()
        except OSError:  # exited meanwhile
            continue
        # pid (comm) state ppid pgrp session ...; comm may hold spaces
        state, _, _, session = stat.rsplit(")", 1)[1].split()[:4]
        if int(session) == sid and state != "Z":
            live.append(int(entry))
    return live


needs_proc = pytest.mark.skipif(not os.path.isdir("/proc"),
                                reason="reads sessions from /proc")


def _owner_exits_alone(*args):
    """Run ``_OWNER`` with ``args`` in a session of its own: its stdout
    reaches end of file as it exits (no worker holds it), and then no
    process of its session remains."""
    owner = subprocess.Popen([sys.executable, "-c", _OWNER, *args],
                             start_new_session=True, stdout=subprocess.PIPE,
                             text=True)
    out, _ = owner.communicate(timeout=60)
    assert owner.returncode == 0
    *workers, pickled = out.split()
    assert len(workers) == 2
    assert pickled == "False"
    # start_new_session: the owner's pid is its session's id
    assert _live_in_session(owner.pid) == []


@needs_proc
def test_no_worker_outlives_an_owner_that_exits():
    _owner_exits_alone()


@needs_proc
def test_no_worker_outlives_an_owner_that_reforked_its_pool():
    """The exit hook kills a pool forked after an earlier one failed."""
    _owner_exits_alone("refork")


# ``_OWNER`` that, before it exits, starts a process that holds its first
# worker's job pipe open (``subprocess`` runs no fork hook) and prints that
# process's pid.
_HOLDER = _OWNER + """
import subprocess
holder = subprocess.Popen(
    [sys.executable, "-c", "import time; time.sleep(60)"],
    pass_fds=[fanout._pool[0][1]], stdin=subprocess.DEVNULL,
    stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
print(holder.pid, flush=True)
"""


@needs_proc
def test_exit_hook_kills_a_worker_whose_pipe_another_process_holds():
    """No EOF reaches a worker whose job pipe another process holds open:
    only its owner's exit hook stops it as the owner exits."""
    owner = subprocess.Popen([sys.executable, "-c", _HOLDER],
                             start_new_session=True, stdout=subprocess.PIPE,
                             text=True)
    try:
        out, _ = owner.communicate(timeout=60)
        assert owner.returncode == 0
        holder = int(out.splitlines()[-1])
        assert _live_in_session(owner.pid) == [holder]
    finally:
        # the holder, and any worker left: the owner's pid is the group's id
        with contextlib.suppress(ProcessLookupError):
            os.killpg(owner.pid, signal.SIGKILL)


@needs_proc
def test_workers_exit_after_their_owner_is_killed():
    owner = subprocess.Popen([sys.executable, "-c", _OWNER, "wait"],
                             start_new_session=True, stdin=subprocess.PIPE,
                             stdout=subprocess.PIPE, text=True)
    try:
        workers = [int(pid) for pid in owner.stdout.readline().split()[:-1]]
        assert len(workers) == 2
        assert set(workers) <= set(_live_in_session(owner.pid))
    finally:
        owner.kill()
        owner.wait(timeout=10)
        owner.stdin.close()
        owner.stdout.close()
    deadline = time.monotonic() + 10
    while _live_in_session(owner.pid) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert _live_in_session(owner.pid) == []


# ---------------------------------------------------------------------------
# batched: a walk recorded, verified in one batch, rerun only on a failure
# ---------------------------------------------------------------------------

def _signature(message, signed=None):
    """A modern signature by ``KEYS`` over ``signed`` (default: the
    message itself)."""
    return crypto.Signature("ed25519", MODERN.raw_sign(
        KEYS.private_key, message if signed is None else signed))


@pytest.fixture()
def counted(monkeypatch):
    """A modern profile that lists the message of each raw verify it makes,
    in the batch or on the spot, and that list. Batches stay in this
    process, where the list is."""
    calls = []
    monkeypatch.setattr(fanout, "_cpu_count", lambda: 1)

    def raw_verify(public_key, message, signature):
        calls.append(message)
        return MODERN.raw_verify(public_key, message, signature)
    profile = replace(MODERN, raw_verify=raw_verify)
    monkeypatch.setitem(crypto._PROFILES, "modern", profile)
    return profile, calls


def _walk(*checks):
    """A walk that verifies ``checks``, (message, signature) pairs, in order
    and stops at the first that fails, returning the answers it read, and
    the list of its runs."""
    runs = []

    def walk(profile):
        runs.append(profile)
        answers = []
        for message, sig in checks:
            answers.append(profile.verify(KEYS.public_key, message, sig))
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


def test_batched_walks_once_when_every_check_passes(counted, batches):
    profile, calls = counted
    walk, runs = _walk((b"a", _signature(b"a")), (b"b", _signature(b"b")))
    assert fanout.batched(profile, walk) == [True, True]
    assert len(runs) == 1
    assert batches == [2]
    assert calls == [b"a", b"b"]


def test_batched_walks_twice_when_a_check_fails(counted, batches):
    """The first run reads True past the failure and batches every check
    after it; the second is answered from the batch and stops there."""
    profile, calls = counted
    walk, runs = _walk((b"good", _signature(b"good")),
                       (b"bad", _signature(b"bad", b"other")),
                       (b"after", _signature(b"after")))
    assert fanout.batched(profile, walk) == [True, False]
    assert len(runs) == 2
    assert batches == [3]
    assert calls == [b"good", b"bad", b"after"]


def test_batched_verifies_a_job_recorded_twice_once(counted, batches):
    """Jobs are keyed by value: equal bytes in distinct objects are one
    job."""
    profile, calls = counted
    sig = _signature(b"item")
    walk, _ = _walk((b"item", sig), (bytes(bytearray(b"item")), replace(sig)),
                    (b"other", _signature(b"other")))
    assert fanout.batched(profile, walk) == [True, True, True]
    assert batches == [2]
    assert calls == [b"item", b"other"]


def test_batched_answers_false_from_the_batch(counted, batches):
    profile, calls = counted
    walk, runs = _walk((b"item", _signature(b"item", b"other")))
    assert fanout.batched(profile, walk) == [False]
    assert len(runs) == 2
    assert batches == [1]
    assert calls == [b"item"]


def test_batched_checks_a_triple_it_does_not_hold_on_the_spot(counted,
                                                              batches):
    """A second run that asks for a signature the first did not is
    verified on the spot."""
    profile, calls = counted
    asked = [b"recorded", b"new"]
    failing = _signature(b"failing", b"other")

    def walk(profile):
        message = asked.pop(0)
        return (profile.verify(KEYS.public_key, message, _signature(message)),
                profile.verify(KEYS.public_key, b"failing", failing))

    assert fanout.batched(profile, walk) == (True, False)
    assert batches == [2]
    assert calls == [b"recorded", b"failing", b"new"]


def test_batched_one_signature_under_two_keys_gets_two_results(counted,
                                                               batches):
    profile, calls = counted
    sig = _signature(b"signed")
    answers = []

    def walk(profile):
        answers.append((profile.verify(KEYS.public_key, b"signed", sig),
                        profile.verify(KEYS.public_key, b"other", sig)))
        return answers[-1]

    assert fanout.batched(profile, walk) == (True, False)
    assert batches == [2]
    assert answers == [(True, True), (True, False)]
    assert len(calls) == 2


def test_batched_refuses_a_foreign_scheme_without_a_job(counted, batches):
    """``CryptoProfile.verify``'s scheme and type check runs for real in
    the recording run: a signature of another scheme reads False there and
    reaches no batch."""
    profile, calls = counted
    legacy = replace(_signature(b"item"), scheme_id=LEGACY.scheme_id)
    walk, runs = _walk((b"a", _signature(b"a")), (b"item", legacy))
    assert fanout.batched(profile, walk) == [True, False]
    assert len(runs) == 1
    assert batches == [1]
    assert calls == [b"a"]


def test_batched_hands_jobs_to_a_batch_past_its_budget(counted, batches,
                                                       monkeypatch):
    """Jobs whose messages pass ``BATCH_BYTES`` go to a batch there and
    then. Those that passed are kept as hashes only, and a second run
    answers each one it reaches again from them, as it answers a failed
    one from the batch: no signature is verified twice."""
    monkeypatch.setattr(fanout, "BATCH_BYTES", 5)
    profile, calls = counted
    walk, runs = _walk((b"one", _signature(b"one")),
                       (b"two", _signature(b"two")),
                       (b"bad", _signature(b"bad", b"other")),
                       (b"last", _signature(b"last")))
    assert fanout.batched(profile, walk) == [True, True, False]
    assert len(runs) == 2
    assert batches == [2, 2]
    assert calls == [b"one", b"two", b"bad", b"last"]


def test_flushed_batches_keep_a_verdict_per_job_not_the_job(monkeypatch):
    """Past a flush each job, failed or passed, is kept as its hash and
    verdict only: when the second run of a walk whose N 4 KB signatures
    all fail starts, the first has left about the budget plus 200 B a job,
    not the failed jobs. The verdict is the same."""
    monkeypatch.setattr(fanout, "BATCH_BYTES", 64 << 10)
    monkeypatch.setattr(fanout, "_cpu_count", lambda: 1)
    n = 600
    bad = _signature(b"another message")
    held = []

    def walk(profile):
        held.append(tracemalloc.get_traced_memory()[0])
        return [profile.verify(KEYS.public_key, b"%04d" % i * 1024, bad)
                for i in range(n)]

    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        assert fanout.batched(MODERN, walk) == [False] * n
    finally:
        tracemalloc.stop()
    assert len(held) == 2
    assert held[1] - before < fanout.BATCH_BYTES + 200 * n


def test_job_hashes_tell_apart_fields_split_differently():
    """A job's hash prefixes each field with its length: moving bytes from
    one field to the next changes it."""
    job = ("modern", b"key", b"message", b"signature")
    hashes = {fanout._job_hash(j) for j in (
        job, ("modern", b"keym", b"essage", b"signature"),
        ("modern", b"key", b"messages", b"ignature"),
        ("moder", b"nkey", b"message", b"signature"))}
    assert len(hashes) == 4


def test_batched_under_its_budget_is_one_batch(counted, batches,
                                               monkeypatch):
    monkeypatch.setattr(fanout, "BATCH_BYTES", 6)
    profile, calls = counted
    walk, _ = _walk((b"one", _signature(b"one")), (b"two", _signature(b"two")))
    assert fanout.batched(profile, walk) == [True, True]
    assert batches == [2]
