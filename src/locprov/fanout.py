"""Independent signature checks, split across the machine's CPUs.

An audit's signatures do not depend on one another: claim proofs,
endorsements, epoch reports, hash-chain links and revealed Bloom
accumulators. ``audit`` hands its walk over all of them to ``batched``
once. ``cryptography`` has no batch Ed25519 verify and holds the
interpreter lock while it verifies, so threads gain nothing; processes do.

``batched(profile, walk)`` lets the walk be its own plan. Every signature
check a walk makes ends in ``profile.verify``, and a failed one is read
only to exit early. ``batched`` first runs the walk with a copy of
``profile`` whose ``raw_verify`` records the triple it is asked about,
``(public key, message, signature bytes)``, and answers True;
``CryptoProfile.verify``'s own scheme and type check still runs for real.
So that run reaches every signature a real run can. The distinct triples,
keyed by value under the profile's name (equal bytes give an equal
result), go to one ``verify_each`` call whenever their messages pass
``BATCH_BYTES`` (8 MiB), and once more when the run ends. Of a batch
flushed mid-run, past the budget, each job is kept only as its verdict
under the SHA-256 of its length-prefixed fields, and its bytes are
dropped; so the run holds at most about that budget of messages, plus one
hash and verdict per flushed job, whether it passed or failed. No
benchmark presentation reaches the budget: each is verified in one batch,
the last, and hashes nothing. If all passed, that run's result is
returned; else the walk runs again with a profile that answers a triple of
the last batch with its verdict, one of a flushed batch with the verdict
of its hash, and verifies on the spot any other, one the first run did not
ask. So the batches change how fast a walk runs, never what it decides, as
far as SHA-256 is collision resistant: past a flush, a triple the first
run did not ask that hashes like one that passed would be answered True.
Flushed jobs that share a hash keep the verdict of both anded, so a
collision among them can only make a signature read as failed. But code
past a check in the first run sees unauthenticated input, so it must cost
no more than the input's size (``bloom_well_formed`` bounds a membership
check so).

A failing walk's batches also hold the checks after its first bad
signature. Past a flush, a failing walk pays one more SHA-256 over each
signature job of its second run that is not in the last batch; it
verifies no signature twice.

``verify_each(jobs)`` takes jobs ``(profile name, public key, message,
signature bytes)`` and returns each one's ``get_profile(name).raw_verify``
result, in order. It cuts them into one contiguous chunk per CPU the
process may run on (``os.sched_getaffinity``), but no more chunks than
jobs: even one job per process pays (``BENCH_workers.json``). The caller
writes each chunk but the first to one worker of its pool as one pickle,
verifies the first chunk itself, then reads one result byte per job from
each worker. A worker unpickles only what its owner pickled: a job pipe
runs from the owner to its own fork, and chain-file bytes cross it only as
``bytes`` values. The ``locprov.fanout`` logger records each split at
DEBUG and each fall-back at WARNING.

The pool lives as long as the process, under these rules:

* It forks, and is used, only while ``threading.active_count() == 1``:
  forking a process that runs threads is unsafe. Else, on one CPU or for
  one job, the caller verifies every job. A worker is forked the first
  time a split needs it, and serves every later batch.
* It belongs to the process that forked it. In any process forked from
  that one, a worker included, an ``os.register_at_fork`` hook closes the
  inherited caller-side pipe ends and forgets the pool, so EOF reaches
  every worker when its owner dies.
* A worker's stdin, stdout and stderr are ``/dev/null``: it holds none of
  the owner's output open. It leaves through ``os._exit`` on EOF or on any
  exception, never returning into the owner's stack.
* An ``atexit`` handler kills and reaps every worker of the exiting owner.
* A pool failure (a pipe or fork that fails, ``EPIPE``, a short read)
  kills and reaps the pool, and the caller verifies the whole batch, under
  one WARNING. An exception in the caller's own chunk (``KeyboardInterrupt``
  included) kills and reaps the pool and propagates. The next batch may
  fork afresh. Neither results nor exceptions depend on the path.
"""

from __future__ import annotations

import atexit
import dataclasses
import hashlib
import os
import signal
import struct
import threading
from typing import Any, BinaryIO, Callable, Sequence

from .crypto import CryptoProfile, get_profile

# A job: profile name, public key, message, signature bytes.
Job = tuple[str, bytes, bytes, bytes]

_FIELDS = struct.Struct(">IIII")  # lengths of one job's four fields

# Message bytes the recording run of ``batched`` holds before it hands its
# jobs to ``verify_each``. The largest benchmark presentation signs about
# 300 KB in all.
BATCH_BYTES = 8 << 20

# (pid, job pipe write end, result pipe read end) of each worker, owned by
# this process.
_pool: list[tuple[int, int, BinaryIO]] = []


def batched(profile: CryptoProfile,
            walk: Callable[[CryptoProfile], Any]) -> Any:
    """``walk(profile)``'s result, its signature checks verified in
    batches of about ``BATCH_BYTES`` of messages (see module doc)."""
    name = profile.name
    jobs: dict[Job, None] = {}
    held = 0  # message bytes in ``jobs``
    flushed: dict[bytes, bool] = {}  # verdicts of flushed batches, by hash

    def record(public_key: bytes, message: bytes, signature: bytes) -> bool:
        nonlocal held
        job = name, public_key, message, signature
        if job not in jobs:
            jobs[job] = None
            held += len(message)
            if held > BATCH_BYTES:
                for flushed_job, ok in zip(jobs, verify_each(list(jobs))):
                    key = _job_hash(flushed_job)
                    flushed[key] = ok and flushed.get(key, True)
                jobs.clear()
                held = 0
        return True

    result = walk(dataclasses.replace(profile, raw_verify=record))
    answers = dict(zip(jobs, verify_each(list(jobs)))) if jobs else {}
    if all(answers.values()) and all(flushed.values()):
        return result

    def answer(public_key: bytes, message: bytes, signature: bytes) -> bool:
        job = name, public_key, message, signature
        got = answers.get(job)
        if got is None and flushed:
            got = flushed.get(_job_hash(job))
        if got is None:
            return profile.raw_verify(public_key, message, signature)
        return got
    return walk(dataclasses.replace(profile, raw_verify=answer))


def _job_hash(job: Job) -> bytes:
    """SHA-256 over ``job``'s four fields, each prefixed by its length."""
    name, public_key, message, signature = job
    name_bytes = name.encode()
    h = hashlib.sha256(_FIELDS.pack(len(name_bytes), len(public_key),
                                    len(message), len(signature)))
    for field in (name_bytes, public_key, message, signature):
        h.update(field)
    return h.digest()


def verify_each(jobs: Sequence[Job]) -> list[bool]:
    """Each job's ``get_profile(name).raw_verify`` result, in order (see
    module doc)."""
    cpus = min(_cpu_count(), len(jobs))
    if cpus < 2 or threading.active_count() > 1:
        return _verify(jobs)
    return _fan_out(jobs, cpus)


def _cpu_count() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no CPU affinity on this platform
        return 1


def _verify(jobs: Sequence[Job]) -> list[bool]:
    return [bool(get_profile(name).raw_verify(public_key, message, signature))
            for name, public_key, message, signature in jobs]


def _fan_out(jobs: Sequence[Job], cpus: int) -> list[bool]:
    import logging  # here: a process that never splits saves 0.6-1.1 MB
    import pickle  # likewise: about 0.14 MB

    logger = logging.getLogger(__name__)
    bounds = [len(jobs) * i // cpus for i in range(cpus + 1)]
    chunks = list(zip(bounds[1:], bounds[2:]))

    def serially(failure: str) -> list[bool]:
        _shutdown()
        logger.warning("verify workers failed (%s); verifying %d signatures "
                       "serially", failure, len(jobs))
        return _verify(jobs)
    try:
        try:
            while len(_pool) < len(chunks):
                _pool.append(_start_worker())
            for (_, job_fd, _), (start, stop) in zip(_pool, chunks):
                _write(job_fd, pickle.dumps(jobs[start:stop]))
        except OSError as exc:  # a pipe or fork failed, or EPIPE
            return serially(f"{type(exc).__name__}: {exc}")
        logger.debug("verifying %d signatures in %d processes", len(jobs),
                     cpus)
        results = _verify(jobs[:bounds[1]])
        for (pid, _, results_file), (start, stop) in zip(_pool, chunks):
            got = results_file.read(stop - start)  # short only at EOF
            if len(got) != stop - start:
                return serially(f"short read from worker {pid}: "
                                f"{len(got)} of {stop - start}")
            results += map(bool, got)
    except BaseException:  # the caller's chunk raised, or an interrupt
        _shutdown()
        raise
    return results


def _write(fd: int, data: bytes) -> None:
    view = memoryview(data)
    while view:
        view = view[os.write(fd, view):]


def _start_worker() -> tuple[int, int, BinaryIO]:
    """Fork a worker serving its own pair of pipes; its pid, the job pipe's
    write end and the result pipe's read end."""
    job_read, job_write = os.pipe()
    try:
        result_read, result_write = os.pipe()
    except OSError:
        os.close(job_read)
        os.close(job_write)
        raise
    caller, pid, status = os.getpid(), None, 1
    try:
        if (pid := os.fork()) == 0:
            os.close(job_write)
            os.close(result_read)
            null = os.open(os.devnull, os.O_RDWR)
            for fd in (0, 1, 2):
                os.dup2(null, fd)
            _serve(job_read, result_write)
            status = 0
    finally:
        if os.getpid() != caller:  # whatever raised: no atexit, no flush
            os._exit(status)
        os.close(job_read)
        os.close(result_write)
        if pid is None:  # the fork failed
            os.close(job_write)
            os.close(result_read)
    return pid, job_write, open(result_read, "rb")


def _serve(job_fd: int, result_fd: int) -> None:
    """A worker's loop: verify each pickled chunk until end of file."""
    import pickle

    jobs = open(job_fd, "rb")
    while jobs.peek(1):  # empty only at end of file
        _write(result_fd, bytes(_verify(pickle.load(jobs))))


def _shutdown() -> None:
    """Kill and reap every worker of this process's pool."""
    for pid in _forget_pool():
        try:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        except (ProcessLookupError, ChildProcessError):  # reaped already
            pass


def _forget_pool() -> list[int]:
    """Close this process's ends of the pool's pipes and drop the pool;
    the workers' pids. Runs in every process forked from the pool's owner
    (see module doc)."""
    pids = [pid for pid, _, _ in _pool]
    for _, job_fd, results_file in _pool:
        os.close(job_fd)
        results_file.close()
    _pool.clear()
    return pids


atexit.register(_shutdown)
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)
