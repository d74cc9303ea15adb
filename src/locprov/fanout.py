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
result), are verified in one ``verify_each`` call. If all passed, that
run's result is returned; else the walk runs again with a profile that
answers from the batch, or verifies on the spot a triple the batch does not
hold. So the batch changes how fast a walk runs, never what it decides.
But code past a check in the first run sees unauthenticated input, so it
must cost no more than the input's size (``bloom_well_formed`` bounds a
membership check so). A failing walk's batch also holds the checks after
its first bad signature.

``verify_each(jobs)`` takes jobs ``(profile name, public key, message,
signature bytes)`` and returns each one's ``get_profile(name).raw_verify``
result, in order. With fewer than ``FANOUT_MIN_JOBS`` jobs, on one CPU, or
while the process runs other threads, it verifies them in the calling
process. Otherwise it cuts them into one contiguous chunk per CPU the
process may run on (``os.sched_getaffinity``), but into no more chunks than
give each ``FANOUT_MIN_JOBS / 2`` jobs. The caller writes each chunk but the
first to one worker of its pool, verifies the first chunk itself, then reads
one byte per job back from each worker. A worker reads one length-prefixed
frame of triples at a time from its own job pipe (``struct`` lengths, no
``pickle``), verifies them and writes the results to its own result pipe.
The ``locprov.fanout`` logger records each split at DEBUG and each
fall-back at WARNING.

The pool lives as long as the process, under these rules:

* It forks, and is used, only while ``threading.active_count() == 1``:
  forking a process that runs threads is unsafe. The first batch that
  needs workers forks them, at most one per extra CPU; later batches reuse
  them and fork only the workers a larger split needs.
* It belongs to the process that forked it. In any process forked from
  that one, a worker included, an ``os.register_at_fork`` hook closes the
  inherited caller-side pipe ends and forgets the pool, so that process
  never touches them and EOF reaches every worker when its owner dies.
* A worker points its stdin, stdout and stderr at ``/dev/null``, so it
  holds none of the owner's output open. It leaves through ``os._exit`` on
  EOF or on any exception, never returning into the owner's stack.
* An ``atexit`` handler in the owner kills and reaps every worker.
* Any failure kills and reaps the whole pool: a fork that fails, a write
  to a worker that has gone (``EPIPE``), a short read from one that died,
  or an exception in the caller's own chunk (``KeyboardInterrupt``
  included), which is then re-raised. Otherwise the chunks no worker
  answered are verified in the caller, under one WARNING. The next batch
  may fork afresh. The results, and any exception a check raises, never
  depend on the path.
"""

from __future__ import annotations

import dataclasses
import os
import signal
import struct
import threading
from typing import Any, Callable, Sequence

from .crypto import CryptoProfile, get_profile

# Fewest jobs worth a 2-way split: handing a chunk to a live worker and
# reading its answer cost the caller 0.05-0.08 ms in a 50 MB process on a
# 2-CPU guest, a verify 0.2 ms, so even one job per process pays; timed
# against one process, a 2-job split won 86% of repetitions
# (BENCH_workers.json).
FANOUT_MIN_JOBS = 2

# A job: profile name, public key, message, signature bytes.
Job = tuple[str, bytes, bytes, bytes]

_FRAME = struct.Struct(">I")     # bytes in the frame that follows
_FIELDS = struct.Struct(">IIII")  # lengths of one job's four fields

# (pid, job pipe write end, result pipe read end) of each worker, owned by
# this process.
_pool: list[tuple[int, int, int]] = []


def batched(profile: CryptoProfile,
            walk: Callable[[CryptoProfile], Any]) -> Any:
    """``walk(profile)``'s result, its signature checks verified in one
    batch (see module doc)."""
    name = profile.name
    jobs: dict[Job, None] = {}

    def record(public_key: bytes, message: bytes, signature: bytes) -> bool:
        jobs[name, public_key, message, signature] = None
        return True

    result = walk(dataclasses.replace(profile, raw_verify=record))
    passed = verify_each(list(jobs))
    if all(passed):
        return result
    answers = dict(zip(jobs, passed))

    def answer(public_key: bytes, message: bytes, signature: bytes) -> bool:
        got = answers.get((name, public_key, message, signature))
        if got is None:
            return profile.raw_verify(public_key, message, signature)
        return got
    return walk(dataclasses.replace(profile, raw_verify=answer))


def verify_each(jobs: Sequence[Job]) -> list[bool]:
    """Each job's ``get_profile(name).raw_verify`` result, in order (see
    module doc)."""
    cpus = min(_cpu_count(), 2 * len(jobs) // FANOUT_MIN_JOBS)
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

    logger = logging.getLogger(__name__)
    bounds = [len(jobs) * i // cpus for i in range(cpus + 1)]
    chunks = [jobs[start:stop] for start, stop in zip(bounds[1:], bounds[2:])]
    answered: list[bool] = []
    try:
        try:
            workers = _workers(cpus - 1)
            for (_, job_fd, _), chunk in zip(workers, chunks):
                _send(job_fd, chunk)
        except (AttributeError, OSError) as exc:  # no os.fork, or EPIPE
            failure = f"{type(exc).__name__}: {exc}"
        else:
            failure = None
            logger.debug("verifying %d signatures in %d processes",
                         len(jobs), cpus)
        results = _verify(jobs[:bounds[1]])
        if failure is None:
            failure = _collect(workers, chunks, answered)
    except BaseException:  # the caller's chunk raised, or an interrupt
        _shutdown()
        raise
    if failure is not None:
        _shutdown()
        unanswered = [job for chunk in chunks for job in chunk][len(answered):]
        logger.warning("verify workers failed (%s); verifying %d signatures "
                       "serially", failure, len(unanswered))
        answered += _verify(unanswered)
    return results + answered


def _collect(workers: list[tuple[int, int, int]], chunks: list,
             answered: list[bool]) -> str | None:
    """Read each worker's answer to its chunk onto ``answered``; why one
    gave none, or None when all did."""
    for (pid, _, result_fd), chunk in zip(workers, chunks):
        try:
            got = _read(result_fd, len(chunk))
        except OSError as exc:
            return f"{type(exc).__name__}: {exc}"
        if len(got) != len(chunk):
            return f"short read from worker {pid}: {len(got)} of {len(chunk)}"
        answered += map(bool, got)
    return None


def _send(fd: int, jobs: Sequence[Job]) -> None:
    """Write ``jobs`` to ``fd`` as one frame, in pieces of a few hundred
    jobs: the whole frame is never copied into one buffer."""
    parts = [b""]  # the frame's length, once it is known
    for name, public_key, message, signature in jobs:
        name_bytes = name.encode()
        parts += (_FIELDS.pack(len(name_bytes), len(public_key), len(message),
                               len(signature)),
                  name_bytes, public_key, message, signature)
    parts[0] = _FRAME.pack(sum(map(len, parts)))
    for start in range(0, len(parts), 1024):
        _write(fd, b"".join(parts[start:start + 1024]))


def _unframe(body: bytes) -> list[Job]:
    jobs, at = [], 0
    while at < len(body):
        lengths = _FIELDS.unpack_from(body, at)
        at += _FIELDS.size
        fields = []
        for length in lengths:
            fields.append(body[at:at + length])
            at += length
        name, public_key, message, signature = fields
        jobs.append((name.decode(), public_key, message, signature))
    return jobs


def _read(fd: int, size: int) -> bytes:
    """``size`` bytes from ``fd``, or fewer if it reaches end of file."""
    parts, got = [], 0
    while got < size:
        # at most what a pipe holds: os.read allocates what it is asked for
        more = os.read(fd, min(size - got, 1 << 16))
        if not more:
            break
        parts.append(more)
        got += len(more)
    return b"".join(parts)


def _write(fd: int, data: bytes) -> None:
    view = memoryview(data)
    while view:
        view = view[os.write(fd, view):]


def _workers(count: int) -> list[tuple[int, int, int]]:
    """The pool's first ``count`` workers, forking those it lacks."""
    if not _pool:
        import atexit
        atexit.unregister(_shutdown)  # registered once, however many pools
        atexit.register(_shutdown)
    while len(_pool) < count:
        _pool.append(_start_worker())
    return _pool[:count]


def _start_worker() -> tuple[int, int, int]:
    """Fork a worker serving its own pair of pipes; its pid, the job pipe's
    write end and the result pipe's read end."""
    job_read, job_write = os.pipe()
    result_read, result_write = os.pipe()
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
    return pid, job_write, result_read


def _serve(job_fd: int, result_fd: int) -> None:
    """A worker's loop: verify each frame of jobs until end of file."""
    while header := _read(job_fd, _FRAME.size):
        (size,) = _FRAME.unpack(header)
        body = _read(job_fd, size)
        if len(body) != size:
            return
        _write(result_fd, bytes(_verify(_unframe(body))))


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
    for _, job_fd, result_fd in _pool:
        os.close(job_fd)
        os.close(result_fd)
    _pool.clear()
    return pids


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)
