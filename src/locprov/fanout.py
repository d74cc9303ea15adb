"""Independent signature checks, split across the machine's CPUs.

An audit's signatures do not depend on one another: claim proofs,
endorsements, epoch reports, hash-chain links and revealed Bloom
accumulators. ``audit`` hands its walk over all of them to ``batched``
once. ``cryptography`` has no batch Ed25519 verify and holds the
interpreter lock while it verifies, so threads gain nothing; processes do.

``batched(walk)`` lets the walk be its own plan. A walk asks
``verify(check, *args)`` before each signature it relies on and reads the
answer only to exit early. ``batched`` first runs ``walk(record)``, where
``record`` keeps the job and answers True, so the run reaches every check
a real run can, with the very same objects. The distinct jobs are verified
in one ``verify_each`` call. If all passed, that run's result is returned;
else ``walk`` runs again with a ``verify`` that answers from the batch when
``check`` and every argument are the very objects of a batched job
(identity, not equality: ``0.0 == -0.0``, yet they sign different bytes),
else calls ``check(*args)``. So the batch changes how fast a walk runs,
never what it decides. But code past a ``verify`` in the first run sees
unauthenticated input, so it must cost no more than the input's size
(``bloom_well_formed`` bounds a membership check so). A failing walk's
batch also holds the checks after its first bad signature.

``verify_each(jobs)`` returns ``[check(*args) for check, *args in jobs]``,
every job's result in order. With fewer than ``FANOUT_MIN_JOBS`` jobs, on
one CPU, or while the process runs other threads (forking one is unsafe),
it checks them in the calling process. Otherwise it cuts them into one
contiguous chunk per CPU the process may run on (``os.sched_getaffinity``),
but into no more chunks than give each ``FANOUT_MIN_JOBS / 2`` jobs. It
checks the first chunk itself and forks one worker per other chunk, which
inherits its jobs through the fork (unpickled, closures included), checks
them all and writes one byte per result to its own pipe. The caller reads
every pipe and reaps every worker, and kills those left if a check raises
in it. If ``os.fork`` is missing or fails, or a worker dies or writes
short, the caller checks that chunk itself: the results, and any exception
a check raises, never depend on the path. The ``locprov.fanout`` logger
records each split at DEBUG and each fall-back at WARNING. Calls made in a
worker are not seen by anything that counts calls in the caller.
"""

from __future__ import annotations

import os
import signal
import threading
from itertools import zip_longest
from typing import Any, BinaryIO, Callable, Sequence

# Fewest jobs worth a 2-way split: a fork, pipe and reap cost 2.5-3.3 ms in
# a 47 MB process on a 2-CPU guest, a verify 190-220 us, so it pays from ~30
# jobs in theory and won most timed pairs from 48 on (BENCH_fanout.json).
FANOUT_MIN_JOBS = 48


def batched(walk: Callable[[Callable[..., bool]], Any]) -> Any:
    """``walk``'s result, its signature checks verified in one batch (see
    module doc)."""
    jobs: dict[tuple, tuple] = {}

    def record(check: Callable[..., bool], *args) -> bool:
        jobs.setdefault((check, *map(id, args)), (check, *args))
        return True

    result = walk(record)
    passed = verify_each(list(jobs.values()))
    if all(passed):
        return result
    # ``jobs`` keeps every batched object alive, so no id in a key can be
    # reused while the second run asks.
    answers = dict(zip(jobs, passed))

    def verify(check: Callable[..., bool], *args) -> bool:
        answer = answers.get((check, *map(id, args)))
        return bool(check(*args)) if answer is None else answer
    return walk(verify)


def verify_each(jobs: Sequence[tuple]) -> list[bool]:
    """``check(*args)`` for every job ``(check, *args)``, in order (see
    module doc)."""
    cpus = min(_cpu_count(), 2 * len(jobs) // FANOUT_MIN_JOBS)
    if cpus < 2 or threading.active_count() > 1:
        return _check(jobs, 0, len(jobs))
    return _fan_out(jobs, cpus)


def _cpu_count() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no CPU affinity on this platform
        return 1


def _check(jobs: Sequence[tuple], start: int, stop: int) -> list[bool]:
    return [bool(job[0](*job[1:])) for job in jobs[start:stop]]


def _fan_out(jobs: Sequence[tuple], cpus: int) -> list[bool]:
    import logging  # here: a process that never splits saves 0.6-1.1 MB

    logger = logging.getLogger(__name__)
    bounds = [len(jobs) * i // cpus for i in range(cpus + 1)]
    chunks = list(zip(bounds[1:-1], bounds[2:]))
    workers: list[tuple[int, BinaryIO]] = []  # pid and read end per chunk
    try:
        try:
            for start, stop in chunks:
                workers.append(_start_worker(jobs, start, stop))
        except (AttributeError, OSError) as exc:  # no os.fork, or it failed
            unforked = f"{type(exc).__name__}: {exc}"
        else:
            unforked = None
            logger.debug("verifying %d signatures in %d processes",
                         len(jobs), cpus)
        results = _check(jobs, 0, bounds[1])
        data = [pipe.read() for _, pipe in workers]  # each to end of file
    except BaseException:  # a check raised here: no worker may outlive it
        for pid, _ in workers:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for _, pipe in workers:
            pipe.close()
        statuses = [os.waitpid(pid, 0)[1] for pid, _ in workers]
    causes = [_failure(*worker) for worker in zip(statuses, data, chunks)]
    causes += [unforked] * (len(chunks) - len(workers))
    if any(causes):
        logger.warning("worker processes unavailable (%s); verifying %d "
                       "signatures serially", next(filter(None, causes)),
                       sum(stop - start for (start, stop), why
                           in zip(chunks, causes) if why))
    for (start, stop), why, got in zip_longest(chunks, causes, data):
        results += _check(jobs, start, stop) if why else map(bool, got)
    return results


def _start_worker(jobs: Sequence[tuple], start: int, stop: int) -> tuple:
    """Fork a worker that writes one byte per result of ``jobs[start:stop]``
    to a pipe; its pid and the pipe's read end."""
    read_end, write_end = os.pipe()
    caller, status = os.getpid(), 1
    try:
        if (pid := os.fork()) == 0:
            view = memoryview(bytes(_check(jobs, start, stop)))
            while view:
                view = view[os.write(write_end, view):]
            status = 0
    except BaseException:
        os.close(read_end)
        raise
    finally:
        if os.getpid() != caller:  # whatever raised: no atexit, no flush
            os._exit(status)
        os.close(write_end)  # before the next fork: EOF = the worker exited
    return pid, os.fdopen(read_end, "rb")


def _failure(status: int, data: bytes, chunk: tuple[int, int]) -> str | None:
    """Why a worker gave no answer for ``chunk``, or None if it gave one."""
    code, size = os.waitstatus_to_exitcode(status), chunk[1] - chunk[0]
    return (f"worker killed by signal {-code}" if code < 0
            else f"worker exited with exit status {code}" if code
            else f"short read: {len(data)} of {size}" if len(data) != size
            else None)
