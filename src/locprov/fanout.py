"""Independent signature checks, split across the machine's CPUs.

An audit verifies signatures that do not depend on one another: every
revealed claim's proof, witness and timestamp signatures, each epoch report
it meets, and every hash-chain link or revealed Bloom accumulator of its
ordering evidence. ``audit`` hands its walk over all of them to ``batched``
once, so at most one pool starts per audit. The ``cryptography`` package
has no batch Ed25519 verify and holds the interpreter lock while it
verifies, so threads gain nothing; processes do.

``batched(walk)`` lets the walk be its own plan. A walk takes a ``verify``
and asks it ``verify(check, *args)`` before each signature it relies on;
it reads the answer only to exit early. ``batched`` first runs
``walk(record)``, where ``record`` keeps the job ``(check, *args)`` and
answers True. Such a run reaches every check a real run can reach, with
the very same objects. The distinct jobs are then verified with one
``verify_each`` call. If every one passed, the first run was the real one
and its result is returned. Otherwise ``walk`` runs once more, with a
``verify`` that answers from the batch when ``check`` and every argument
are the very objects of a batched job, else calls ``check(*args)``.
Identity, not equality: ``0.0 == -0.0``, yet the two sign different bytes.
So the batch changes how fast a walk runs, never what it decides. In the
first run, though, code past a ``verify`` call sees input whose signature
nothing has checked yet, so it must cost no more than the size of that
input: a forged field must not buy unbounded work (``bloom_well_formed``
bounds a membership check this way). The one
signature work it adds: a failing walk's batch holds the checks after its
first bad signature, which the second run never reads.

``verify_each(jobs)`` returns ``[check(*args) for check, *args in jobs]``:
every job's result, in order, because the caller reads all of them. With
fewer than ``FANOUT_MIN_JOBS`` jobs, on a single CPU, or while the calling
process runs other threads (forking one is unsafe), it checks them in order
in the calling process. Otherwise it cuts the jobs into one contiguous chunk
per CPU the process may run on (``os.sched_getaffinity``); a ``fork`` pool
of one worker per CPU but one checks every chunk but the first, while the
caller checks the first. Every chunk is checked to its end, whatever fails
in it. The workers inherit the jobs through the fork, so no job is pickled
and a job may hold a closure; only chunk bounds and results cross a pipe.
The pool lives for one call. Where ``fork`` is missing, a worker cannot
start or one dies, the workers' jobs are checked serially, so the answer
never depends on the path taken. The ``locprov.fanout`` logger records each
split at DEBUG and each fall-back at WARNING.

Calls made in a worker are not seen by anything that wraps or counts
calls in the calling process.
"""

from __future__ import annotations

import os
import threading
from typing import Any, Callable, Sequence

# Fewest jobs worth a pool. On a 2-CPU guest, starting and stopping a
# one-worker fork pool measured 14-20 ms and one hash-chain link verify
# 160-250 us, so halving n verifies saves n * 80-125 us and the pool would
# pay for itself from about 150-200 jobs. Measured end to end, the split ran
# at 0.95-1.04x the serial speed at 384 links and 1.08-1.20x at 512.
FANOUT_MIN_JOBS = 512


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
    cpus = _cpu_count()
    if len(jobs) < FANOUT_MIN_JOBS or cpus < 2 or threading.active_count() > 1:
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
    # Imported on this path only: a process that never splits its checks
    # does not pay for them (``logging`` alone measured 0.6-1.1 MB of peak
    # memory), and ``concurrent.futures`` imports ``logging`` anyway.
    import logging
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    logger = logging.getLogger(__name__)

    def fall_back(start: int, exc: BaseException) -> list[bool]:
        logger.warning("worker processes unavailable (%s: %s); verifying %d "
                       "signatures serially", type(exc).__name__, exc,
                       len(jobs) - start)
        return _check(jobs, start, len(jobs))

    bounds = [len(jobs) * i // cpus for i in range(cpus + 1)]
    try:
        pool = ProcessPoolExecutor(
            cpus - 1, mp_context=multiprocessing.get_context("fork"),
            initializer=_init_worker, initargs=(jobs,))
    except ValueError as exc:  # no fork on this platform
        return fall_back(0, exc)
    with pool:
        others = set(multiprocessing.active_children())
        try:
            futures = [pool.submit(_check_in_worker, start, stop)
                       for start, stop in zip(bounds[1:-1], bounds[2:])]
        except (OSError, BrokenProcessPool) as exc:
            # A fork failed, or a worker died before the last chunk was
            # submitted. Workers forked before the failure wait for tasks
            # that never come, and the interpreter would wait for them at
            # exit.
            for worker in set(multiprocessing.active_children()) - others:
                worker.terminate()
                worker.join()
            return fall_back(0, exc)
        logger.debug("verifying %d signatures in %d processes",
                     len(jobs), cpus)
        results = _check(jobs, 0, bounds[1])
        try:
            for future in futures:
                results += future.result()
        except BrokenProcessPool as exc:  # a worker died
            return results[:bounds[1]] + fall_back(bounds[1], exc)
    return results


# What a forked worker checks, set once by the pool initializer.
_worker_jobs: Sequence[tuple] = ()


def _init_worker(jobs: Sequence[tuple]) -> None:
    global _worker_jobs
    _worker_jobs = jobs


def _check_in_worker(start: int, stop: int) -> list[bool]:
    return _check(_worker_jobs, start, stop)
