"""The package's one process pool: an ordered map over independent jobs.

``sieve --jobs`` certifies its kept candidates with it and ``verify`` runs
its jobs with it, each a check or a group of checks that share warm state.
Results come back in input order whatever the worker count, so the output
never depends on how many processes ran it.
"""

from __future__ import annotations

import os
from typing import Callable, Iterator, Sequence, TypeVar

T = TypeVar("T")
R = TypeVar("R")


def available_cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the OS
    has one, else the machine's count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def ordered_map(fn: Callable[[T], R], items: Sequence[T],
                workers: int) -> Iterator[R]:
    """fn over items on up to `workers` processes, yielded in input order.

    fn must be a module-level function, so that it pickles by name.  With
    one worker or one item it all runs in this process.  An exception from
    fn surfaces at its item's position; the items not yet handed to a
    worker by then are cancelled, and none is awaited.
    """
    workers = min(workers, len(items))
    if workers <= 1:
        yield from map(fn, items)
        return
    # imported here, so that a command without a pool never loads
    # multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    pool = ProcessPoolExecutor(max_workers=workers)
    try:
        yield from pool.map(fn, items)
    except BaseException:
        pool.shutdown(wait=False, cancel_futures=True)
        raise
    pool.shutdown()
