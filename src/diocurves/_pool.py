"""The package's one process pool: an ordered map over independent jobs.

``sieve --jobs`` scores the pieces of its grid and certifies its kept
candidates with it, and ``verify`` runs its jobs with it, each a check or a
group of checks that share warm state.  Results come back in input order
whatever the worker count, so the output never depends on how many
processes ran it.

The workers are forked, so each inherits the function and the items as they
stand: neither has to pickle.  Each worker has a fixed share of the items:
worker k of n runs items k, k + n, k + 2n, ... in turn and writes each
outcome, pickled, to its one pipe, stopping after its first exception.  The
parent reads item i from worker i mod n, so nothing is ever sent down to a
worker.  A worker leaves only through ``os._exit``, so it never flushes the
stdio buffers it inherited and never returns into its parent's code.  The
CLI starts no thread, so the fork copies no lock that another thread holds.
Where ``os.fork`` is missing (Windows), the work runs in the calling
process.

The parent's heap is frozen at fork (``gc.freeze``) and thawed once every
worker is reaped.  A worker's garbage collector then never walks the
objects it inherited, so it does not write to, and copy, the pages that
hold them.
"""

from __future__ import annotations

import gc
import os
from typing import Callable, Iterator, Sequence, TypeVar

from .errors import WorkerFailed

T = TypeVar("T")
R = TypeVar("R")

# bytes of the length that prefixes each pickled outcome a worker sends back
_LENGTH_BYTES = 8


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

    With one worker, one item or no ``os.fork`` it all runs in this
    process.  An exception from fn surfaces at its item's position, after
    every earlier item, and the worker that raised it runs nothing more.
    An exception that cannot be pickled, or a worker that dies, raises
    WorkerFailed.  However the map ends (exhausted, raising, interrupted or
    closed early), every worker is killed and reaped before it does.
    """
    workers = min(workers, len(items))
    if workers <= 1 or not hasattr(os, "fork"):
        yield from map(fn, items)
        return
    yield from _forked_map(fn, items, workers)


def _read_exact(fd: int, size: int) -> bytes | None:
    """`size` bytes from fd, or None at end of file."""
    chunks = []
    while size:
        chunk = os.read(fd, size)
        if not chunk:
            return None
        chunks.append(chunk)
        size -= len(chunk)
    return b"".join(chunks)


def _write_all(fd: int, data: bytes) -> None:
    view = memoryview(data)
    while view:
        view = view[os.write(fd, view):]


def _start_worker(fn: Callable, items: Sequence, k: int,
                  workers: int) -> tuple[int, int]:
    """Fork worker k, which runs items k, k + workers, ... in turn; its pid
    and the read end of the pipe it writes their outcomes to."""
    out_r, out_w = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(out_r)
        os.close(out_w)
        raise
    if pid == 0:
        code = 1
        try:
            os.close(out_r)
            _serve(fn, items, range(k, len(items), workers), out_w)
            code = 0
        finally:
            os._exit(code)
    os.close(out_w)
    return pid, out_r


def _serve(fn: Callable, items: Sequence, share: range, out: int) -> None:
    """The worker's loop: run each item of its share and send back a
    pickled (ok, value), up to and including the first exception."""
    import pickle           # loaded already: the parent imported it

    for i in share:
        try:
            outcome = (True, fn(items[i]))
        except BaseException as exc:    # the parent re-raises it
            outcome = (False, exc)
        ok, value = outcome
        try:
            data = pickle.dumps(outcome, pickle.HIGHEST_PROTOCOL)
            if not ok:
                # an exception whose arguments do not rebuild it pickles
                # but fails to load
                pickle.loads(data)
        except Exception as exc:
            what = (f"returned a {type(value).__name__}" if ok
                    else f"raised {type(value).__name__}: {value}")
            ok, data = False, pickle.dumps((False, WorkerFailed(
                f"item {i} {what}, which cannot be sent back from its "
                f"worker ({type(exc).__name__}: {exc})")))
        _write_all(out, len(data).to_bytes(_LENGTH_BYTES, "little") + data)
        if not ok:
            return


def _forked_map(fn: Callable[[T], R], items: Sequence[T],
                workers: int) -> Iterator[R]:
    # imported before the fork, so the workers inherit them, and never in
    # the finally: a map still open at interpreter exit is closed after the
    # import system is gone
    import pickle
    import signal

    pids: list[int | None] = []     # None once reaped
    outcomes: list[int] = []
    # a heap someone else froze stays as they left it
    thaw = gc.get_freeze_count() == 0
    if thaw:
        gc.freeze()
    try:
        for k in range(workers):
            pid, fd = _start_worker(fn, items, k, workers)
            pids.append(pid)
            outcomes.append(fd)
        for i in range(len(items)):
            k = i % workers
            head = _read_exact(outcomes[k], _LENGTH_BYTES)
            data = None if head is None else _read_exact(
                outcomes[k], int.from_bytes(head, "little"))
            if data is None:
                _, status = os.waitpid(pids[k], 0)
                pids[k] = None
                raise WorkerFailed(
                    f"worker died running item {i} (exit status "
                    f"{os.waitstatus_to_exitcode(status)})")
            ok, value = pickle.loads(data)
            if not ok:
                raise value
            yield value
    finally:
        for fd in outcomes:
            os.close(fd)
        for pid in pids:
            if pid is not None:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
        if thaw:
            gc.unfreeze()
