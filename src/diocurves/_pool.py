"""The package's one process pool: an ordered map over independent jobs.

``sieve --jobs`` scores the pieces of its grid and certifies its kept
candidates with it, and ``verify`` runs its jobs with it, each a check or a
group of checks that share warm state.  Results come back in input order
whatever the worker count, so the output never depends on how many
processes ran it.

The workers are forked, so each inherits the function and the items as they
stand: neither has to pickle.  Worker k starts on item k, and each later item
goes down a pipe to a worker as its index alone; each outcome comes back
pickled.  A worker leaves only through
``os._exit``, so it never flushes the stdio buffers it inherited and never
returns into its parent's code.  The CLI starts no thread, so the fork copies
no lock that another thread holds.  Where ``os.fork`` is missing (Windows),
the work runs in the calling process.

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

# bytes of an item index sent to a worker, and of the length that prefixes
# each pickled outcome a worker sends back
_INDEX_BYTES = 4
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
    process.  An exception from fn surfaces at its item's position, and no
    item is handed to a worker once an exception has come back.  An
    exception that cannot be pickled, or a worker that dies, raises
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


class _Worker:
    """One forked worker: its pid (None once reaped), the write end of its
    index pipe, the read end of its outcome pipe, and its latest item."""

    def __init__(self, pid: int, tasks: int, outcomes: int, item: int):
        self.pid: int | None = pid
        self.tasks, self.outcomes, self.item = tasks, outcomes, item


def _start_worker(fn: Callable, items: Sequence, first: int) -> _Worker:
    """Fork a worker that runs item `first` at once, then the items whose
    indices arrive on its pipe."""
    task_r, task_w = os.pipe()
    out_r, out_w = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        for fd in (task_r, task_w, out_r, out_w):
            os.close(fd)
        raise
    if pid == 0:
        code = 1
        try:
            os.close(task_w)
            os.close(out_r)
            _serve(fn, items, first, task_r, out_w)
            code = 0
        finally:
            os._exit(code)
    os.close(task_r)
    os.close(out_w)
    return _Worker(pid, task_w, out_r, first)


def _serve(fn: Callable, items: Sequence, i: int, tasks: int,
           outcomes: int) -> None:
    """The worker's loop: run item i, send back a pickled (i, ok, value),
    and take the next i from the pipe until end of file."""
    import pickle

    while True:
        try:
            outcome = (i, True, fn(items[i]))
        except BaseException as exc:    # the parent re-raises it
            outcome = (i, False, exc)
        try:
            data = pickle.dumps(outcome, pickle.HIGHEST_PROTOCOL)
            if not outcome[1]:
                # an exception whose arguments do not rebuild it pickles
                # but fails to load
                pickle.loads(data)
        except Exception as exc:
            value = outcome[2]
            what = (f"returned a {type(value).__name__}" if outcome[1]
                    else f"raised {type(value).__name__}: {value}")
            data = pickle.dumps((i, False, WorkerFailed(
                f"item {i} {what}, which cannot be sent back from its "
                f"worker ({type(exc).__name__}: {exc})")))
        _write_all(outcomes, len(data).to_bytes(_LENGTH_BYTES, "little")
                   + data)
        head = _read_exact(tasks, _INDEX_BYTES)
        if head is None:
            return
        i = int.from_bytes(head, "little")


def _forked_map(fn: Callable[[T], R], items: Sequence[T],
                workers: int) -> Iterator[R]:
    # the workers inherit pickle; the parent's other imports run while
    # they start on their first items
    import pickle

    pool: list[_Worker] = []
    selector = None
    # a heap someone else froze stays as they left it
    thaw = gc.get_freeze_count() == 0
    if thaw:
        gc.freeze()
    try:
        for first in range(workers):
            pool.append(_start_worker(fn, items, first))
        import selectors

        selector = selectors.DefaultSelector()
        for w in pool:
            selector.register(w.outcomes, selectors.EVENT_READ, w)
        done: dict[int, tuple[bool, object]] = {}
        sent = workers
        failed = False
        for nxt in range(len(items)):
            while nxt not in done:
                for key, _ in selector.select():
                    w = key.data
                    head = _read_exact(w.outcomes, _LENGTH_BYTES)
                    data = None if head is None else _read_exact(
                        w.outcomes, int.from_bytes(head, "little"))
                    if data is None:
                        _, status = os.waitpid(w.pid, 0)
                        w.pid = None
                        raise WorkerFailed(
                            f"worker died running item {w.item} (exit "
                            f"status {os.waitstatus_to_exitcode(status)})")
                    i, ok, value = pickle.loads(data)
                    done[i] = (ok, value)
                    failed = failed or not ok
                    # items go out in index order, so once one has failed
                    # every earlier item is already running or done
                    if sent < len(items) and not failed:
                        w.item = sent
                        sent += 1
                        _write_all(w.tasks, w.item.to_bytes(_INDEX_BYTES,
                                                            "little"))
                    else:
                        selector.unregister(w.outcomes)
            ok, value = done.pop(nxt)
            if not ok:
                raise value
            yield value
    finally:
        import signal

        if selector is not None:
            selector.close()
        for w in pool:
            os.close(w.tasks)
            os.close(w.outcomes)
            if w.pid is not None:
                os.kill(w.pid, signal.SIGKILL)
                os.waitpid(w.pid, 0)
        if thaw:
            gc.unfreeze()
