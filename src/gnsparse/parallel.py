"""Independent work items spread over the CPUs of the process's affinity mask.

``run_ordered(run, items, weight)`` returns ``[run(item) for item in
items]``.  It runs the items in this process, in order, and times them;
once the mean time of an item times the items left passes BREAK_EVEN_S, it
forks one worker per extra CPU (no more than the items left can keep busy),
and this process and the workers take the rest from one queue, heaviest
``weight`` first.  Each worker pickles its (index, result) pairs back, and
the results are returned in item order, so a caller cannot tell whether a
run forked.  Items go by reference: in a result that comes back, every
reference to an item is this process's own object.

The run stays in one process where ``os.fork`` or ``os.sched_getaffinity``
is missing, where the mask holds one CPU, where another thread runs (a
forked child would hold only the thread that forked it), or while the work
stays under the break-even.  A worker ends with ``os._exit``.  An exception
in a worker is raised again here, with the worker's traceback as its
cause; whatever goes wrong, every worker is killed if still running and
reaped before ``run_ordered`` returns or raises.
"""

from __future__ import annotations

import io
import os
import pickle
import sys
import threading
import time

BREAK_EVEN_S = 0.04  # estimated seconds of work left above which a run forks
_INDEX_BYTES = 4
# a pipe write of at most this many bytes is atomic (POSIX's least PIPE_BUF);
# a multiple of _INDEX_BYTES, so the queue always holds whole indices
_QUEUE_CHUNK = 512


class WorkerError(Exception):
    """A worker's traceback as it formatted it, or how it ended without one."""


def usable_cpus() -> int:
    """The CPUs a run may fork workers onto: 1 where it must not fork."""
    if not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return 1
    if threading.active_count() > 1:
        return 1
    return len(os.sched_getaffinity(0))


def workers_to_fork(elapsed: float, done: int, left: int, cpus: int) -> int:
    """Workers to fork once ``done`` items took ``elapsed`` seconds and ``left``
    are left: none while the estimated rest stays under BREAK_EVEN_S, else
    one per extra CPU, with at least one item each besides this process's."""
    if cpus < 2 or left < 2 or elapsed / done * left <= BREAK_EVEN_S:
        return 0
    return min(cpus - 1, left - 1)


def run_ordered(run, items, weight) -> list:
    """``[run(item) for item in items]`` for a sequence of items, forked once
    the work is long enough."""
    cpus = usable_cpus()
    results = []
    start = time.perf_counter()
    for done, item in enumerate(items, start=1):
        results.append(run(item))
        workers = workers_to_fork(time.perf_counter() - start, done, len(items) - done, cpus)
        if workers:
            queue = sorted(range(done, len(items)), key=lambda i: -weight(items[i]))
            got = _run_forked(run, items, queue, workers)
            return results + [got[i] for i in range(done, len(items))]
    return results


class _Pickler(pickle.Pickler):
    """Pickles each item by its index."""

    def __init__(self, file, items):
        super().__init__(file, pickle.HIGHEST_PROTOCOL)
        self.indices = {id(item): i for i, item in enumerate(items)}

    def persistent_id(self, obj):
        return self.indices.get(id(obj))


class _Unpickler(pickle.Unpickler):
    """Restores each item from its index."""

    def __init__(self, file, items):
        super().__init__(file)
        self.items = items

    def persistent_load(self, pid):
        return self.items[pid]


def _dumps(obj, items) -> bytes:
    buffer = io.BytesIO()
    _Pickler(buffer, items).dump(obj)
    return buffer.getvalue()


def _loads(data: bytes, items):
    return _Unpickler(io.BytesIO(data), items).load()


def _write_all(fd: int, data: bytes, chunk: int) -> None:
    view = memoryview(data)
    while view:
        view = view[os.write(fd, view[:chunk]):]


def _read_all(fd: int) -> bytes:
    chunks = []
    while chunk := os.read(fd, 1 << 20):
        chunks.append(chunk)
    return b"".join(chunks)


def _take(fd: int):
    """The indices read from the queue until it is empty and closed.  Every
    write and every read moves whole indices, so processes taking from one
    queue never split one."""
    while chunk := os.read(fd, _INDEX_BYTES):
        yield int.from_bytes(chunk, "little")


def _worker(run, items, tasks: int, out: int, feed: int):
    """A forked child's whole life: it runs the items it takes from ``tasks``,
    sends ("ok", [(index, result), ...]) or ("raised", exception, traceback
    text) up ``out`` and exits, without returning into the parent's code.
    ``feed``, its copy of the queue's write end, is closed first, so that
    the queue ends when the parent closes its own."""
    status = 1
    try:
        os.close(feed)
        try:
            data = _dumps(("ok", [(i, run(items[i])) for i in _take(tasks)]), items)
        except BaseException as exc:
            import traceback  # only a failing worker formats a traceback

            text = "".join(traceback.format_exception(exc))
            try:
                data = _dumps(("raised", exc, text), items)
                _loads(data, items)  # the parent must be able to rebuild it
            except Exception:
                data = _dumps(("raised", None, text), items)
        _write_all(out, data, 1 << 20)
        status = 0
    finally:
        os._exit(status)


def _run_forked(run, items, queue, workers: int) -> dict:
    """{index: run(items[index])} for every index of ``queue``, taken in queue
    order by this process and ``workers`` forked children."""
    # a child must not write out again what the parent's buffers hold
    sys.stdout.flush()
    sys.stderr.flush()
    tasks, feed = os.pipe()
    children = {}  # pid -> read end of the pipe its results come up
    try:
        for _ in range(workers):
            results, out = os.pipe()
            try:
                pid = os.fork()
            except OSError:  # no room for another process: fewer workers share the queue
                os.close(results)
                os.close(out)
                break
            if pid == 0:
                _worker(run, items, tasks, out, feed)
            os.close(out)
            children[pid] = results
        _write_all(feed, b"".join(i.to_bytes(_INDEX_BYTES, "little") for i in queue), _QUEUE_CHUNK)
        os.close(feed)
        feed = None
        got = {i: run(items[i]) for i in _take(tasks)}
        for pid in list(children):
            data = _read_all(children[pid])
            _, status = os.waitpid(pid, 0)
            os.close(children.pop(pid))
            if not data:
                raise WorkerError(f"worker {pid} ended with wait status {status} and sent nothing")
            message = _loads(data, items)
            if message[0] == "raised":
                _, exc, text = message
                if exc is None:
                    raise WorkerError(text)
                raise exc from WorkerError(text)
            got.update(message[1])
        return got
    finally:
        os.close(tasks)
        if feed is not None:
            os.close(feed)
        if children:  # an error left these running
            import signal

            for pid, fd in children.items():
                os.close(fd)
                os.kill(pid, signal.SIGKILL)
            for pid in children:
                os.waitpid(pid, 0)
