"""Run two independent parts of one job on two CPUs.

``two_parts(part)`` returns ``(part(0), part(1))``. When it may, it runs
both parts at once, each in a forked child, and gets each child's value back
through a pipe; otherwise it runs both in this process, one after the other,
through the same calls. Its callers are the ACOPF sweep (``experiment_sweep``
runs half of its seeds in each part) and the detectors' tick walks
(``split_walk``).

Both parts run in children, none in this process. The parent only forks,
reads both pipes to EOF and reaps both children, so it makes no BLAS call
between fork and join: OpenBLAS's at-fork handler makes the parent's next
BLAS call after a fork touch ~316 KB more of its buffer, once per process,
which would show in the parent's peak RSS.

A part may call BLAS, but only under one OpenBLAS thread: the split runs
only when ``OPENBLAS_NUM_THREADS`` is ``"1"`` in the environment. OpenBLAS
reads it when it loads, so a child cannot change it, and with its default of
one thread per core two children on two CPUs ran matrix products 5 to 20
times slower than one process alone. The split also needs two or more CPUs in
this process's affinity mask, ``os.fork``, and no other Python thread
running: a child holds only the forking thread.

What a part does besides returning its value (a trace span, a cache entry,
the first import of ``scipy.special``, which loads its own ~25 MB OpenBLAS)
stays in its child, so every such call belongs before ``two_parts``. An
exception in a part is raised here with its type and message, after both
children are reaped.
"""

from __future__ import annotations

import os
import pickle
import threading
from collections.abc import Callable
from typing import BinaryIO, TypeVar

T = TypeVar("T")


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # a platform without affinity masks
        return os.cpu_count() or 1


def two_parts(part: Callable[[int], T]) -> tuple[T, T]:
    """``(part(0), part(1))``, in two forked children when the process may
    use two CPUs under one BLAS thread (see the module docstring)."""
    if (_usable_cpus() > 1 and os.environ.get("OPENBLAS_NUM_THREADS") == "1"
            and hasattr(os, "fork") and threading.active_count() == 1):
        return _in_children(part)
    return part(0), part(1)


def _in_children(part: Callable[[int], T]) -> tuple[T, T]:
    """``part(0)`` and ``part(1)``, each in a forked child, in parallel."""
    children: list[tuple[int, BinaryIO]] = []  # (pid, read end of its pipe)
    try:
        for k in (0, 1):
            read_fd, write_fd = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read_fd)
                os.close(write_fd)
                raise
            if pid == 0:
                _child(part, k, write_fd, [read_fd] + [p.fileno() for _, p in children])
            os.close(write_fd)
            children.append((pid, open(read_fd, "rb")))
        # each child writes its pipe and exits, so reading one to EOF while
        # the other waits on a full pipe cannot deadlock
        payloads = [pipe.read() for _, pipe in children]
    finally:
        # closing the read ends first, on an error here, ends a child that
        # is blocked on a full pipe; every child is reaped on every path
        statuses = []
        for pid, pipe in children:
            pipe.close()
            statuses.append(os.waitpid(pid, 0)[1])
    values = []
    for k, (payload, status) in enumerate(zip(payloads, statuses)):
        if not payload:
            raise ChildProcessError(f"part {k}'s child ended with wait status {status} "
                                    "and sent nothing")
        ok, value = pickle.loads(payload)
        if not ok:
            raise value
        values.append(value)
    return values[0], values[1]


def _child(part: Callable[[int], T], k: int, write_fd: int, parent_fds: list[int]
           ) -> None:
    """Send ``part(k)``, or the exception it raised, and leave through
    ``os._exit``: the child runs no exit handler of the parent's. It first
    closes the read ends it inherited, so only the parent reads a pipe."""
    try:
        for fd in parent_fds:
            os.close(fd)
        try:
            payload = pickle.dumps((True, part(k)), pickle.HIGHEST_PROTOCOL)
        except BaseException as exc:  # noqa: BLE001 - raised again in the parent
            try:
                payload = pickle.dumps((False, exc))
                pickle.loads(payload)  # the parent must be able to rebuild it
            except Exception:  # noqa: BLE001 - e.g. a local class, an odd __init__
                payload = pickle.dumps((False, RuntimeError(f"{type(exc).__name__}: {exc}")))
        with open(write_fd, "wb") as pipe:
            pipe.write(payload)
    finally:
        os._exit(0)
