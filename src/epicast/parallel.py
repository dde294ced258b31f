"""Independent fits run side by side on forked worker processes.

A monitor origin, a panel series' base fit and a share of the panel's
residual networks are each one unit of work: a fit that reads shared
inputs and returns a small result. :func:`map_units` runs
units ``0..n-1`` on one worker per CPU this process may use, and returns
the results in unit order. Each result depends only on its unit, so the
output is the same for any number of workers; ``taskset -c 0`` gives a
serial run in this process.

Workers are forked, never spawned: the unit function reaches them through
the pool's initializer as inherited memory, so closures and functions that
do not pickle (a test's patched function) work as they do in-process.
Only unit indices and results cross between processes.
The pool forks every worker before it starts its own threads. Where a fork
is unsafe or would hide the fits from their caller, the units run in this
process instead (see :func:`_may_fork`).

A new worker starts on the CPU its parent runs on, and the scheduler was
seen to leave both workers of a process's first pool there for about half
a second. So each worker moves itself onto its own CPU of the parent's
affinity mask at start-up, then takes the whole mask back: it is placed,
not pinned.

``multiprocessing`` and ``concurrent.futures`` are imported only where a
pool may start, so commands that never fork do not load them.
"""

from __future__ import annotations

import os
import signal
import sys
import threading
from typing import Callable, TypeVar

from .errors import EpicastError

R = TypeVar("R")

_unit_fn = None  # the unit function, installed in each worker at start-up


def usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        return os.cpu_count() or 1


def _wrapped_from_outside() -> bool:
    """Whether a module of this package holds a wrapper from outside in
    place of a function: a value with ``__wrapped__`` that its own module
    does not export under its name, as a tracer or profiler installs.
    ``functools.cache`` on a function of the package exports itself."""
    prefix = __package__ + "."
    for name, module in list(sys.modules.items()):
        if name != __package__ and not name.startswith(prefix):
            continue
        for value in vars(module).values():
            if not hasattr(value, "__wrapped__"):
                continue
            home = sys.modules.get(getattr(value, "__module__", None) or "")
            own = getattr(value, "__name__", None)
            if not isinstance(own, str) or getattr(home, own, None) is not value:
                return True
    return False


def _may_fork() -> bool:
    """Whether units may run on forked workers. They run in this process
    instead where there is no ``fork`` start method; in a daemonic
    multiprocessing worker, which may not have children; while another
    Python thread runs, since a child would inherit any lock it holds
    (logging's, a buffered stream's) held for good; and where a function of
    the package is wrapped from outside, since the wrapper's records of the
    calls a worker makes would stay in that worker."""
    import multiprocessing

    return (
        "fork" in multiprocessing.get_all_start_methods()
        and not multiprocessing.current_process().daemon
        and threading.active_count() == 1
        and not _wrapped_from_outside()
    )


def worker_count(n: int) -> int:
    """The number of workers :func:`map_units` runs ``n`` units on: one
    per usable CPU up to ``n``, and 1 where it runs them in this process."""
    workers = min(usable_cpus(), n)
    return workers if workers > 1 and _may_fork() else 1


def contiguous_shares(sizes, count: int) -> list[list[tuple[int, int, int]]]:
    """Cut the items of consecutive groups, ``sizes[g]`` items in group
    ``g``, into at most ``count`` contiguous shares of ``ceil(total /
    count)`` items; only the last share may be shorter. A share is a list
    of ``(group, start, stop)`` pieces, in item order."""
    total = sum(sizes)
    size = max(1, -(-total // count))
    shares = [[] for _ in range(-(-total // size))]
    first = 0  # the group's first item, counted over all groups
    for group, n in enumerate(sizes):
        item = first
        while item < first + n:
            stop = min(first + n, (item // size + 1) * size)
            shares[item // size].append((group, item - first, stop - first))
            item = stop
        first += n
    return shares


def _end_with_parent(parent: int) -> None:
    """On Linux, have the kernel send this worker SIGTERM when its parent,
    process ``parent``, dies, and exit now if it already has. A worker
    holds both ends of the pool's call-queue pipe, so it would never see
    the queue close and would sleep on for good. Elsewhere nothing ends
    the workers of a parent killed alone."""
    if not sys.platform.startswith("linux"):
        return
    import ctypes

    pr_set_pdeathsig = 1  # from <linux/prctl.h>
    ctypes.CDLL(None).prctl(pr_set_pdeathsig, signal.SIGTERM)
    if os.getppid() != parent:  # it died before the prctl took effect
        os._exit(1)


def _install(fn, started, cpus, parent) -> None:
    """Start a worker: end it with its parent, process ``parent``; ignore
    SIGINT, which the parent alone answers (a Ctrl-C reaches the whole
    process group), and unblock it; install the unit function; then move
    the k-th worker started onto CPU k of ``cpus`` and give it all of
    ``cpus`` back, so that the pool's workers begin on different CPUs."""
    global _unit_fn
    _end_with_parent(parent)
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGINT})
    _unit_fn = fn
    if not cpus:
        return
    with started.get_lock():
        k = started.value
        started.value += 1
    try:
        os.sched_setaffinity(0, (cpus[k % len(cpus)],))
        os.sched_setaffinity(0, cpus)
    except OSError:  # a CPU went away since the fork: stay where we are
        pass


def _run_unit(index: int):
    return _unit_fn(index)


def map_units(fn: Callable[[int], R], n: int) -> list[R]:
    """``[fn(i) for i in range(n)]``, on :func:`worker_count` workers.

    An exception from ``fn`` reaches the caller as it would in a serial run:
    results are read in unit order, so the lowest failing unit's exception
    wins, and units not yet started are cancelled. A worker that dies
    raises :class:`EpicastError`.
    """
    workers = worker_count(n)
    if workers <= 1:
        return [fn(i) for i in range(n)]
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    context = multiprocessing.get_context("fork")
    cpus = (sorted(os.sched_getaffinity(0))
            if hasattr(os, "sched_setaffinity") else [])
    pool = ProcessPoolExecutor(
        workers,
        mp_context=context,
        initializer=_install,
        initargs=(fn, context.Value("i", 0), cpus, os.getpid()),
    )
    try:
        # the workers fork while the first units are submitted: with SIGINT
        # blocked, none can take one before it ignores them
        blocked = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
        try:
            results = pool.map(_run_unit, range(n))
        finally:
            signal.pthread_sigmask(signal.SIG_SETMASK, blocked)
        return list(results)
    except BrokenProcessPool as exc:
        raise EpicastError(f"a worker process died: {exc}") from exc
    finally:
        pool.shutdown(wait=True, cancel_futures=True)
