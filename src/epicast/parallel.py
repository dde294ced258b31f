"""Independent fits run side by side on forked worker processes.

A monitor origin and a panel series are each one unit of work: a fit that
reads shared inputs and returns a small result. :func:`map_units` runs
units ``0..n-1`` on one worker per CPU this process may use, and returns
the results in unit order. Each result depends only on its unit, so the
output is the same for any number of workers; ``taskset -c 0`` gives a
serial run in this process.

Workers are forked, never spawned: the unit function reaches them through
the pool's initializer as inherited memory, so closures and objects that do
not pickle (a ``UnivariateSeries``, a caller's ``fit_one`` hook) work as
they do in-process. Only unit indices and results cross between processes.
The pool forks every worker before it starts its own threads. Where a fork
is unsafe or would hide the fits from their caller, the units run in this
process instead (see :func:`_may_fork`).
"""

from __future__ import annotations

import multiprocessing
import os
import sys
import threading
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
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
    return (
        "fork" in multiprocessing.get_all_start_methods()
        and not multiprocessing.current_process().daemon
        and threading.active_count() == 1
        and not _wrapped_from_outside()
    )


def _install(fn) -> None:
    global _unit_fn
    _unit_fn = fn


def _run_unit(index: int):
    return _unit_fn(index)


def map_units(fn: Callable[[int], R], n: int) -> list[R]:
    """``[fn(i) for i in range(n)]``, on up to one worker per usable CPU.

    An exception from ``fn`` reaches the caller as it would in a serial run:
    results are read in unit order, so the lowest failing unit's exception
    wins, and units not yet started are cancelled. A worker that dies
    raises :class:`EpicastError`.
    """
    workers = min(usable_cpus(), n)
    if workers <= 1 or not _may_fork():
        return [fn(i) for i in range(n)]
    pool = ProcessPoolExecutor(
        workers,
        mp_context=multiprocessing.get_context("fork"),
        initializer=_install,
        initargs=(fn,),
    )
    try:
        return list(pool.map(_run_unit, range(n)))
    except BrokenProcessPool as exc:
        raise EpicastError(f"a worker process died: {exc}") from exc
    finally:
        pool.shutdown(wait=True, cancel_futures=True)
