"""Nelder-Mead simplex search, the package's one derivative-free minimiser.
Only ``epi.sir_fit`` uses it; the ARIMA fit is Levenberg-Marquardt.

``nelder_mead`` is the loop of scipy's ``minimize(method="Nelder-Mead")``
(as of scipy 1.17, with bounds and adaptive coefficients off) as scipy
writes it: the same initial simplex, coefficients, vector expressions,
sorts, budget check and stopping test. Its iterates, and so its result,
are therefore bit-identical to scipy's, which the tests keep as the
oracle. It calls the array methods ``argsort``, ``take`` and ``max``
where scipy calls numpy's functions of those names, which wrap the same
methods.

It is kept in-house for its import cost alone: on a 2-core VM with scipy
1.17, ``import scipy.optimize`` takes 0.43-0.59 s and raises the RSS from
27 to 76 MB after numpy, while the whole ``r0`` command takes about 0.55 s
and peaks at 39 MB.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

RHO, CHI, PSI, SIGMA = 1, 2, 0.5, 0.5  # reflection, expansion, contraction, shrink
NONZDELT, ZDELT = 0.05, 0.00025  # initial simplex: relative step, step from zero


class _BudgetExhausted(Exception):
    """The evaluation budget ran out partway through a step."""


def nelder_mead(
    f: Callable[[np.ndarray], float],
    x0: np.ndarray,
    maxfev: int,
    xatol: float,
    fatol: float,
) -> tuple[np.ndarray, np.floating]:
    """Minimise ``f`` from ``x0`` with at most ``maxfev`` evaluations.

    Stops when both the simplex spread (max abs coordinate difference to
    the best vertex) is within ``xatol`` and the value spread within
    ``fatol``, or when the budget is spent. A step cut short by the budget
    keeps what it had done, as scipy does: a shrink leaves its updated
    vertices with their old values, and an expansion leaves the worst
    vertex in place. ``f`` is given views into the simplex and must not
    modify or keep them. Returns the best vertex and its value.
    """
    x0 = np.asarray(x0, dtype=float).ravel()
    n = len(x0)
    sim = np.empty((n + 1, n))
    sim[:] = x0
    for k in range(n):
        y = sim[k + 1]
        if y[k] != 0:
            y[k] = (1 + NONZDELT) * y[k]
        else:
            y[k] = ZDELT

    ncalls = 0

    def call(x: np.ndarray) -> float:
        nonlocal ncalls
        if ncalls >= maxfev:
            raise _BudgetExhausted
        ncalls += 1
        return f(x)

    fsim = np.full(n + 1, np.inf)
    try:
        for k in range(n + 1):
            fsim[k] = call(sim[k])
    except _BudgetExhausted:
        pass
    ind = fsim.argsort()
    sim = sim.take(ind, 0)
    fsim = fsim.take(ind)
    ind = fsim.argsort()
    fsim = fsim.take(ind)
    sim = sim.take(ind, 0)

    while ncalls < maxfev:
        try:
            if (np.abs(sim[1:] - sim[0]).max() <= xatol
                    and np.abs(fsim[0] - fsim[1:]).max() <= fatol):
                break
            xbar = np.add.reduce(sim[:-1], 0) / n
            xr = (1 + RHO) * xbar - RHO * sim[-1]
            fxr = call(xr)
            doshrink = False

            if fxr < fsim[0]:
                xe = (1 + RHO * CHI) * xbar - RHO * CHI * sim[-1]
                fxe = call(xe)
                if fxe < fxr:
                    sim[-1] = xe
                    fsim[-1] = fxe
                else:
                    sim[-1] = xr
                    fsim[-1] = fxr
            elif fxr < fsim[-2]:
                sim[-1] = xr
                fsim[-1] = fxr
            elif fxr < fsim[-1]:
                # outside contraction
                xc = (1 + PSI * RHO) * xbar - PSI * RHO * sim[-1]
                fxc = call(xc)
                if fxc <= fxr:
                    sim[-1] = xc
                    fsim[-1] = fxc
                else:
                    doshrink = True
            else:
                # inside contraction
                xcc = (1 - PSI) * xbar + PSI * sim[-1]
                fxcc = call(xcc)
                if fxcc < fsim[-1]:
                    sim[-1] = xcc
                    fsim[-1] = fxcc
                else:
                    doshrink = True

            if doshrink:
                for j in range(1, n + 1):
                    sim[j] = sim[0] + SIGMA * (sim[j] - sim[0])
                    fsim[j] = call(sim[j])
        except _BudgetExhausted:
            pass
        ind = fsim.argsort()
        sim = sim.take(ind, 0)
        fsim = fsim.take(ind)

    return sim[0], fsim.min()
