"""Nelder-Mead simplex search, the package's one derivative-free minimiser.
Only ``epi.sir_fit`` uses it; the ARIMA fit is Levenberg-Marquardt.

``nelder_mead`` runs scipy's ``minimize(method="Nelder-Mead")`` (as of
scipy 1.17, with bounds and adaptive coefficients off) step for step: the
same initial simplex, the same coefficients, the same vector expressions in
the same grouping and the same sorts at the same points. Its iterates, and
so its result, are therefore bit-identical to scipy's, which the tests keep
as the oracle.

What it drops is scipy's per-call overhead, which exceeds the cost of a
cheap objective: the wrapper's copy of every trial point and its scalar
check, the intermediate result object and callback check per iteration,
and the ``np.take``/``np.max``/``np.argsort`` function layers (the array
methods do the same work). Each remaining shortcut keeps the iterates:

* The stopping test checks the value spread first, as
  ``fsim[-1] - fsim[0] <= fatol``. ``fsim`` is sorted with NaN last and
  IEEE rounding is monotone, so no difference to the best value exceeds
  that one, and this equals scipy's max-abs test; the vertex spread is
  computed only when it holds.
* A step makes at most n + 2 calls (reflection, contraction, shrink), so a
  step that starts at least n + 2 calls short of the budget calls ``f``
  directly; only the last steps go through the budget check.
* ``RHO`` is 1, so the reflection uses the worst vertex itself instead of
  its product with ``RHO``, which is an exact copy.
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

    def checked(x: np.ndarray) -> float:
        if ncalls >= maxfev:
            raise _BudgetExhausted
        return f(x)

    fsim = np.full(n + 1, np.inf)
    try:
        for k in range(n + 1):
            fsim[k] = checked(sim[k])
            ncalls += 1
    except _BudgetExhausted:
        pass
    ind = fsim.argsort()
    sim = sim.take(ind, 0)
    fsim = fsim.take(ind)
    ind = fsim.argsort()
    fsim = fsim.take(ind)
    sim = sim.take(ind, 0)

    while ncalls < maxfev:
        if (fsim[-1] - fsim[0] <= fatol
                and np.abs(sim[1:] - sim[0]).max() <= xatol):
            break
        # a step makes at most n + 2 calls (reflection, contraction, shrink)
        call = f if ncalls + n + 2 <= maxfev else checked
        try:
            xbar = np.add.reduce(sim[:-1], 0) / n
            xr = (1 + RHO) * xbar - sim[-1]
            fxr = call(xr)
            ncalls += 1
            doshrink = False

            if fxr < fsim[0]:
                xe = (1 + RHO * CHI) * xbar - RHO * CHI * sim[-1]
                fxe = call(xe)
                ncalls += 1
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
                ncalls += 1
                if fxc <= fxr:
                    sim[-1] = xc
                    fsim[-1] = fxc
                else:
                    doshrink = True
            else:
                # inside contraction
                xcc = (1 - PSI) * xbar + PSI * sim[-1]
                fxcc = call(xcc)
                ncalls += 1
                if fxcc < fsim[-1]:
                    sim[-1] = xcc
                    fsim[-1] = fxcc
                else:
                    doshrink = True

            if doshrink:
                for j in range(1, n + 1):
                    sim[j] = sim[0] + SIGMA * (sim[j] - sim[0])
                    fsim[j] = call(sim[j])
                    ncalls += 1
        except _BudgetExhausted:
            pass
        ind = fsim.argsort()
        sim = sim.take(ind, 0)
        fsim = fsim.take(ind)

    return sim[0], fsim.min()
