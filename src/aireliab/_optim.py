"""Multistart maximum-likelihood search shared by the fitters.

Fitters minimise a negative log-likelihood over an unconstrained
(usually log-scale) parameter vector from a list of starts; standard
errors come from a finite-difference Hessian at the optimum.  The
objective's value picks the route.  One that returns its exact gradient
with the value, as a tuple (the recurrent profile likelihood, which also
fits the EP modules without in-edges), runs L-BFGS-B from each start and
keeps the simplex and a scaled polish on that gradient as a fallback for
a start where that ends abnormally or never leaves the start; one that
returns a plain value runs the simplex and a finite-difference polish
from every start.  The simplex is scipy's Nelder–Mead run in-house;
scipy supplies only L-BFGS-B.  A start whose objective is not
finite is dropped before any search, so a fit's iteration count covers
the searched starts only.

Start-up rule for the package: no module-level ``scipy.<subpackage>``
import anywhere in ``aireliab``, so that ``import aireliab.cli`` loads
numpy and bare ``scipy`` only.  A routine imports what it uses at its
entry, as ``maximize`` does, or binds it once on a prepared object (the
EP kernel, the LHD swap criterion); no import statement sits on a path
that runs once per evaluation.
"""

from __future__ import annotations

from contextlib import suppress
from functools import reduce
from operator import add

import numpy as np


def quiet():
    """The error state of a search: its objectives meet inf and nan off the feasible region."""
    return np.errstate(over="ignore", divide="ignore", invalid="ignore")


def starts(seed, n: int, spread: float, key: int) -> list[np.ndarray]:
    """``seed`` plus ``n - 1`` normal jitters of it, each coordinate with SD ``spread``.

    Each fitter passes its own fixed ``key``, so a fit is a pure function
    of its inputs.
    """
    seed = np.asarray(seed, dtype=float)
    jitter = np.random.default_rng(key)
    return [seed] + [seed + jitter.normal(0.0, spread, size=len(seed))
                     for _ in range(max(0, n - 1))]


@quiet()
def numeric_stderr(negloglik, theta, step) -> tuple[float, ...] | None:
    """Standard errors from a central-difference Hessian, when it is PD.

    ``step`` is the finite-difference step: a scalar or one per coordinate.
    """
    k = len(theta)
    h = np.broadcast_to(step, (k,))
    hess = np.empty((k, k))
    f0 = negloglik(theta)
    if not np.isfinite(f0):
        return None
    for i in range(k):
        for j in range(i, k):
            ei = np.zeros(k)
            ej = np.zeros(k)
            ei[i] = h[i]
            ej[j] = h[j]
            if i == j:
                val = (negloglik(theta + ei) - 2 * f0 + negloglik(theta - ei)) / h[i] ** 2
            else:
                val = (
                    negloglik(theta + ei + ej)
                    - negloglik(theta + ei - ej)
                    - negloglik(theta - ei + ej)
                    + negloglik(theta - ei - ej)
                ) / (4 * h[i] * h[j])
            hess[i, j] = hess[j, i] = val
    if not np.all(np.isfinite(hess)):
        return None
    try:
        cov = np.linalg.inv(hess)
    except np.linalg.LinAlgError:
        return None
    diag = np.diag(cov)
    if np.any(diag <= 0):
        return None
    return tuple(np.sqrt(diag))


#: the relative-decrease stop of L-BFGS-B on an exact score.  At a search's
#: ``tol`` it stops early along flat ridges (the gompertz fits that run to
#: the Goel–Okumoto limit end about 6e-9 relative short); at this value
#: every bundled recurrent fit ends within 1e-12 of the simplex route
SCORE_FTOL = 1e-12
#: the projected-gradient stop of every L-BFGS-B run
_GTOL = 1e-10
#: the largest first step of the fallback's scored polish, relative to 1 + |z|
POLISH_STEP = 1e-3


class _Spent(Exception):
    """The evaluation budget ran out inside a simplex step."""


def _by_value(sim, fsim):
    """``sim`` and ``fsim`` in ``np.argsort(fsim)`` order (numpy's, which is not stable)."""
    order = np.argsort(np.array(fsim)).tolist()
    return [sim[i] for i in order], [fsim[i] for i in order]


def _nelder_mead(f, x0, f0, xatol, fatol, maxiter, maxfev):
    """scipy 1.17's ``minimize(method="Nelder-Mead")``, unbounded and not adaptive, step for
    step in the same float arithmetic; ``f0 = f(x0)`` counts as the first evaluation.
    Returns ``(x, fun, nit, nfev, success)`` as scipy does."""
    n, x0 = len(x0), [float(v) for v in x0]
    sim = [x0] + [x0[:k] + [1.05 * v if v != 0 else 0.00025] + x0[k + 1:] for k, v in enumerate(x0)]
    fsim, nfev, nit = [np.inf] * (n + 1), 0, 1

    def evaluate(x):
        nonlocal nfev
        if nfev >= maxfev:
            raise _Spent
        nfev += 1
        return float(f(np.array(x)) if nfev > 1 else f0)

    with suppress(_Spent):
        for k, x in enumerate(sim):
            fsim[k] = evaluate(x)
    sim, fsim = _by_value(*_by_value(sim, fsim))  # scipy sorts twice before the first step
    while nfev < maxfev and nit < maxiter:
        try:
            # scipy tests x first; both tests are pure, and f is cheaper
            if (all(abs(fsim[0] - v) <= fatol for v in fsim[1:])
                    and all(abs(a - b) <= xatol for x in sim[1:] for a, b in zip(x, sim[0]))):
                break
            # summed vertex by vertex in simplex order, as np.add.reduce does
            mid = [reduce(add, column) / n for column in zip(*sim[:-1])]
            fxr = evaluate(xr := [2 * c - w for c, w in zip(mid, sim[-1])])
            if fxr < fsim[0]:
                fxe = evaluate(xe := [3 * c - 2 * w for c, w in zip(mid, sim[-1])])
                sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
            elif fxr < fsim[-2]:
                sim[-1], fsim[-1] = xr, fxr
            else:
                outside = fxr < fsim[-1]  # the reflection beat the worst vertex
                fxc = evaluate(xc := [1.5 * c - 0.5 * w if outside else 0.5 * c + 0.5 * w
                                      for c, w in zip(mid, sim[-1])])
                if (fxc <= fxr) if outside else (fxc < fsim[-1]):
                    sim[-1], fsim[-1] = xc, fxc
                else:  # shrink towards the best vertex
                    for j in range(1, n + 1):
                        sim[j] = [b + 0.5 * (a - b) for a, b in zip(sim[j], sim[0])]
                        fsim[j] = evaluate(sim[j])
            nit += 1
        except _Spent:
            pass
        sim, fsim = _by_value(sim, fsim)
    # np.min, not fsim[0]: a NaN anywhere in the simplex is the result
    return np.array(sim[0]), np.min(fsim), nit, nfev, nfev < maxfev and nit < maxiter


def _replaying(objective, z0, first):
    """``objective`` that answers a call at ``z0`` once from ``first``, its known result there."""
    pending = [first]

    def replayed(z):
        if pending and np.array_equal(z, z0):
            return pending.pop()
        return objective(z)

    return replayed


def _scaled_polish(objective, x, max_iter):
    """L-BFGS-B on the exact gradient from ``x``, in coordinates scaled so that
    its first step moves each z_i by at most ``POLISH_STEP`` (1 + |x_i|): the
    unit first step of the unscaled run can leave the finite region."""
    from scipy.optimize import minimize

    h = POLISH_STEP * (1.0 + np.abs(x))

    def scaled(y):
        fun, grad = objective(x + h * y)
        return fun, h * grad

    run = minimize(scaled, np.zeros(len(x)), jac=True, method="L-BFGS-B",
                   options={"maxiter": max_iter, "ftol": SCORE_FTOL, "gtol": _GTOL})
    run.x = x + h * run.x
    return run


@quiet()
def maximize(objective, z0_list, tol, max_iter):
    """Minimise ``objective`` from each start and keep the best end point.

    Returns ``(fun, x, converged, iterations)``.  A start where the
    objective is +inf or NaN costs that one evaluation and is dropped: it
    gets no search and adds nothing to ``iterations``.

    The objective's value at a start picks that start's route.  A plain
    value runs a Nelder–Mead simplex to ``tol`` relative in the objective
    and then an L-BFGS-B polish on finite-difference gradients.  A
    ``(value, gradient)`` tuple, as scipy's ``jac=True`` takes it, runs
    L-BFGS-B on that exact gradient, and only a start where it ends
    abnormally, not finite, or at the start itself while the start's
    gradient exceeds ``gtol`` (its first step left the finite region and
    nothing was searched) goes on through the fallback: the simplex on
    ``objective(z)[0]`` and ``_scaled_polish``.  Where the fallback converges
    to within the simplex's tolerance of that L-BFGS-B end's value, the end
    counts as converged.  The start's value is computed once either way.
    """
    from scipy.optimize import minimize

    best, iterations = None, 0
    for z0 in z0_list:
        z0 = np.asarray(z0, dtype=float)
        first = objective(z0)
        scored = isinstance(first, tuple)
        f0 = first[0] if scored else first
        if not np.isfinite(f0):
            continue
        ends = []
        if scored:
            run = minimize(_replaying(objective, z0, first), z0, jac=True, method="L-BFGS-B",
                           options={"maxiter": max_iter, "ftol": SCORE_FTOL, "gtol": _GTOL})
            iterations += run.nit
            stalled = (np.array_equal(run.x, z0)
                       and np.maximum.reduce(abs(first[1]), initial=0.0) > _GTOL)
            ok = bool(run.success and not stalled and np.isfinite(run.fun))
            ends.append((run.x, run.fun, ok))
        if not scored or not ok:
            fatol = tol * (1.0 + abs(f0))
            nm_iter = min(max_iter, 250 * len(z0))
            value = (lambda z: objective(z)[0]) if scored else objective
            x, fun, nit, _, nm_ok = _nelder_mead(value, z0, f0, 1e-6, fatol, nm_iter,
                                                 2 * nm_iter)
            if scored:
                polish = _scaled_polish(objective, x, max_iter)
            else:
                polish = minimize(value, x, method="L-BFGS-B",
                                  options={"maxiter": max_iter, "ftol": tol, "gtol": _GTOL})
            iterations += nit + polish.nit
            if polish.fun <= fun:
                x, fun = polish.x, polish.fun
            fallback_ok = bool(nm_ok or polish.success)
            if scored and fallback_ok and abs(fun - ends[0][1]) <= fatol:
                ends[0] = (*ends[0][:2], True)  # the fallback confirms the scored end
            ends.append((x, fun, fallback_ok))
        for x, fun, end_ok in ends:
            if np.isfinite(fun) and (best is None or fun < best[0]):
                best = (fun, x, end_ok)
    if best is None:
        raise RuntimeError("likelihood evaluation failed for every start")
    return best[0], best[1], best[2], iterations
