"""Multistart maximum-likelihood search shared by the fitters.

Fitters minimise a negative log-likelihood over an unconstrained
(usually log-scale) parameter vector from a list of starts; standard
errors come from a finite-difference Hessian at the optimum.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import minimize


def starts(seed, n: int, spread, key: int) -> list[np.ndarray]:
    """``seed`` plus ``n - 1`` normal jitters of it with SD ``spread``.

    ``spread`` is a scalar or one SD per coordinate.  Each fitter passes
    its own fixed ``key``, so a fit is a pure function of its inputs.
    """
    seed = np.asarray(seed, dtype=float)
    jitter = np.random.default_rng(key)
    return [seed] + [seed + jitter.normal(0.0, spread, size=len(seed))
                     for _ in range(max(0, n - 1))]


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


def maximize(negloglik_z, z0_list, tol, max_iter):
    """Simplex descent per start, then quasi-Newton polish; best kept.

    The simplex stage works to ``tol`` relative in the objective; the
    L-BFGS-B polish (finite-difference gradients) sharpens the optimum.
    """
    best = None
    iterations = 0
    for z0 in z0_list:
        f0 = negloglik_z(np.asarray(z0, dtype=float))
        fatol = tol * (1.0 + (abs(f0) if np.isfinite(f0) else 1.0))
        nm_iter = min(max_iter, 250 * len(z0))
        # infinite objective values off the feasible region trip benign
        # invalid-subtract warnings inside the optimizers
        with np.errstate(invalid="ignore", over="ignore"):
            res = minimize(
                negloglik_z,
                z0,
                method="Nelder-Mead",
                options={"xatol": 1e-6, "fatol": fatol, "maxiter": nm_iter, "maxfev": 2 * nm_iter},
            )
            iterations += res.nit
            polish = minimize(
                negloglik_z,
                res.x,
                method="L-BFGS-B",
                options={"maxiter": max_iter, "ftol": tol, "gtol": 1e-10},
            )
        iterations += polish.nit
        cand = polish if polish.fun <= res.fun else res
        ok = bool(res.success or polish.success)
        if np.isfinite(cand.fun) and (best is None or cand.fun < best[0]):
            best = (cand.fun, cand.x, ok)
    if best is None:
        raise RuntimeError("likelihood evaluation failed for every start")
    return best[0], best[1], best[2], iterations
