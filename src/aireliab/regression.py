"""Covariate regression models: linear, GLM, censored AFT, and the
simplex mixture model with covariate interactions.

The mixture model is the no-intercept second-order form over proportions
(x1, x2, x3) summing to one, with binary covariates z entering through
z-by-component interactions and pairwise z products:

    y = sum_j b_j x_j + sum_{j<j'} b_jj' x_j x_j'
        + sum_k sum_j g_kj z_k x_j + sum_{k<k'} d_kk' z_k z_k' + noise
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._optim import maximize, numeric_stderr
from .datasets.table import column, select

_SQRT_2PI = np.sqrt(2 * np.pi)
_LOG_SQRT_2PI = np.log(_SQRT_2PI)


class RankDeficiencyError(ValueError):
    """Design matrix is rank deficient; ``columns`` names the dependents."""

    def __init__(self, columns):
        self.columns = tuple(columns)
        super().__init__(f"rank-deficient design; dependent columns: {list(columns)}")


class SeparationError(RuntimeError):
    """Bernoulli responses are completely separated by the covariates."""


def _check_rank(X, names):
    """Raise RankDeficiencyError listing columns beyond the pivoted rank."""
    if X.shape[1] == 0:
        return
    import scipy.linalg

    _, R, piv = scipy.linalg.qr(X, mode="economic", pivoting=True)
    diag = np.abs(np.diag(R))
    tol = diag[0] * max(X.shape) * np.finfo(float).eps if diag.size and diag[0] > 0 else 0.0
    rank = int(np.sum(diag > tol))
    if rank < X.shape[1]:
        raise RankDeficiencyError([names[j] for j in sorted(piv[rank:])])


def _with_intercept(X, names, add_intercept):
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X[:, None]
    if names is None:
        names = [f"x{j + 1}" for j in range(X.shape[1])]
    names = list(names)
    if add_intercept:
        X = np.column_stack([np.ones(X.shape[0]), X])
        names = ["intercept"] + names
    return X, names


@dataclass(frozen=True)
class LinearFit:
    names: tuple[str, ...]
    coef: np.ndarray
    stderr: np.ndarray
    resid_sd: float
    n: int
    df_resid: int
    add_intercept: bool

    def predict(self, X):
        return _with_intercept(X, None, self.add_intercept)[0] @ self.coef


def fit_linear(X, y, *, names=None, add_intercept=True) -> LinearFit:
    """Ordinary least squares with standard errors.

    Raises RankDeficiencyError naming the offending columns when the
    design (including the intercept, if added) is not full rank.
    """
    y = np.asarray(y, dtype=float)
    D, cols = _with_intercept(X, names, add_intercept)
    if D.shape[0] <= D.shape[1]:
        raise ValueError("need more rows than coefficients")
    _check_rank(D, cols)
    coef, *_ = np.linalg.lstsq(D, y, rcond=None)
    resid = y - D @ coef
    df = D.shape[0] - D.shape[1]
    sigma2 = float(resid @ resid) / df
    cov = sigma2 * np.linalg.inv(D.T @ D)
    return LinearFit(
        names=tuple(cols),
        coef=coef,
        stderr=np.sqrt(np.diag(cov)),
        resid_sd=float(np.sqrt(sigma2)),
        n=D.shape[0],
        df_resid=df,
        add_intercept=add_intercept,
    )


GLM_FAMILIES = ("bernoulli-logit", "bernoulli-probit", "poisson-log")
# IRLS stops at a relative coefficient step below _GLM_TOL or after _GLM_MAX_ITER steps
_GLM_TOL, _GLM_MAX_ITER = 1e-10, 100


@dataclass(frozen=True)
class GLMFit:
    family: str
    names: tuple[str, ...]
    coef: np.ndarray
    stderr: np.ndarray
    log_lik: float
    converged: bool
    iterations: int
    add_intercept: bool

    def linear_predictor(self, X):
        return _with_intercept(X, None, self.add_intercept)[0] @ self.coef


def _glm_loglik(family, y, eta):
    from scipy.special import gammaln, log_ndtr

    if family == "bernoulli-logit":
        return float(np.sum(y * eta - np.logaddexp(0.0, eta)))
    if family == "bernoulli-probit":
        return float(np.sum(y * log_ndtr(eta) + (1 - y) * log_ndtr(-eta)))
    mu = np.exp(eta)
    return float(np.sum(y * eta - mu - gammaln(y + 1.0)))


def _irls_step(family, eta, eps, ndtr):
    """Mean, IRLS weight and d(mu)/d(eta) at linear predictor ``eta``.

    The working response is ``eta + (y - mu) / dmu``; means and densities
    are clipped at ``eps`` so no weight or divisor is zero.  ``ndtr`` is
    scipy's standard normal CDF, which the probit mean needs.
    """
    if family == "bernoulli-logit":
        mu = np.clip(1.0 / (1.0 + np.exp(-eta)), eps, 1 - eps)
        w = mu * (1 - mu)
        return mu, w, w
    if family == "bernoulli-probit":
        mu = np.clip(ndtr(eta), eps, 1 - eps)
        phi = np.clip(np.exp(-eta**2 / 2.0) / _SQRT_2PI, eps, None)
        return mu, phi**2 / (mu * (1 - mu)), phi
    mu = np.clip(np.exp(eta), eps, None)
    return mu, mu, mu


def fit_glm(X, y, family: str, *, names=None, add_intercept=True) -> GLMFit:
    """GLM fit via iteratively reweighted least squares (``_GLM_TOL``, ``_GLM_MAX_ITER``).

    Bernoulli families detect complete separation (fitted probabilities
    driven to 0/1 on the correct side for every row) and raise
    SeparationError rather than report diverging coefficients.
    """
    if family not in GLM_FAMILIES:
        raise ValueError(f"unknown family {family!r}; expected one of {GLM_FAMILIES}")
    from scipy.special import ndtr

    y = np.asarray(y, dtype=float)
    bernoulli = family.startswith("bernoulli")
    if bernoulli and not np.all(np.isin(y, (0.0, 1.0))):
        raise ValueError("bernoulli responses must be 0/1")
    if family == "poisson-log" and (np.any(y < 0) or np.any(y != np.round(y))):
        raise ValueError("poisson responses must be non-negative counts")
    D, cols = _with_intercept(X, names, add_intercept)
    _check_rank(D, cols)
    n, p = D.shape
    coef = np.zeros(p)
    if family == "poisson-log":
        eta = np.full(n, np.log(max(float(np.mean(y)), 0.1)))
    else:
        eta = np.zeros(n)
    converged = False
    it = 0
    eps = 1e-10
    for it in range(1, _GLM_MAX_ITER + 1):
        mu, w, dmu = _irls_step(family, eta, eps, ndtr)
        z = eta + (y - mu) / dmu
        WD = D * w[:, None]
        try:
            new_coef = np.linalg.solve(D.T @ WD, WD.T @ z)
        except np.linalg.LinAlgError:
            raise RankDeficiencyError(cols)
        delta = np.max(np.abs(new_coef - coef)) / (1.0 + np.max(np.abs(new_coef)))
        coef = new_coef
        eta = D @ coef
        if bernoulli and np.max(np.abs(eta)) > 30:
            signed = (2 * y - 1) * eta
            if np.all(signed > 0):
                raise SeparationError(
                    "complete separation: responses are perfectly classified, "
                    "coefficients diverge"
                )
        if delta < _GLM_TOL:
            converged = True
            break
    _, w, _ = _irls_step(family, eta, eps, ndtr)
    cov = np.linalg.inv(D.T @ (D * w[:, None]))
    return GLMFit(
        family=family,
        names=tuple(cols),
        coef=coef,
        stderr=np.sqrt(np.diag(cov)),
        log_lik=_glm_loglik(family, y, eta),
        converged=converged,
        iterations=it,
        add_intercept=add_intercept,
    )


AFT_DISTRIBUTIONS = ("lognormal", "weibull")
_AFT_MAX_ITER = 500  # per optimizer stage of ``fit_aft``


@dataclass(frozen=True)
class AFTFit:
    dist: str
    names: tuple[str, ...]
    coef: np.ndarray
    sigma: float
    log_lik: float
    converged: bool
    stderr: np.ndarray | None
    add_intercept: bool


def fit_aft(times, event, X, dist: str = "lognormal", *, names=None,
            add_intercept=True) -> AFTFit:
    """Censored accelerated-failure-time fit: log(t) = x' beta + sigma * eps.

    ``event`` is 1 for an observed failure and 0 for right censoring; the
    error is standard normal (lognormal) or standard smallest extreme
    value (weibull).  With no censoring and the lognormal error the
    coefficients equal the least-squares fit of log(t); sigma uses the
    maximum-likelihood 1/n variance convention rather than OLS's 1/(n-p).
    ``stderr`` holds the coefficients' standard errors from a
    central-difference Hessian at the optimum, or None when that Hessian
    is not positive definite.
    """
    if dist not in AFT_DISTRIBUTIONS:
        raise ValueError(f"unknown distribution {dist!r}; expected one of {AFT_DISTRIBUTIONS}")
    from scipy.special import log_ndtr

    times = np.asarray(times, dtype=float)
    event = np.asarray(event, dtype=int)
    if np.any(times <= 0):
        raise ValueError("lifetimes must be positive")
    if not np.any(event == 1):
        raise ValueError("all observations are censored; nothing to fit")
    D, cols = _with_intercept(X, names, add_intercept)
    _check_rank(D, cols)
    logt = np.log(times)
    # centering makes the search invariant to rescaling the time unit:
    # the shift is restored on the intercept afterwards
    shift = float(np.mean(logt)) if add_intercept else 0.0
    logt = logt - shift
    obs = event == 1

    def negloglik(params):
        beta, log_sigma = params[:-1], params[-1]
        if abs(log_sigma) > 50:
            return np.inf
        sigma = np.exp(log_sigma)
        z = (logt - D @ beta) / sigma
        zo, zc = z[obs], z[~obs]
        if dist == "lognormal":
            ll = np.sum(-zo**2 / 2.0 - _LOG_SQRT_2PI - log_sigma) + np.sum(log_ndtr(-zc))
        else:
            ll = np.sum(zo - np.exp(zo) - log_sigma) - np.sum(np.exp(zc))
        return -ll if np.isfinite(ll) else np.inf

    beta0, *_ = np.linalg.lstsq(D[obs], logt[obs], rcond=None)
    resid = logt[obs] - D[obs] @ beta0
    sigma0 = max(float(np.sqrt(np.mean(resid**2))), 1e-3)
    x0 = np.concatenate([beta0, [np.log(sigma0)]])
    # the tolerance is relative to the objective, a sum over every
    # observation, so near the optimum its relative changes are tiny
    fun, z_hat, ok, _ = maximize(negloglik, [x0], 1e-14, _AFT_MAX_ITER)
    coef = z_hat[:-1].copy()
    if add_intercept:
        coef[0] += shift
    sigma = float(np.exp(z_hat[-1]))
    # location and log-scale parameters: an absolute step, as the centred
    # intercept sits near 0 where a relative step vanishes
    stderr = numeric_stderr(negloglik, z_hat, 1e-5)
    if stderr is not None:
        stderr = np.array(stderr[:-1])
    return AFTFit(
        dist=dist,
        names=tuple(cols),
        coef=coef,
        sigma=sigma,
        log_lik=-float(fun),
        converged=ok,
        stderr=stderr,
        add_intercept=add_intercept,
    )


def aggregate_auc(per_class_auc) -> tuple[float, float]:
    """Mean of per-class AUC values and log of their sample SD.

    Raises ValueError when fewer than two classes are given, values fall
    outside [0, 1], or all values coincide ("zero dispersion": the log SD
    is undefined).
    """
    eta = np.asarray(per_class_auc, dtype=float)
    if eta.ndim != 1 or len(eta) < 2:
        raise ValueError("need at least two per-class AUC values")
    if np.any(eta < 0) or np.any(eta > 1):
        raise ValueError("AUC values must lie in [0, 1]")
    sd = float(np.std(eta, ddof=1))
    if sd == 0:
        raise ValueError("zero dispersion: all AUC values equal, log SD undefined")
    return float(np.mean(eta)), float(np.log(sd))


MIXTURE_COMPONENTS = ("x1", "x2", "x3")


def mixture_terms(z_names=("z1", "z2")) -> tuple[str, ...]:
    """Ordered coefficient names of the mixture design."""
    comps = MIXTURE_COMPONENTS
    terms = list(comps)
    terms += [f"{comps[i]}:{comps[j]}" for i in range(3) for j in range(i + 1, 3)]
    terms += [f"{z}:{x}" for z in z_names for x in comps]
    terms += [f"{z_names[i]}:{z_names[j]}" for i in range(len(z_names))
              for j in range(i + 1, len(z_names))]
    return tuple(terms)


def mixture_design(x, z, z_names=("z1", "z2")) -> tuple[np.ndarray, tuple[str, ...]]:
    """No-intercept design matrix of the mixture model."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    z = np.atleast_2d(np.asarray(z, dtype=float))
    if x.shape[1] != 3:
        raise ValueError("mixture proportions must have three components")
    if z.shape[1] != len(z_names):
        raise ValueError("one name per z column is required")
    cols = [x[:, 0], x[:, 1], x[:, 2]]
    cols += [x[:, i] * x[:, j] for i in range(3) for j in range(i + 1, 3)]
    for k in range(z.shape[1]):
        cols += [z[:, k] * x[:, j] for j in range(3)]
    cols += [z[:, i] * z[:, j] for i in range(z.shape[1]) for j in range(i + 1, z.shape[1])]
    return np.column_stack(cols), mixture_terms(z_names)


@dataclass(frozen=True)
class MixtureFit:
    response: str
    scenario: str | None
    z_names: tuple[str, ...]
    terms: tuple[str, ...]
    coef: np.ndarray
    stderr: np.ndarray
    resid_sd: float
    n: int
    df_resid: int

    def coef_dict(self) -> dict[str, float]:
        return {t: float(c) for t, c in zip(self.terms, self.coef)}

    def predict(self, x, z):
        D, names = mixture_design(x, z, self.z_names)
        idx = [names.index(t) for t in self.terms]
        return D[:, idx] @ self.coef

    def conf_int(self, level: float = 0.95) -> np.ndarray:
        """Two-sided t confidence intervals, one (lo, hi) row per term."""
        if not 0 < level < 1:
            raise ValueError(f"confidence level must lie in (0, 1), got {level}")
        from scipy.special import stdtrit

        half = stdtrit(self.df_resid, 0.5 + level / 2.0) * self.stderr
        return np.column_stack([self.coef - half, self.coef + half])


SCENARIOS = ("c1", "c2", "c3")


def fit_mixture(records, response: str = "y1", *, scenario: str | None = None,
                pooled: bool = False) -> MixtureFit:
    """Least-squares fit of the mixture model to robustness records.

    Records are a table or a list of objects carrying x1..x3, z1, z2,
    c1..c3, y1, y2.  By default the model is fitted separately per
    scenario (pass one of "c1", "c2", "c3"); with ``pooled=True`` all rows
    are used and the c2, c3 flags join the z covariates (c1 is the
    reference and would be collinear with the proportions).
    """
    if response not in ("y1", "y2"):
        raise ValueError("response must be 'y1' or 'y2'")
    if pooled:
        if scenario is not None:
            raise ValueError("scenario filter and pooled fit are mutually exclusive")
        rows, z_names = records, ("z1", "z2", "c2", "c3")
    else:
        if scenario not in SCENARIOS:
            raise ValueError(f"scenario must be one of {SCENARIOS} (or use pooled=True)")
        rows, z_names = select(records, scenario, 1), ("z1", "z2")
        if not rows:
            raise ValueError(f"no rows in scenario {scenario}")

    def floats(name):
        return np.asarray(column(rows, name), dtype=float)

    D, terms = mixture_design(np.column_stack([floats(name) for name in ("x1", "x2", "x3")]),
                              np.column_stack([floats(name) for name in z_names]), z_names)
    # one-hot scenario flags make some z products identically zero in the
    # pooled fit; such terms have no support and are dropped
    support = np.any(D != 0.0, axis=0)
    D = D[:, support]
    terms = tuple(t for t, keep in zip(terms, support) if keep)
    fit = fit_linear(D, floats(response), names=terms, add_intercept=False)
    return MixtureFit(
        response=response,
        scenario=scenario,
        z_names=z_names,
        terms=fit.names,
        coef=fit.coef,
        stderr=fit.stderr,
        resid_sd=fit.resid_sd,
        n=fit.n,
        df_resid=fit.df_resid,
    )


def simplex_lattice(resolution: int) -> np.ndarray:
    """Barycentric lattice {(i, j, k) / r : i + j + k = r} on the simplex.

    Contains (r + 1)(r + 2) / 2 points; vertices always appear, and the
    centroid appears whenever r is a multiple of 3.
    """
    if resolution < 2:
        raise ValueError("grid resolution must be at least 2")
    r = int(resolution)
    pts = [
        (i / r, j / r, (r - i - j) / r)
        for i in range(r + 1)
        for j in range(r - i + 1)
    ]
    return np.asarray(pts, dtype=float)


def predict_simplex_grid(fit: MixtureFit, z, resolution: int = 20) -> np.ndarray:
    """Table of (x1, x2, x3, yhat) over the barycentric lattice at fixed z."""
    grid = simplex_lattice(resolution)
    z = np.asarray(z, dtype=float).reshape(1, -1)
    zz = np.repeat(z, len(grid), axis=0)
    yhat = fit.predict(grid, zz)
    return np.column_stack([grid, yhat])
