"""Covariate software-reliability-growth models over interval failure counts.

The expected cumulative failure count after interval t is

    m(t) = omega * sum_{l<=t} (1 - (1-h(l))^g_l) * prod_{s<l} (1-h(s))^g_s

with ``h`` a discrete hazard from a small family catalog and
``g_l = exp(x_l' beta)`` the covariate multiplier of the hazard exponent.
Interval counts are modeled as independent Poisson draws of the
increments m(t) - m(t-1); fits use a chronological 90/10 split and report
the held-out mean absolute error of predicted cumulative counts.

Only the geometric hazard has a canonical form; the remaining families
(nb2, dw2, dw3, s, tl) follow common conventions from the covariate SRGM
literature and are implementation choices:

=======  ==================  =============================================
family   parameters          hazard h(l), l = 1, 2, ...
=======  ==================  =============================================
gm       b in (0,1)          b
nb2      b in (0,1)          l b^2 / (1 + b (l-1))
dw2      b in (0,1)          1 - b^(2l-1)
dw3      b > 0, c > 0        1 - exp(-c l^b)
s        p, b in (0,1)       p (1 - b^l)
tl       c > 0, d > 0        (1 - e^(-1/c)) / (1 + e^(-(l-d)/c))
=======  ==================  =============================================
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from ._optim import maximize, starts

# parameter names and constraint type per family; a type is the open
# interval (0, _UPPER[type]), which holds neither NaN nor an infinity
HAZARD_FAMILIES = {
    "gm": (("b", "unit"),),
    "nb2": (("b", "unit"),),
    "dw2": (("b", "unit"),),
    "dw3": (("b", "pos"), ("c", "pos")),
    "s": (("p", "unit"), ("b", "unit")),
    "tl": (("c", "pos"), ("d", "pos")),
}
_UPPER = {"unit": 1.0, "pos": math.inf}

#: relative objective tolerance of the maximum-likelihood search
TOLERANCE = 1e-9
# starts and iteration cap per optimizer stage of ``fit_srgm``
_MULTISTARTS, _MAX_ITER = 3, 4000


@dataclass(frozen=True)
class DiscreteHazard:
    """Discrete hazard h(l) in (0, 1) for integer intervals l >= 1."""

    family: str
    params: tuple[float, ...]

    def __post_init__(self):
        if self.family not in HAZARD_FAMILIES:
            raise ValueError(f"unknown hazard family {self.family!r}")
        spec = HAZARD_FAMILIES[self.family]
        params = tuple(float(v) for v in self.params)
        if len(params) != len(spec):
            raise ValueError(f"{self.family} takes {len(spec)} parameters, got {len(params)}")
        for value, (name, kind) in zip(params, spec):
            if not 0 < value < _UPPER[kind]:
                raise ValueError(f"{self.family}: {name} must lie in (0, {_UPPER[kind]:g})")
        object.__setattr__(self, "params", params)

    def __call__(self, steps):
        l = np.asarray(steps, dtype=float)
        if (l < 1).any():
            raise ValueError("hazard is defined for intervals l >= 1")
        out = _hazard(self.family, self.params, l)
        return out if out.ndim else float(out)


def _hazard(family: str, p, l):
    """h(l) for a known family and in-domain parameters ``p`` on steps ``l``."""
    if family == "gm":
        return np.full_like(l, p[0])
    if family == "nb2":
        b = p[0]
        return l * b * b / (1.0 + b * (l - 1.0))
    if family == "dw2":
        return 1.0 - p[0] ** (2.0 * l - 1.0)
    if family == "dw3":
        b, c = p
        return 1.0 - np.exp(-c * l**b)
    if family == "s":
        return p[0] * (1.0 - p[1] ** l)
    c, d = p  # tl
    return (1.0 - np.exp(-1.0 / c)) / (1.0 + np.exp(-(l - d) / c))


@dataclass(frozen=True)
class IntervalCountSeries:
    """Failure counts per testing interval with a named covariate matrix."""

    counts: np.ndarray
    covariates: np.ndarray
    covariate_names: tuple[str, ...]
    performance: np.ndarray | None = None

    def __post_init__(self):
        counts = np.asarray(self.counts, dtype=float)
        if counts.ndim != 1 or len(counts) < 2:
            raise ValueError("need at least two intervals of counts")
        if (counts < 0).any() or (counts != np.round(counts)).any():
            raise ValueError("counts must be non-negative integers")
        X = np.asarray(self.covariates, dtype=float)
        if X.size == 0:
            X = np.zeros((len(counts), 0))
        if X.ndim != 2 or X.shape[0] != len(counts):
            raise ValueError("covariate matrix must have one row per interval")
        names = tuple(self.covariate_names)
        if len(names) != X.shape[1]:
            raise ValueError("one name per covariate column is required")
        if len(set(names)) != len(names):
            raise ValueError("covariate names must be unique")
        if self.performance is not None:
            r = np.asarray(self.performance, dtype=float)
            if r.shape != counts.shape:
                raise ValueError("performance series must align with counts")
            object.__setattr__(self, "performance", r)
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "covariates", X)
        object.__setattr__(self, "covariate_names", names)

    @property
    def n_steps(self) -> int:
        return len(self.counts)

    def columns(self, names) -> list[int]:
        """The covariate column of each of ``names``.

        Raises ValueError naming any name that is not a covariate of the
        series or that is given more than once.
        """
        names = tuple(names)
        missing = [c for c in names if c not in self.covariate_names]
        if missing:
            raise ValueError(f"unknown covariates: {missing}")
        repeated = list(dict.fromkeys(c for i, c in enumerate(names) if c in names[:i]))
        if repeated:
            raise ValueError(f"repeated covariates: {repeated}")
        return [self.covariate_names.index(c) for c in names]


def mean_value_increments(omega, hazard: DiscreteHazard, beta, covariates, t: int):
    """Per-interval increments of the mean value function for l = 1..t.

    This is the public entry point and validates its arguments;
    ``fit_srgm`` evaluates the same arithmetic through an objective
    prepared once per fit.
    """
    if t < 1:
        raise ValueError("t must be at least 1")
    beta = np.asarray(beta, dtype=float)
    if beta.size:
        X = np.asarray(covariates, dtype=float)
        if X.shape[0] < t:
            raise ValueError("covariates must cover intervals 1..t")
        g = np.exp(X[:t] @ beta)
    else:
        g = np.ones(t)
    h = hazard(np.arange(1, t + 1))
    h = np.atleast_1d(h)
    # saturating families can round h onto 1.0 at late intervals; that is
    # the valid limit where the remaining mass collapses into one step
    if (h <= 0).any() or (h > 1).any():
        raise ValueError("hazard must lie strictly in (0, 1) over 1..t")
    q = (1.0 - h) ** g
    prior = np.concatenate([[1.0], np.cumprod(q)[:-1]])
    return omega * (1.0 - q) * prior


def mean_value(omega, hazard: DiscreteHazard, beta, covariates, t: int) -> float:
    """Expected cumulative failures through interval t."""
    return float(np.sum(mean_value_increments(omega, hazard, beta, covariates, t)))


@dataclass(frozen=True)
class SRGMFit:
    """Fitted reliability-growth model with holdout diagnostics."""

    omega: float
    hazard: DiscreteHazard
    beta: dict[str, float]
    log_lik: float
    aic: float
    converged: bool
    iterations: int
    n_fit: int
    holdout_mae: float
    fitted: np.ndarray
    trace: tuple[tuple[str, float], ...] = ()

    def selected(self) -> tuple[str, ...]:
        return tuple(self.beta)


def _transforms(family):
    kinds = [kind for _, kind in HAZARD_FAMILIES[family]]

    def pack(params):
        out = []
        for value, kind in zip(params, kinds):
            out.append(np.log(value / (1.0 - value)) if kind == "unit" else np.log(value))
        return np.asarray(out)

    def unpack(z):
        return tuple(float(1.0 / (1.0 + np.exp(-value)) if kind == "unit" else np.exp(value))
                     for value, kind in zip(z, kinds))

    return pack, unpack, len(kinds)


_HAZARD_SEEDS = {
    "gm": (0.1,),
    "nb2": (0.1,),
    "dw2": (0.95,),
    "dw3": (1.0, 0.05),
    "s": (0.3, 0.8),
    "tl": (2.0, 3.0),
}


class _Objective:
    """Negative grouped-count log-likelihood of ``fit_srgm`` on the
    transformed scale, with omega profiled out.

    What depends only on the family and the fitting window is prepared
    once: the step grid, the covariate rows, the observed-failure mask and
    the buffer of the cumulative product.  A call maps ``z`` to parameters
    and runs the arithmetic of ``DiscreteHazard`` and
    ``mean_value_increments``; every point they would reject, or that
    gives no finite log-likelihood, returns ``inf``.
    """

    def __init__(self, family: str, X, counts):
        from scipy.special import gammaln

        _, self.unpack, self.k_h = _transforms(family)
        self.family = family
        self.upper = tuple(_UPPER[kind] for _, kind in HAZARD_FAMILIES[family])
        n = len(counts)
        self.steps = np.arange(1, n + 1, dtype=float)
        self.X = X
        self.ones = np.ones(n)
        self.counts = counts
        self.observed = counts > 0
        self.n_total = float(counts.sum())
        self.lgam = float(np.sum(gammaln(counts + 1.0)))
        # prior[l] = prod_{s<l} q_s, with the empty product in front
        self.prior = np.empty(n)
        self.prior[0] = 1.0

    def __call__(self, z):
        # beyond +-30 the logit transform rounds onto the (0, 1) boundary;
        # the ufunc reductions are the array methods without their wrappers
        if np.maximum.reduce(abs(z)) > 30:
            return np.inf
        params = self.unpack(z[:self.k_h])
        for value, upper in zip(params, self.upper):
            if not 0 < value < upper:
                return np.inf
        h = _hazard(self.family, params, self.steps)
        # in-domain parameters give no NaN hazard, so the extremes decide
        if np.minimum.reduce(h) <= 0 or np.maximum.reduce(h) > 1:
            return np.inf
        g = np.exp(self.X @ z[self.k_h:]) if self.X.shape[1] else self.ones
        q = (1.0 - h) ** g
        q[:-1].cumprod(out=self.prior[1:])
        s = (1.0 - q) * self.prior
        # NaN propagates through min and max: this rejects any
        # non-finite or negative increment
        low = np.minimum.reduce(s)
        if not (low >= 0 and np.maximum.reduce(s) < np.inf):
            return np.inf
        # an underflowed increment only rules the model out where a
        # failure was actually observed in that interval
        if low == 0 and ((s == 0) & self.observed).any():
            return np.inf
        mass = float(np.add.reduce(s))
        if mass <= 0:
            return np.inf
        omega = self.n_total / mass
        if low > 0:
            dot = float(np.dot(self.counts, np.log(s)))
        else:
            pos = s > 0
            dot = float(np.dot(self.counts[pos], np.log(s[pos])))
        ll = dot + self.n_total * np.log(omega) - self.n_total - self.lgam
        return -ll if math.isfinite(ll) else np.inf


def _check_split(split):
    """Raise ValueError unless ``split``, a fraction of the steps, lies in (0, 1]."""
    if not math.isfinite(split):
        raise ValueError(f"split must be finite, got {split}")
    if not 0 < split <= 1:
        raise ValueError(f"split must lie in (0, 1], got {split}")


def fit_srgm(series: IntervalCountSeries, hazard_family: str, *, covariates=None,
             split: float = 0.9) -> SRGMFit:
    """Fit by grouped-count Poisson likelihood on the first ``split`` of steps.

    The scale ``omega`` is profiled out (its conditional MLE is total
    observed failures over the unit-scale mean mass), and the remaining
    hazard and covariate parameters are optimized on transformed scales
    (``_MULTISTARTS`` starts, ``_MAX_ITER`` iterations per stage).
    Cumulative counts are predicted on the remaining steps and summarized
    as ``holdout_mae``.

    Raises
    ------
    ValueError
        If fewer than five steps are available, ``split`` is not finite
        or lies outside (0, 1], the fitting window has no failures, a
        requested covariate is unknown or repeated, or a requested
        covariate column is constant (its effect is confounded with the
        scale and not identifiable).
    """
    T = series.n_steps
    if T < 5:
        raise ValueError("need at least five intervals to fit and hold out")
    _check_split(split)
    if hazard_family not in HAZARD_FAMILIES:
        raise ValueError(f"unknown hazard family {hazard_family!r}")
    if covariates is None:
        covariates = series.covariate_names
    covariates = tuple(covariates)
    X = series.covariates[:, series.columns(covariates)]
    n_fit = int(np.floor(split * T))
    n_fit = max(2, min(T - 1 if split < 1 else T, n_fit))
    constant = [c for j, c in enumerate(covariates) if np.ptp(X[:n_fit, j]) == 0]
    if constant:
        raise ValueError(
            f"non-identifiable covariate column(s) {constant}: constant over the "
            "fitting window, confounded with the scale"
        )
    counts_fit = series.counts[:n_fit]
    n_total = float(counts_fit.sum())
    if n_total == 0:
        raise ValueError("no failures in the fitting window")
    pack, unpack, k_h = _transforms(hazard_family)
    q = X.shape[1]
    negloglik = _Objective(hazard_family, X[:n_fit], counts_fit)
    seed = np.concatenate([pack(_HAZARD_SEEDS[hazard_family]), np.zeros(q)])
    fun, z_hat, ok, iters = maximize(negloglik, starts(seed, _MULTISTARTS, 0.4, key=777),
                                     TOLERANCE, _MAX_ITER)
    hazard = DiscreteHazard(hazard_family, unpack(z_hat[:k_h]))
    beta_vec = z_hat[k_h:]
    s = mean_value_increments(1.0, hazard, beta_vec, X, n_fit)
    omega = n_total / float(np.sum(s))
    log_lik = -fun
    k = 1 + k_h + q
    fitted = np.cumsum(mean_value_increments(omega, hazard, beta_vec, X, T))
    observed_cum = np.cumsum(series.counts)
    if n_fit < T:
        holdout_mae = float(np.mean(np.abs(fitted[n_fit:] - observed_cum[n_fit:])))
    else:
        holdout_mae = float("nan")
    return SRGMFit(
        omega=float(omega),
        hazard=hazard,
        beta=dict(zip(covariates, beta_vec)),
        log_lik=log_lik,
        aic=2 * k - 2 * log_lik,
        converged=ok,
        iterations=iters,
        n_fit=n_fit,
        holdout_mae=holdout_mae,
        fitted=fitted,
    )


def _forward_aic(fit, base, names):
    """Greedy forward selection by AIC over the candidates ``names``.

    ``fit(indices)`` gives ``(aic, result)``, or None for a set that cannot
    be fitted; ``base`` is that pair for the empty set.  A round keeps the
    lowest AIC, and selection stops when none improves on the current AIC
    by more than 1e-9.  Returns the selected indices, the final result and
    the trace: ("", base AIC), then (name, AIC) per accepted candidate."""
    (aic, result), selected, trace = base, [], [("", base[0])]
    remaining = list(range(len(names)))
    while remaining:
        tried = [(out, j) for j in remaining if (out := fit(selected + [j])) is not None]
        if not tried:
            break
        (new_aic, new_result), j = min(tried, key=lambda t: t[0][0])  # first on a tie
        if new_aic >= aic - 1e-9:
            break
        aic, result = new_aic, new_result
        selected.append(j)
        remaining.remove(j)
        trace.append((names[j], aic))
    return selected, result, tuple(trace)


def forward_stepwise(series: IntervalCountSeries, hazard_family: str,
                     candidates=None, *, split: float = 0.9) -> SRGMFit:
    """Greedy covariate selection by AIC on the fitting window.

    Starting from the covariate-free fit, ``_forward_aic`` accepts the
    candidate whose addition most improves AIC, skipping sets whose fit
    raises ValueError or RuntimeError, until no addition improves.  Holdout
    MAE is reported for the final model but never used for selection.  An
    unknown or repeated candidate raises ValueError before any fit.
    """
    candidates = list(series.covariate_names if candidates is None else candidates)
    series.columns(candidates)

    def fit(selected):
        try:
            out = fit_srgm(series, hazard_family,
                           covariates=[candidates[j] for j in selected], split=split)
        except (ValueError, RuntimeError):
            return None
        return out.aic, out

    base = fit_srgm(series, hazard_family, covariates=(), split=split)
    _, best, trace = _forward_aic(fit, (base.aic, base), candidates)
    return replace(best, trace=trace)


@dataclass(frozen=True)
class ResilienceFit:
    """Least-squares model of per-interval performance changes."""

    form: str
    intercept: float
    coef: dict[str, float]
    trace: tuple[tuple[str, float], ...]
    reconstructed: np.ndarray
    holdout_mae: float
    baseline_mae: float
    n_fit: int

    def selected(self) -> tuple[str, ...]:
        return tuple(self.coef)


def _expand_features(X, names, form: str, degree: int):
    cols = [X[:, j] for j in range(X.shape[1])]
    out_cols = list(cols)
    out_names = list(names)
    if form == "interactions":
        for i in range(len(cols)):
            for j in range(i + 1, len(cols)):
                out_cols.append(cols[i] * cols[j])
                out_names.append(f"{names[i]}:{names[j]}")
    elif form == "poly":
        for power in range(2, degree + 1):
            for j, name in enumerate(names):
                out_cols.append(cols[j] ** power)
                out_names.append(f"{name}^{power}")
    elif form != "linear":
        raise ValueError(f"unknown model form {form!r}")
    matrix = np.column_stack(out_cols) if out_cols else np.zeros((X.shape[0], 0))
    return matrix, out_names


def _ols_aic(X, y):
    n = len(y)
    coef, *_ = np.linalg.lstsq(X, y, rcond=None)
    resid = y - X @ coef
    rss = float(resid @ resid)
    sigma2 = max(rss / n, 1e-300)
    return n * np.log(sigma2) + 2 * X.shape[1], coef


def fit_resilience(series: IntervalCountSeries, form: str = "linear",
                   candidates=None, *, degree: int = 2, split: float = 0.9) -> ResilienceFit:
    """Regress performance changes on covariates and rebuild the trajectory.

    The response is ``delta_r(t) = r(t) - r(t-1)`` for t = 2..T; features
    are the chosen form's expansion of the covariates at step t, selected
    forward by AIC on the chronological fitting window (an intercept is
    always included).  The trajectory estimate anchors at r(1) and sums
    fitted changes, so the reconstruction identity holds exactly.  An
    unknown or repeated candidate raises ValueError.
    """
    if series.performance is None:
        raise ValueError("series has no performance column")
    _check_split(split)
    if form == "poly" and degree < 1:
        raise ValueError(f"polynomial degree must be at least 1, got {degree}")
    r = series.performance
    T = series.n_steps
    if candidates is None:
        candidates = series.covariate_names
    X_raw = series.covariates[:, series.columns(candidates)]
    features, feature_names = _expand_features(X_raw[1:], list(candidates), form, degree)
    dr = np.diff(r)
    n_rows = len(dr)
    n_fit = max(1, min(n_rows, int(np.floor(split * T)) - 1))

    def design(selected_idx, rows):
        return np.column_stack([np.ones(len(rows)), *(features[rows, j] for j in selected_idx)])

    fit_rows = np.arange(n_fit)

    def fit(selected):
        d = design(selected, fit_rows)
        if d.shape[0] > d.shape[1] and np.linalg.matrix_rank(d) == d.shape[1]:
            return _ols_aic(d, dr[fit_rows])
        return None

    base = _ols_aic(design([], fit_rows), dr[fit_rows])
    selected, coef, trace = _forward_aic(fit, base, feature_names)

    all_rows = np.arange(n_rows)
    dr_hat = design(selected, all_rows) @ coef
    reconstructed = np.concatenate([[r[0]], r[0] + np.cumsum(dr_hat)])
    # intercept-only reference reconstruction for the same split
    base_rec = np.concatenate([[r[0]], r[0] + np.cumsum(np.full(n_rows, base[1][0]))])
    if n_fit < n_rows:
        hold = np.arange(n_fit + 1, T)
        holdout_mae = float(np.mean(np.abs(reconstructed[hold] - r[hold])))
        baseline_mae = float(np.mean(np.abs(base_rec[hold] - r[hold])))
    else:
        holdout_mae = baseline_mae = float("nan")
    return ResilienceFit(
        form=form,
        intercept=float(coef[0]),
        coef={feature_names[j]: float(v) for j, v in zip(selected, coef[1:])},
        trace=trace,
        reconstructed=reconstructed,
        holdout_mae=holdout_mae,
        baseline_mae=baseline_mae,
        n_fit=n_fit,
    )
