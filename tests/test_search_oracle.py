"""The shared fitting searches against the separate copies they replaced.

``srgm.forward_stepwise`` and the covariate selection of
``srgm.fit_resilience`` run one greedy AIC loop (``srgm._forward_aic``);
``recurrent.fit_mle`` runs one search objective (``recurrent._Profile``)
for every shaped family.  The oracles below are the code that came before, each with its own loop, objective
and search.  The stepwise paths must reproduce them exactly: the same
traces, selections and coefficients, bit for bit.

The recurrent oracle searches the full parameters with the simplex; the
shared path searches the profile likelihood, with the amplitude at its
closed-form maximum, on an exact score.  So it must reach at least the
oracle's log-likelihood less 1e-9 relative, at the same theta to 1e-5
relative (gompertz, whose fits run along a ridge, is held to the
log-likelihood only).  The hpp fit of ``fit_mle`` keeps its closed form
and stays equal to its oracle in every field.

The stepwise loop is exercised on generated AIC tables through a stand-in
for ``fit_srgm`` (ties, improvements at the 1e-9 threshold, sets that
raise ValueError or RuntimeError; a repeated candidate must be refused),
and on real fits with noise-only, tied and constant candidates and short
series.
"""

from dataclasses import dataclass, replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from aireliab import recurrent, srgm
from aireliab._optim import maximize, numeric_stderr, starts
from aireliab.datasets import constant_exposure, load
from aireliab.recurrent import (
    FAMILIES,
    FAMILY_PARAMS,
    TOLERANCE,
    BaselineIntensityModel,
    RecurrentFit,
    _AMPLITUDE,
    _Packed,
    fit_mle,
)
from aireliab.simulate import interval_series_from_adversarial, simulate_fleet, simulate_srgm_counts
from aireliab.srgm import IntervalCountSeries, _expand_features

from conftest import DATA_DIR, PROPERTY

# ---------------------------------------------------------------------------
# oracles: the searches as they were before they shared one path


def oracle_forward_stepwise(series, hazard_family, candidates=None, **options):
    if candidates is None:
        candidates = series.covariate_names
    candidates = list(candidates)
    best = srgm.fit_srgm(series, hazard_family, covariates=(), **options)
    trace = [("", best.aic)]
    selected: list[str] = []
    remaining = list(candidates)
    while remaining:
        round_best = None
        for cand in remaining:
            try:
                fit = srgm.fit_srgm(series, hazard_family, covariates=(*selected, cand), **options)
            except (ValueError, RuntimeError):
                continue
            if round_best is None or fit.aic < round_best[1].aic:
                round_best = (cand, fit)
        if round_best is None or round_best[1].aic >= best.aic - 1e-9:
            break
        selected.append(round_best[0])
        remaining.remove(round_best[0])
        best = round_best[1]
        trace.append((round_best[0], best.aic))
    return replace(best, trace=tuple(trace))


def oracle_ols_aic(X, y):
    n = len(y)
    coef, *_ = np.linalg.lstsq(X, y, rcond=None)
    resid = y - X @ coef
    rss = float(resid @ resid)
    sigma2 = max(rss / n, 1e-300)
    return coef, n * np.log(sigma2) + 2 * X.shape[1]


def oracle_fit_resilience(series, form="linear", candidates=None, *, degree=2, split=0.9):
    r = series.performance
    T = series.n_steps
    if candidates is None:
        candidates = series.covariate_names
    cols = [series.covariate_names.index(c) for c in candidates]
    X_raw = series.covariates[:, cols]
    features, feature_names = _expand_features(X_raw[1:], list(candidates), form, degree)
    dr = np.diff(r)
    n_rows = len(dr)
    n_fit = max(1, min(n_rows, int(np.floor(split * T)) - 1))

    def design(selected_idx, rows):
        parts = [np.ones(len(rows))]
        for j in selected_idx:
            parts.append(features[rows, j])
        return np.column_stack(parts)

    fit_rows = np.arange(n_fit)
    base_coef, aic = oracle_ols_aic(design([], fit_rows), dr[fit_rows])
    coef = base_coef
    selected: list[int] = []
    trace = [("", aic)]
    remaining = list(range(features.shape[1]))
    while remaining:
        round_best = None
        for j in remaining:
            cand_design = design(selected + [j], fit_rows)
            if cand_design.shape[0] <= cand_design.shape[1]:
                continue
            if np.linalg.matrix_rank(cand_design) < cand_design.shape[1]:
                continue
            c, a = oracle_ols_aic(cand_design, dr[fit_rows])
            if round_best is None or a < round_best[2]:
                round_best = (j, c, a)
        if round_best is None or round_best[2] >= aic - 1e-9:
            break
        selected.append(round_best[0])
        remaining.remove(round_best[0])
        coef, aic = round_best[1], round_best[2]
        trace.append((feature_names[round_best[0]], aic))

    all_rows = np.arange(n_rows)
    dr_hat = design(selected, all_rows) @ coef
    reconstructed = np.concatenate([[r[0]], r[0] + np.cumsum(dr_hat)])
    base_rec = np.concatenate([[r[0]], r[0] + np.cumsum(np.full(n_rows, base_coef[0]))])
    if n_fit < n_rows:
        hold = np.arange(n_fit + 1, T)
        holdout_mae = float(np.mean(np.abs(reconstructed[hold] - r[hold])))
        baseline_mae = float(np.mean(np.abs(base_rec[hold] - r[hold])))
    else:
        holdout_mae = baseline_mae = float("nan")
    return srgm.ResilienceFit(
        form=form,
        intercept=float(coef[0]),
        coef={feature_names[j]: float(v) for j, v in zip(selected, coef[1:])},
        trace=tuple(trace),
        reconstructed=reconstructed,
        holdout_mae=holdout_mae,
        baseline_mae=baseline_mae,
        n_fit=n_fit,
    )


def oracle_mle_objective(packed, family):
    def negloglik_z(z):
        if np.maximum.reduce(abs(z)) > 300:
            return np.inf
        return -packed.log_lik_theta(family, np.exp(z).tolist())

    return negloglik_z


def oracle_moment_seed(family, packed):
    """The full starting parameters, amplitude included, that the search's
    starts came from before the amplitude was profiled out."""
    tau = packed.tau
    rate = max(packed.n_events, 1) / max(packed.total_exposure, 1e-12)
    if family == "power_law":
        return np.array([1.0, 1.0 / rate])
    if family == "weibull_growth":
        return np.array([rate * tau / (1.0 - np.exp(-1.0)), 1.0 / tau, 1.0])
    if family == "gompertz":
        mass = np.exp(-np.exp(-1.0)) - np.exp(-1.0)
        return np.array([rate * tau / mass, 1.0, 1.0 / tau])
    return np.array([rate * tau / np.log(2.0), 1.0 / tau])


def oracle_fit_mle(units, family, *, multistarts=5, max_iter=2000):
    packed = _Packed(units)
    k = len(FAMILY_PARAMS[family])
    if family == "hpp":
        rate = packed.n_events / packed.total_exposure
        model = BaselineIntensityModel("hpp", (rate,))
        ll = packed.log_lik(model)
        stderr = (rate / np.sqrt(packed.n_events),) if packed.n_events else None
        return RecurrentFit(model, ll, 2 * k - 2 * ll, True, 0, stderr)
    fun, z_hat, ok, iters = maximize(
        oracle_mle_objective(packed, family),
        starts(np.log(oracle_moment_seed(family, packed)), multistarts, 0.5, key=12345),
        TOLERANCE, max_iter
    )
    theta = np.exp(z_hat)
    model = BaselineIntensityModel(family, tuple(theta))
    ll = -fun

    def negloglik_theta(th):
        if (th <= 0).any():
            return np.inf
        return -packed.log_lik(BaselineIntensityModel(family, tuple(th)))

    stderr = numeric_stderr(negloglik_theta, theta, 1e-5 * (np.abs(theta) + 1e-8))
    return RecurrentFit(model, ll, 2 * k - 2 * ll, ok, iters, stderr)


def same(a, b) -> bool:
    """Exact equality of numbers and arrays, NaN equal to NaN."""
    return np.array_equal(np.asarray(a), np.asarray(b), equal_nan=True)


# ---------------------------------------------------------------------------
# the stepwise loop on generated AIC tables


@dataclass(frozen=True)
class TableFit:
    aic: float
    covariates: tuple
    trace: tuple = ()


NAMES = ("a", "b", "c", "d", "e", "f")
STUB_SERIES = IntervalCountSeries(np.arange(6.0), np.zeros((6, len(NAMES))), NAMES)
# whole AIC steps with ties, steps either side of the 1e-9 threshold, and any step
EFFECTS = st.sampled_from([-4.0, -2.0, -2.0, 0.0, 1.5]) \
    | st.sampled_from([-5e-10, -1e-9, -2e-9, -1e-8]) | st.floats(-5.0, 5.0)


@st.composite
def aic_tables(draw):
    """Candidates (repeats allowed), an AIC per covariate set, and the
    candidates whose sets cannot be fitted."""
    names = draw(st.lists(st.sampled_from(NAMES), max_size=7))
    effects = {name: draw(EFFECTS) for name in NAMES}
    crowding = draw(st.sampled_from([0.0, 0.0, 0.25, 1.0]))
    fails = draw(st.dictionaries(st.sampled_from(NAMES),
                                 st.sampled_from([ValueError, RuntimeError]), max_size=3))
    return names, effects, crowding, fails


def table_fitter(effects, crowding, fails):
    def fit_srgm(series, hazard_family, *, covariates=None, split=0.9):
        covariates = tuple(covariates)
        for name in covariates:
            if name in fails:
                raise fails[name](f"cannot fit {name}")
        aic = 100.0 + sum(effects[name] for name in covariates) + crowding * len(covariates) ** 2
        return TableFit(aic, covariates)

    return fit_srgm


@PROPERTY
@given(aic_tables())
def test_stepwise_matches_the_oracle_on_aic_tables(table):
    names, effects, crowding, fails = table
    unique = list(dict.fromkeys(names))
    with mock.patch.object(srgm, "fit_srgm", table_fitter(effects, crowding, fails)):
        if unique != names:  # a repeated candidate is refused before any fit
            with pytest.raises(ValueError, match="repeated covariates"):
                srgm.forward_stepwise(STUB_SERIES, "gm", names)
        ours = srgm.forward_stepwise(STUB_SERIES, "gm", unique)
        oracle = oracle_forward_stepwise(STUB_SERIES, "gm", unique)
    assert ours == oracle


# ---------------------------------------------------------------------------
# the stepwise loop on real fits


def adversarial_series(columns):
    records = load(DATA_DIR / "adversarial-attacks" / "adversarial.csv", "adversarial")
    return interval_series_from_adversarial(records, 1, columns)


def with_extra_columns(series, extra):
    names = series.covariate_names + tuple(extra)
    X = np.column_stack([series.covariates, *extra.values()])
    return IntervalCountSeries(series.counts, X, names, series.performance)


def real_cases():
    base = adversarial_series(("Alpha", "F1", "Epsilon", "FGSM"))
    noise = np.random.default_rng(5).normal(size=(base.n_steps, 2))
    yield "bundled-tied-noise", "gm", with_extra_columns(base, {
        "F1_copy": base.covariates[:, 1].copy(),
        "noise1": noise[:, 0], "noise2": noise[:, 1],
        "flat": np.ones(base.n_steps),
    })
    yield "bundled", "dw2", base
    counts = simulate_srgm_counts(40.0, srgm.DiscreteHazard("gm", (0.3,)), [], None, 5, 3).counts
    short_X = np.random.default_rng(9).normal(size=(5, 2))
    yield "short", "gm", IntervalCountSeries(counts, short_X, ("u", "v"))


@pytest.mark.parametrize("case, family, series", list(real_cases()),
                         ids=lambda v: v if isinstance(v, str) else "")
def test_stepwise_matches_the_oracle_on_real_fits(case, family, series):
    ours = srgm.forward_stepwise(series, family)
    oracle = oracle_forward_stepwise(series, family)
    assert ours.trace == oracle.trace
    assert ours.beta == oracle.beta
    assert (ours.omega, ours.hazard, ours.log_lik, ours.aic, ours.iterations) == \
        (oracle.omega, oracle.hazard, oracle.log_lik, oracle.aic, oracle.iterations)
    assert same(ours.fitted, oracle.fitted) and same(ours.holdout_mae, oracle.holdout_mae)


# ---------------------------------------------------------------------------
# the resilience selection on generated series


@st.composite
def resilience_problems(draw):
    """2-24 steps, 0-4 covariates among them noise, small integers (ties),
    constant, all-zero, repeated and rescaled columns, a performance
    series, a form and a split that reaches n_fit = 1."""
    T = draw(st.integers(2, 24))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    columns = []
    for _ in range(draw(st.integers(0, 4))):
        kind = draw(st.sampled_from(["noise", "ints", "constant", "zero", "repeat", "scaled"]))
        if kind in ("repeat", "scaled") and columns:
            source = columns[draw(st.integers(0, len(columns) - 1))]
            columns.append(source.copy() if kind == "repeat" else 2.5 * source)
        elif kind == "ints":
            columns.append(rng.integers(-2, 3, size=T).astype(float))
        elif kind == "constant":
            columns.append(np.full(T, 1.5))
        elif kind == "zero":
            columns.append(np.zeros(T))
        else:
            columns.append(rng.normal(size=T))
    names = tuple(f"x{j}" for j in range(len(columns)))
    X = np.column_stack(columns) if columns else np.zeros((T, 0))
    signal = X @ rng.normal(size=len(columns)) if columns else np.zeros(T)
    performance = np.cumsum(draw(st.sampled_from([0.0, 0.05, 1.0])) * rng.normal(size=T)
                            + draw(st.sampled_from([0.0, 0.3])) * signal)
    series = IntervalCountSeries(np.zeros(T), X, names, performance)
    form = draw(st.sampled_from(["linear", "interactions", "poly"]))
    degree = draw(st.integers(2, 3))
    split = draw(st.sampled_from([0.05, 0.3, 0.6, 0.9, 1.0]))
    if names and draw(st.booleans()):
        candidates = tuple(draw(st.permutations(names))[:draw(st.integers(0, len(names)))])
    else:
        candidates = None
    return series, form, degree, split, candidates


@PROPERTY
@given(resilience_problems())
def test_resilience_selection_matches_the_oracle(problem):
    series, form, degree, split, candidates = problem
    ours = srgm.fit_resilience(series, form, candidates, degree=degree, split=split)
    oracle = oracle_fit_resilience(series, form, candidates, degree=degree, split=split)
    assert ours.trace == oracle.trace
    assert ours.coef == oracle.coef and ours.intercept == oracle.intercept
    assert ours.n_fit == oracle.n_fit
    assert same(ours.reconstructed, oracle.reconstructed)
    assert same(ours.holdout_mae, oracle.holdout_mae)
    assert same(ours.baseline_mae, oracle.baseline_mae)


# ---------------------------------------------------------------------------
# the recurrent searches on seeded fleets


def fleet(seed):
    truth = BaselineIntensityModel("weibull_growth", (30.0, 0.02, 1.0))
    rng = np.random.default_rng(seed)
    exposures = [constant_exposure(float(rate), 120.0, f"u{i}")
                 for i, rate in enumerate(rng.uniform(0.3, 1.5, size=6))]
    return simulate_fleet(truth, exposures, 120.0, seed)


#: how far short of the oracle's log-likelihood a profile search may end, relative
LOGLIK_RTOL = 1e-9
#: how far the fitted parameters may move from the oracle's, relative
PARAM_RTOL = 1e-5


def assert_reaches_the_oracle(ours, oracle, family):
    """At least the oracle's log-likelihood, at the oracle's optimum: the same
    theta to ``PARAM_RTOL``, except for gompertz, whose fits ride a ridge
    where theta1 * theta2 is all the data fix."""
    assert ours.model.family == oracle.model.family
    assert ours.log_lik >= oracle.log_lik - LOGLIK_RTOL * abs(oracle.log_lik)
    if family != "gompertz":
        assert np.allclose(ours.model.theta, oracle.model.theta, rtol=PARAM_RTOL, atol=0.0)


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("family", FAMILIES)
def test_fit_mle_matches_the_oracle(family, seed):
    units = fleet(seed)
    ours, oracle = fit_mle(units, family), oracle_fit_mle(units, family)
    if family == "hpp":  # the closed form
        assert ours == oracle
    else:
        assert_reaches_the_oracle(ours, oracle, family)


@pytest.mark.parametrize("family", [f for f in FAMILIES if f != "hpp"])
def test_fit_mle_starts_are_the_oracle_starts_less_the_amplitude(family):
    # the jitter is drawn over the full parameter vector, so each shape
    # coordinate of each start is the oracle's, bit for bit
    units = fleet(1)
    searched = []

    def record(objective, z0_list, tol, max_iter):
        searched.extend(z0_list)
        return real_maximize(objective, z0_list, tol, max_iter)

    real_maximize = recurrent.maximize
    with mock.patch.object(recurrent, "maximize", record):
        fit_mle(units, family)
    full = starts(np.log(oracle_moment_seed(family, _Packed(units))), 5, 0.5, key=12345)
    want = [np.delete(z0, _AMPLITUDE[family]) for z0 in full]
    assert len(searched) == len(want)
    for got, expected in zip(searched, want):
        assert got.tobytes() == expected.tobytes()
