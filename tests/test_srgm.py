import numpy as np
import pytest

from aireliab.srgm import (
    HAZARD_FAMILIES,
    DiscreteHazard,
    IntervalCountSeries,
    fit_resilience,
    fit_srgm,
    forward_stepwise,
    mean_value,
    mean_value_increments,
)
from aireliab.simulate import simulate_srgm_counts
from aireliab._rng import derive_seed


def test_mean_value_geometric_closed_form():
    hazard = DiscreteHazard("gm", (0.13,))
    for t in range(1, 51):
        closed = 150.0 * (1.0 - 0.87**t)
        assert mean_value(150.0, hazard, [], None, t) == pytest.approx(closed, abs=1e-12)


def test_mean_value_approaches_omega_monotonically():
    hazard = DiscreteHazard("gm", (0.2,))
    values = np.cumsum(mean_value_increments(40.0, hazard, [], None, 200))
    assert np.all(np.diff(values) >= 0)
    assert values[-1] <= 40.0 * (1 + 1e-12)
    assert values[-1] == pytest.approx(40.0, abs=1e-2)


def test_mean_value_bounded_for_all_families():
    rng = np.random.default_rng(4)
    X = rng.normal(0.0, 0.5, (60, 2))
    beta = np.array([0.3, -0.2])
    params = {"gm": (0.1,), "nb2": (0.2,), "dw2": (0.93,), "dw3": (1.1, 0.04),
              "s": (0.4, 0.8), "tl": (3.0, 10.0)}
    for family in HAZARD_FAMILIES:
        hazard = DiscreteHazard(family, params[family])
        inc = mean_value_increments(25.0, hazard, beta, X, 60)
        assert np.all(inc >= 0), family
        assert inc.sum() <= 25.0 * (1 + 1e-12), family


def test_mean_value_term_by_term_oracle():
    # brute-force expansion of the mean value function at T = 4
    hazard = DiscreteHazard("gm", (0.25,))
    X = np.array([[0.5], [-0.2], [0.1], [0.4]])
    beta = np.array([0.7])
    omega = 30.0
    for t in range(1, 5):
        total = 0.0
        for l in range(1, t + 1):
            g_l = np.exp(X[l - 1, 0] * beta[0])
            term = 1.0 - (1.0 - hazard(l)) ** g_l
            for s in range(1, l):
                g_s = np.exp(X[s - 1, 0] * beta[0])
                term *= (1.0 - hazard(s)) ** g_s
            total += omega * term
        assert mean_value(omega, hazard, beta, X, t) == pytest.approx(total, abs=1e-12)


def test_hazards_stay_in_unit_interval():
    params = {"gm": (0.5,), "nb2": (0.7,), "dw2": (0.99,), "dw3": (0.8, 0.3),
              "s": (0.9, 0.5), "tl": (0.7, 2.0)}
    steps = np.arange(1, 101)
    for family, p in params.items():
        h = DiscreteHazard(family, p)(steps)
        assert np.all((h > 0) & (h < 1)), family


def test_invalid_hazard_parameters_rejected():
    with pytest.raises(ValueError):
        DiscreteHazard("gm", (1.5,))
    with pytest.raises(ValueError):
        DiscreteHazard("dw3", (0.5, -1.0))
    with pytest.raises(ValueError):
        DiscreteHazard("unknown", (0.5,))


def test_fit_recovers_omega_within_ten_percent():
    errors = []
    for rep in range(20):
        series = simulate_srgm_counts(500.0, DiscreteHazard("gm", (0.1,)), [], None,
                                      30, derive_seed(70, rep))
        fit = fit_srgm(series, "gm")
        errors.append(abs(fit.omega - 500.0) / 500.0)
    assert np.median(errors) < 0.10, f"median omega error {np.median(errors):.3f}"


def test_constant_covariate_reported_non_identifiable():
    series = IntervalCountSeries(np.ones(20), np.ones((20, 1)), ("flat",))
    with pytest.raises(ValueError, match="non-identifiable"):
        fit_srgm(series, "gm")


def test_zero_failures_rejected():
    series = IntervalCountSeries(np.zeros(20), np.zeros((20, 0)), ())
    with pytest.raises(ValueError, match="no failures"):
        fit_srgm(series, "gm")


def test_fitted_cumulative_curve_non_decreasing(data_dir):
    from aireliab.datasets import load
    from aireliab.simulate import interval_series_from_adversarial

    records = load(data_dir / "adversarial-attacks" / "adversarial.csv", "adversarial")
    series = interval_series_from_adversarial(records, scenario=1)
    assert series.n_steps == 30
    fit = fit_srgm(series, "gm")
    assert np.all(np.diff(fit.fitted) >= -1e-12)
    assert fit.n_fit == 27
    assert np.isfinite(fit.holdout_mae)


def test_fit_handles_saturating_hazards():
    # dw2 rounds h(l) onto 1.0 at late intervals; the collapsed-mass limit
    # must fit rather than error
    series = simulate_srgm_counts(300.0, DiscreteHazard("dw2", (0.5,)), [], None,
                                  30, seed=42)
    for family in ("dw2", "dw3"):
        fit = fit_srgm(series, family)
        assert fit.converged
        assert np.all(np.isfinite(fit.fitted))
        assert np.all(np.diff(fit.fitted) >= -1e-12)


def test_stepwise_all_noise_candidates():
    rng = np.random.default_rng(90)
    sizes = []
    for rep in range(20):
        X = rng.normal(0.0, 1.0, (30, 4))
        series = simulate_srgm_counts(300.0, DiscreteHazard("gm", (0.12,)), [], None,
                                      30, derive_seed(91, rep))
        series = IntervalCountSeries(series.counts, X, ("a", "b", "c", "d"))
        fit = forward_stepwise(series, "gm")
        aics = [a for _, a in fit.trace]
        assert all(x >= y - 1e-9 for x, y in zip(aics, aics[1:])), "AIC trace increased"
        sizes.append(len(fit.selected()))
    # selection-size distribution: mostly empty or a single spurious pick
    assert np.median(sizes) <= 1, f"selection sizes {sizes}"


def test_stepwise_selects_strong_covariate_first():
    hits = 0
    rng = np.random.default_rng(92)
    for rep in range(20):
        X = np.column_stack([rng.normal(0.0, 1.0, 30) for _ in range(3)])
        series = simulate_srgm_counts(300.0, DiscreteHazard("gm", (0.12,)),
                                      [1.0, 0.0, 0.0], X, 30, derive_seed(93, rep),
                                      covariate_names=("strong", "n1", "n2"))
        fit = forward_stepwise(series, "gm")
        if fit.trace[1:] and fit.trace[1][0] == "strong":
            hits += 1
    assert hits >= 18, f"strong covariate picked first in only {hits}/20"


def test_stepwise_zero_candidates_matches_plain_fit():
    series = simulate_srgm_counts(200.0, DiscreteHazard("gm", (0.1,)), [], None, 25, 5)
    plain = fit_srgm(series, "gm", covariates=())
    step = forward_stepwise(series, "gm", candidates=())
    assert step.omega == pytest.approx(plain.omega, rel=1e-9)
    assert step.selected() == ()


@pytest.mark.parametrize("names, message", [
    (("F1", "F1"), r"repeated covariates: \['F1'\]"),
    (("F1", "Nope"), r"unknown covariates: \['Nope'\]"),
])
def test_unknown_or_repeated_covariate_names_rejected(data_dir, names, message):
    # a repeated name would fit two copies of one column, split its effect
    # and charge AIC for both
    from aireliab.datasets import load
    from aireliab.simulate import interval_series_from_adversarial

    records = load(data_dir / "adversarial-attacks" / "adversarial.csv", "adversarial")
    series = interval_series_from_adversarial(records, scenario=1)
    with pytest.raises(ValueError, match=message):
        fit_srgm(series, "gm", covariates=names)
    with pytest.raises(ValueError, match=message):
        forward_stepwise(series, "gm", candidates=names)


def resilience_series(noise=0.0, seed=0):
    # accuracy drops under attack, then recovers under retraining
    rng = np.random.default_rng(seed)
    T = 30
    attack = np.concatenate([np.ones(12), np.zeros(18)])
    retrain = np.concatenate([np.zeros(12), np.ones(18)])
    dr = -0.03 * attack + 0.02 * retrain + noise * rng.normal(0.0, 1.0, T)
    r = np.concatenate([[0.85], 0.85 + np.cumsum(dr[1:])])
    X = np.column_stack([attack, retrain])
    return IntervalCountSeries(np.ones(T), X, ("attack", "retrain"), performance=r)


def test_resilience_exact_recovery_without_noise():
    series = resilience_series()
    fit = fit_resilience(series, "linear")
    # delta r depends exactly on the two covariates; least squares is exact
    delta_hat = np.diff(fit.reconstructed)
    assert np.allclose(delta_hat, np.diff(series.performance), atol=1e-8)


def test_resilience_constant_series_all_zero():
    T = 20
    rng = np.random.default_rng(3)
    X = rng.normal(0.0, 1.0, (T, 2))
    series = IntervalCountSeries(np.ones(T), X, ("a", "b"),
                                 performance=np.full(T, 0.7))
    fit = fit_resilience(series, "linear")
    assert fit.intercept == pytest.approx(0.0, abs=1e-10)
    assert all(abs(v) < 1e-10 for v in fit.coef.values())


def test_resilience_reconstruction_identity():
    series = resilience_series(noise=0.01, seed=5)
    fit = fit_resilience(series, "linear")
    r1 = series.performance[0]
    delta = np.diff(fit.reconstructed)
    rebuilt = r1 + np.concatenate([[0.0], np.cumsum(delta)])
    assert np.allclose(fit.reconstructed, rebuilt, atol=0.0)


def test_resilience_v_shape_beats_mean_only_model():
    series = resilience_series(noise=0.003, seed=7)
    fit = fit_resilience(series, "linear")
    assert fit.holdout_mae < fit.baseline_mae
    # reconstruction reproduces the drop-and-recovery shape
    rec = fit.reconstructed
    assert rec[11] < rec[0] and rec[-1] > rec[11]


def test_resilience_interactions_and_poly_forms():
    series = resilience_series(noise=0.01, seed=9)
    for form, kw in (("interactions", {}), ("poly", {"degree": 3})):
        fit = fit_resilience(series, form, **kw)
        assert np.isfinite(fit.holdout_mae)


def test_resilience_requires_performance():
    series = IntervalCountSeries(np.ones(10), np.zeros((10, 1)), ("a",))
    with pytest.raises(ValueError, match="performance"):
        fit_resilience(series, "linear")


@pytest.mark.parametrize("family, params", [
    ("dw3", (float("nan"), 0.05)),
    ("dw3", (1.0, float("inf"))),
    ("tl", (float("inf"), 3.0)),
    ("tl", (0.7, float("nan"))),
    ("gm", (float("nan"),)),
    ("s", (0.5, float("-inf"))),
])
def test_non_finite_hazard_parameters_rejected(family, params):
    # every constraint is an open interval: NaN and +-inf lie outside both
    with pytest.raises(ValueError, match="must lie in"):
        DiscreteHazard(family, params)


@pytest.mark.parametrize("names, message", [
    (("attack", "attack"), r"repeated covariates: \['attack'\]"),
    (("Nope",), r"unknown covariates: \['Nope'\]"),
])
def test_resilience_rejects_unknown_or_repeated_candidates(names, message):
    with pytest.raises(ValueError, match=message):
        fit_resilience(resilience_series(), "linear", names)
