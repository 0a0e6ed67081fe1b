import numpy as np
import pytest
from scipy.stats import norm

from aireliab.regression import (
    RankDeficiencyError,
    SeparationError,
    aggregate_auc,
    fit_aft,
    fit_glm,
    fit_linear,
    fit_mixture,
    mixture_design,
    predict_simplex_grid,
    simplex_lattice,
)
from aireliab.simulate import simulate_mixture_records
from aireliab._rng import derive_seed


def test_linear_noiseless_interpolation():
    x = np.linspace(0.0, 1.0, 12)
    fit = fit_linear(x, 2.0 * x + 1.0)
    assert fit.coef == pytest.approx([1.0, 2.0], abs=1e-10)


def test_linear_constant_response():
    x = np.linspace(0.0, 1.0, 9)
    fit = fit_linear(x, np.full(9, 3.5))
    assert fit.coef == pytest.approx([3.5, 0.0], abs=1e-12)


def test_linear_matches_normal_equations_oracle():
    rng = np.random.default_rng(1)
    X = rng.normal(0.0, 1.0, (40, 4))
    y = rng.normal(0.0, 1.0, 40)
    fit = fit_linear(X, y)
    D = np.column_stack([np.ones(40), X])
    oracle = np.linalg.solve(D.T @ D, D.T @ y)
    assert np.max(np.abs(fit.coef - oracle)) < 1e-9


def test_linear_residuals_orthogonal_to_design():
    rng = np.random.default_rng(2)
    X = rng.normal(0.0, 1.0, (60, 3))
    y = X @ [1.0, -0.5, 0.3] + rng.normal(0.0, 0.4, 60)
    fit = fit_linear(X, y)
    D = np.column_stack([np.ones(60), X])
    resid = y - D @ fit.coef
    scaled = np.abs(D.T @ resid) / (np.linalg.norm(resid) + 1e-30)
    assert np.max(scaled) < 1e-8


def test_linear_rank_deficiency_names_columns():
    rng = np.random.default_rng(3)
    a = rng.normal(0.0, 1.0, 30)
    X = np.column_stack([a, 2.0 * a, rng.normal(0.0, 1.0, 30)])
    with pytest.raises(RankDeficiencyError) as err:
        fit_linear(X, rng.normal(0.0, 1.0, 30), names=["a", "double_a", "b"])
    assert "double_a" in err.value.columns or "a" in err.value.columns


def test_glm_poisson_intercept_closed_form():
    rng = np.random.default_rng(4)
    y = rng.poisson(2.5, 400)
    fit = fit_glm(np.zeros((400, 0)), y, "poisson-log")
    assert fit.coef[0] == pytest.approx(np.log(np.mean(y)), abs=1e-10)
    assert fit.converged


def test_glm_logit_balanced_intercept_zero():
    y = np.array([0.0, 1.0] * 40)
    fit = fit_glm(np.zeros((80, 0)), y, "bernoulli-logit")
    assert fit.coef[0] == pytest.approx(0.0, abs=1e-12)


def test_glm_logit_simulated_recovery():
    beta_true = np.array([0.5, -1.0])
    errors = []
    for rep in range(20):
        rng = np.random.default_rng(derive_seed(80, rep))
        x = rng.normal(0.0, 1.0, (2000, 1))
        eta = beta_true[0] + x[:, 0] * beta_true[1]
        y = (rng.random(2000) < 1.0 / (1.0 + np.exp(-eta))).astype(float)
        fit = fit_glm(x, y, "bernoulli-logit")
        errors.append(np.abs((fit.coef - beta_true) / beta_true))
    med = np.median(np.array(errors), axis=0)
    assert np.all(med < 0.15), f"median errors {med}"


def test_glm_probit_recovery_and_score():
    rng = np.random.default_rng(6)
    x = rng.normal(0.0, 1.0, (3000, 1))
    eta = 0.3 + 0.8 * x[:, 0]
    y = (rng.random(3000) < norm.cdf(eta)).astype(float)
    fit = fit_glm(x, y, "bernoulli-probit")
    assert fit.converged
    assert fit.coef == pytest.approx([0.3, 0.8], rel=0.2)
    # score (numeric gradient of the log-likelihood) vanishes at the optimum
    from aireliab.regression import _glm_loglik

    D = np.column_stack([np.ones(3000), x])
    h = 1e-6
    for j in range(2):
        step = np.zeros(2)
        step[j] = h
        up = _glm_loglik("bernoulli-probit", y, D @ (fit.coef + step))
        dn = _glm_loglik("bernoulli-probit", y, D @ (fit.coef - step))
        assert abs((up - dn) / (2 * h)) < 1e-3


def test_glm_canonical_score_vanishes_at_optimum():
    rng = np.random.default_rng(30)
    x = rng.normal(0.0, 1.0, (500, 2))
    y_pois = rng.poisson(np.exp(0.2 + x @ [0.3, -0.2]))
    y_bin = (rng.random(500) < 1.0 / (1.0 + np.exp(-(0.2 + x @ [0.5, -0.4])))).astype(float)
    for family, y in (("poisson-log", y_pois), ("bernoulli-logit", y_bin)):
        fit = fit_glm(x, y, family)
        D = np.column_stack([np.ones(500), x])
        eta = D @ fit.coef
        mu = np.exp(eta) if family == "poisson-log" else 1.0 / (1.0 + np.exp(-eta))
        score = D.T @ (y - mu)
        assert np.linalg.norm(score) < 1e-6, family


def test_glm_complete_separation_detected():
    x = np.linspace(-1.0, 1.0, 50)
    y = (x > 0).astype(float)
    with pytest.raises(SeparationError):
        fit_glm(x, y, "bernoulli-logit")


def test_glm_invalid_inputs():
    with pytest.raises(ValueError):
        fit_glm(np.zeros((4, 1)), [0.0, 0.5, 1.0, 1.0], "bernoulli-logit")
    with pytest.raises(ValueError):
        fit_glm(np.zeros((3, 1)), [1.0, -2.0, 0.0], "poisson-log")
    with pytest.raises(ValueError):
        fit_glm(np.zeros((3, 1)), [0.0, 1.0, 0.0], "gamma-inverse")


def test_aft_lognormal_no_censoring_equals_ols():
    rng = np.random.default_rng(7)
    X = rng.normal(0.0, 1.0, (200, 2))
    logt = 1.2 + X @ [0.5, -0.25] + 0.4 * rng.normal(0.0, 1.0, 200)
    fit = fit_aft(np.exp(logt), np.ones(200, dtype=int), X, "lognormal")
    ols = fit_linear(X, logt)
    assert np.max(np.abs(fit.coef - ols.coef)) < 1e-6
    # maximum-likelihood sigma uses the 1/n convention
    resid = logt - np.column_stack([np.ones(200), X]) @ ols.coef
    assert fit.sigma == pytest.approx(np.sqrt(np.mean(resid**2)), rel=1e-5)


def test_aft_weibull_censored_recovery():
    beta_true = np.array([1.5, 0.6, -0.4])
    sigma_true = 0.5
    errors = []
    for rep in range(20):
        rng = np.random.default_rng(derive_seed(81, rep))
        X = rng.normal(0.0, 1.0, (1000, 2))
        eps = np.log(rng.exponential(1.0, 1000))  # standard smallest extreme value
        logt = beta_true[0] + X @ beta_true[1:] + sigma_true * eps
        t = np.exp(logt)
        cens = np.quantile(t, 0.8) * np.ones(1000)
        event = (t <= cens).astype(int)
        observed = np.minimum(t, cens)
        fit = fit_aft(observed, event, X, "weibull")
        errors.append(np.abs((fit.coef - beta_true) / beta_true))
    med = np.median(np.array(errors), axis=0)
    assert np.all(med < 0.05), f"median errors {med}"


def test_aft_time_rescaling_equivariance():
    rng = np.random.default_rng(8)
    X = rng.normal(0.0, 1.0, (150, 2))
    logt = 0.8 + X @ [0.4, -0.2] + 0.3 * rng.normal(0.0, 1.0, 150)
    t = np.exp(logt)
    event = np.ones(150, dtype=int)
    event[::7] = 0
    c = 37.5
    fit1 = fit_aft(t, event, X, "lognormal")
    fit2 = fit_aft(c * t, event, X, "lognormal")
    assert fit2.coef[0] - fit1.coef[0] == pytest.approx(np.log(c), abs=1e-8)
    assert np.max(np.abs(fit2.coef[1:] - fit1.coef[1:])) < 1e-8
    assert fit2.sigma == pytest.approx(fit1.sigma, abs=1e-8)


def _aft_test_designs():
    """The data of the AFT tests above (two weibull replicates)."""
    rng = np.random.default_rng(7)
    X = rng.normal(0.0, 1.0, (200, 2))
    logt = 1.2 + X @ [0.5, -0.25] + 0.4 * rng.normal(0.0, 1.0, 200)
    yield np.exp(logt), np.ones(200, dtype=int), X, "lognormal"
    for rep in range(2):
        rng = np.random.default_rng(derive_seed(81, rep))
        X = rng.normal(0.0, 1.0, (1000, 2))
        t = np.exp(1.5 + X @ [0.6, -0.4] + 0.5 * np.log(rng.exponential(1.0, 1000)))
        cens = np.quantile(t, 0.8)
        yield np.minimum(t, cens), (t <= cens).astype(int), X, "weibull"
    rng = np.random.default_rng(8)
    X = rng.normal(0.0, 1.0, (150, 2))
    t = np.exp(0.8 + X @ [0.4, -0.2] + 0.3 * rng.normal(0.0, 1.0, 150))
    event = np.ones(150, dtype=int)
    event[::7] = 0
    yield t, event, X, "lognormal"
    yield 37.5 * t, event, X, "lognormal"


def test_aft_fits_report_convergence():
    for times, event, X, dist in _aft_test_designs():
        assert fit_aft(times, event, X, dist).converged


def test_aft_lognormal_stderr_matches_closed_form():
    # uncensored lognormal: the information matrix is block-diagonal at the
    # MLE, so the coefficient SEs are sigma_hat * sqrt(diag((D'D)^-1)) with
    # the 1/n sigma_hat; true coefficients near 0 put the intercept there
    rng = np.random.default_rng(11)
    X = rng.normal(0.0, 1.0, (300, 2))
    logt = 0.01 + X @ [0.05, -0.02] + 0.5 * rng.normal(0.0, 1.0, 300)
    fit = fit_aft(np.exp(logt), np.ones(300, dtype=int), X, "lognormal")
    D = np.column_stack([np.ones(300), X])
    closed = fit.sigma * np.sqrt(np.diag(np.linalg.inv(D.T @ D)))
    assert fit.stderr == pytest.approx(closed, rel=1e-3)


def test_aft_all_censored_rejected():
    with pytest.raises(ValueError, match="censored"):
        fit_aft([1.0, 2.0], [0, 0], np.zeros((2, 1)), "weibull")


def test_aggregate_auc_hand_values():
    y1, y2 = aggregate_auc([0.8, 0.8, 0.9])
    assert y1 == pytest.approx(0.8333333333333334, abs=1e-12)
    sd = np.std([0.8, 0.8, 0.9], ddof=1)
    assert y2 == pytest.approx(np.log(sd), abs=1e-12)
    assert y2 == pytest.approx(-2.851891, abs=1e-6)


def test_aggregate_auc_permutation_invariant():
    base = aggregate_auc([0.7, 0.9, 0.8])
    assert aggregate_auc([0.9, 0.8, 0.7]) == pytest.approx(base, abs=1e-15)


def test_aggregate_auc_zero_dispersion():
    with pytest.raises(ValueError, match="zero dispersion"):
        aggregate_auc([1.0, 1.0, 1.0])


def test_mixture_noiseless_recovery():
    rng = np.random.default_rng(9)
    coef = rng.normal(0.5, 0.2, 13)
    records = simulate_mixture_records(coef, coef, seed=10)
    fit = fit_mixture(records, "y1", scenario="c1")
    assert np.max(np.abs(fit.coef - coef)) < 1e-8


def test_mixture_vertex_prediction_is_main_effect():
    rng = np.random.default_rng(10)
    coef = rng.normal(0.5, 0.2, 13)
    records = simulate_mixture_records(coef, coef, seed=11)
    fit = fit_mixture(records, "y1", scenario="c1")
    pred = fit.predict(np.array([[1.0, 0.0, 0.0]]), np.array([[0.0, 0.0]]))
    assert pred[0] == pytest.approx(coef[0], abs=1e-8)


def test_mixture_relabel_symmetry():
    records = simulate_mixture_records(np.arange(1.0, 14.0) / 10.0,
                                       np.zeros(13), seed=12)
    fit = fit_mixture(records, "y1", scenario="c1")

    swapped = []
    for r in records:
        swapped.append(type(r)(x1=r.x2, x2=r.x1, x3=r.x3, z1=r.z1, z2=r.z2,
                               c1=r.c1, c2=r.c2, c3=r.c3, y1=r.y1, y2=r.y2))
    fit_sw = fit_mixture(swapped, "y1", scenario="c1")
    x = np.array([[0.6, 0.3, 0.1]])
    x_sw = x[:, [1, 0, 2]]
    z = np.array([[1.0, 0.0]])
    assert fit_sw.predict(x_sw, z)[0] == pytest.approx(fit.predict(x, z)[0], abs=1e-9)


def test_mixture_rank_deficiency_for_constant_z():
    records = [r for r in simulate_mixture_records(np.full(13, 0.5), np.zeros(13), seed=13)
               if r.z1 == 1]
    with pytest.raises(RankDeficiencyError):
        fit_mixture(records, "y1", scenario="c1")


def test_mixture_pooled_fit_uses_scenario_flags():
    coef = {"c1": np.full(13, 0.6), "c2": np.full(13, 0.6), "c3": np.full(13, 0.6)}
    records = simulate_mixture_records(coef, coef, seed=14)
    fit = fit_mixture(records, "y1", pooled=True)
    assert fit.n == 252
    assert "c2:x1" in fit.terms and "z1:c2" in fit.terms
    # the structurally zero one-hot product is dropped, not reported as singular
    assert "c2:c3" not in fit.terms


def test_simplex_lattice_counts_and_sums():
    for r in (2, 3, 7):
        grid = simplex_lattice(r)
        assert len(grid) == (r + 1) * (r + 2) // 2
        assert np.allclose(grid.sum(axis=1), 1.0, atol=1e-12)
    assert any(np.allclose(p, [1 / 3] * 3) for p in simplex_lattice(3))
    assert not any(np.allclose(p, [1 / 3] * 3) for p in simplex_lattice(2))


def test_predict_simplex_grid_zero_coefficients():
    records = simulate_mixture_records(np.full(13, 0.5), np.zeros(13), seed=15)
    fit = fit_mixture(records, "y2", scenario="c2")
    table = predict_simplex_grid(fit, [0, 0], 5)
    assert np.allclose(table[:, 3], 0.0, atol=1e-10)


def test_predict_simplex_grid_matches_direct_evaluation():
    rng = np.random.default_rng(16)
    coef = rng.normal(0.0, 1.0, 13)
    records = simulate_mixture_records(coef, coef, seed=17)
    fit = fit_mixture(records, "y1", scenario="c3")
    table = predict_simplex_grid(fit, [1, 0], 6)
    D, _ = mixture_design(table[:, :3], np.tile([1.0, 0.0], (len(table), 1)))
    assert np.max(np.abs(table[:, 3] - D @ coef)) < 1e-10


def test_mixture_ci_coverage():
    # t intervals at the 95% level cover the truth at the nominal rate
    rng_truth = np.random.default_rng(18)
    coef = rng_truth.normal(0.5, 0.2, 13)
    covered = total = 0
    for rep in range(120):
        records = simulate_mixture_records(coef, coef, noise_sd_y1=0.05,
                                           seed=derive_seed(82, rep))
        fit = fit_mixture(records, "y1", scenario="c1")
        ci = fit.conf_int(0.95)
        covered += int(np.sum((ci[:, 0] <= coef) & (coef <= ci[:, 1])))
        total += 13
    rate = covered / total
    assert 0.90 <= rate <= 1.0, f"coverage {rate:.3f}"
