"""The regression fits against the ``scipy.stats`` expressions they replaced.

``regression`` evaluates the normal log-density and log-survival of the
lognormal AFT error, the normal density in the probit IRLS weights and the
Student t quantile of ``MixtureFit.conf_int`` with ``scipy.special``
functions and no ``scipy.stats``.  The oracles below are the code that came
before, spelled with ``scipy.stats.norm`` and ``scipy.stats.t``, and the
fits must reproduce them exactly: the same coefficients, scale,
log-likelihood, standard errors, convergence flag and iteration count, and
the same interval bounds, bit for bit.
"""

from unittest import mock

import numpy as np
import pytest
from scipy.special import ndtr
from scipy.stats import norm, t as student_t

from aireliab import regression
from aireliab._optim import maximize, numeric_stderr
from aireliab._rng import derive_seed
from aireliab.regression import fit_aft, fit_glm, fit_mixture
from aireliab.simulate import simulate_mixture_records

# ---------------------------------------------------------------------------
# oracles: the code as it was with scipy.stats


def oracle_fit_aft(times, event, X, dist):
    times = np.asarray(times, dtype=float)
    event = np.asarray(event, dtype=int)
    D, _ = regression._with_intercept(X, None, True)
    logt = np.log(times)
    shift = float(np.mean(logt))
    logt = logt - shift
    obs = event == 1

    def negloglik(params):
        beta, log_sigma = params[:-1], params[-1]
        if abs(log_sigma) > 50:
            return np.inf
        sigma = np.exp(log_sigma)
        z = (logt - D @ beta) / sigma
        if dist == "lognormal":
            ll = np.sum(norm.logpdf(z[obs]) - log_sigma) + np.sum(norm.logsf(z[~obs]))
        else:
            zo = z[obs]
            ll = np.sum(zo - np.exp(zo) - log_sigma) - np.sum(np.exp(z[~obs]))
        return -ll if np.isfinite(ll) else np.inf

    beta0, *_ = np.linalg.lstsq(D[obs], logt[obs], rcond=None)
    resid = logt[obs] - D[obs] @ beta0
    sigma0 = max(float(np.sqrt(np.mean(resid**2))), 1e-3)
    x0 = np.concatenate([beta0, [np.log(sigma0)]])
    fun, z_hat, ok, _ = maximize(negloglik, [x0], 1e-14, regression._AFT_MAX_ITER)
    coef = z_hat[:-1].copy()
    coef[0] += shift
    stderr = numeric_stderr(negloglik, z_hat, 1e-5)
    if stderr is not None:
        stderr = np.array(stderr[:-1])
    return coef, float(np.exp(z_hat[-1])), -float(fun), ok, stderr


def oracle_irls_step(family, eta, eps, _ndtr):
    assert family == "bernoulli-probit"
    mu = np.clip(ndtr(eta), eps, 1 - eps)
    phi = np.clip(norm.pdf(eta), eps, None)
    return mu, phi**2 / (mu * (1 - mu)), phi


def oracle_conf_int(fit, level):
    half = student_t.ppf(0.5 + level / 2.0, fit.df_resid) * fit.stderr
    return np.column_stack([fit.coef - half, fit.coef + half])


def bits(values):
    return np.asarray(values, dtype=float).view(np.int64)


# ---------------------------------------------------------------------------
# seeded data: several sizes, error laws and censoring fractions


def aft_data(seed, dist, censored):
    """Lifetimes drawn from ``dist`` and right-censored at a quantile (or not at all)."""
    rng = np.random.default_rng(derive_seed(4242, seed))
    n = (15, 60, 250)[seed % 3]
    X = rng.normal(0.0, 1.0, (n, 2))
    if dist == "lognormal":
        eps = rng.normal(0.0, 1.0, n)
    else:
        eps = np.log(rng.exponential(1.0, n))  # standard smallest extreme value
    t = np.exp(1.0 + X @ [0.5, -0.3] + 0.6 * eps)
    if not censored:
        return t, np.ones(n, dtype=int), X
    cens = np.quantile(t, censored)
    return np.minimum(t, cens), (t <= cens).astype(int), X


@pytest.mark.parametrize("censored", [0.0, 0.7, 0.3],
                         ids=["uncensored", "censored-30", "censored-70"])
@pytest.mark.parametrize("dist", regression.AFT_DISTRIBUTIONS)
@pytest.mark.parametrize("seed", range(3))
def test_fit_aft_matches_oracle_bit_for_bit(seed, dist, censored):
    times, event, X = aft_data(seed, dist, censored)
    fit = fit_aft(times, event, X, dist)
    coef, sigma, log_lik, ok, stderr = oracle_fit_aft(times, event, X, dist)
    assert (bits(fit.coef) == bits(coef)).all()
    assert bits(fit.sigma) == bits(sigma)
    assert bits(fit.log_lik) == bits(log_lik)
    assert fit.converged == ok
    assert (fit.stderr is None) == (stderr is None)
    if stderr is not None:
        assert (bits(fit.stderr) == bits(stderr)).all()


@pytest.mark.parametrize("seed", range(8))
def test_probit_glm_matches_oracle_bit_for_bit(seed):
    rng = np.random.default_rng(derive_seed(4343, seed))
    n = (40, 150, 600, 2000)[seed % 4]
    x = rng.normal(0.0, 1.0, (n, 2))
    eta = 0.3 + x @ [0.8, -1.2 * (seed % 2)]
    y = (rng.random(n) < ndtr(eta)).astype(float)
    fit = fit_glm(x, y, "bernoulli-probit")
    with mock.patch.object(regression, "_irls_step", oracle_irls_step):
        oracle = fit_glm(x, y, "bernoulli-probit")
    for field in ("coef", "stderr", "log_lik"):
        assert (bits(getattr(fit, field)) == bits(getattr(oracle, field))).all()
    assert (fit.converged, fit.iterations) == (oracle.converged, oracle.iterations)


@pytest.mark.parametrize("pooled", [False, True], ids=["per-scenario", "pooled"])
@pytest.mark.parametrize("seed", range(3))
def test_conf_int_matches_oracle_bit_for_bit(seed, pooled):
    rng = np.random.default_rng(derive_seed(4444, seed))
    records = simulate_mixture_records(rng.normal(0.5, 0.2, 13), rng.normal(-1.0, 0.3, 13),
                                       noise_sd_y1=0.05, noise_sd_y2=0.2, seed=seed)
    fit = fit_mixture(records, "y1", pooled=True) if pooled else fit_mixture(
        records, "y2", scenario=("c1", "c2", "c3")[seed])
    for level in (0.5, 0.8, 0.9, 0.95, 0.99, 0.999):
        assert (bits(fit.conf_int(level)) == bits(oracle_conf_int(fit, level))).all()


@pytest.mark.parametrize("level", [-1.0, 0.0, 1.0, 1.5, np.nan])
def test_conf_int_rejects_a_level_outside_0_1(level):
    # at level -1 the t quantile of 0 is -inf in scipy.stats but +inf in stdtrit
    rng = np.random.default_rng(derive_seed(4444, 0))
    records = simulate_mixture_records(rng.normal(0.5, 0.2, 13), rng.normal(-1.0, 0.3, 13),
                                       noise_sd_y1=0.05, seed=0)
    with pytest.raises(ValueError, match="confidence level"):
        fit_mixture(records, "y1", scenario="c1").conf_int(level)
