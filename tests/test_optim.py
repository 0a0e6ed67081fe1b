"""Tests of the shared optimizer helpers in ``aireliab._optim``.

The oracles are the multistart jitter loops that the fitters wrote out
inline before ``starts`` replaced them; each must be reproduced bit for
bit, so every fit keeps its starts.

``maximize`` drops a start whose objective is +inf or NaN before any
search.  Its oracle is the ``maximize`` that searched from every start;
on the bundled stepwise srgm fits both must give the same fitted numbers,
bit for bit, while the dropped starts no longer reach the simplex.

An objective that returns its value and exact gradient together makes
``maximize`` run L-BFGS-B on them from each finite start.  Only a start
that ends abnormally, or that never leaves a start that is not
stationary (its first step met an inf wall), goes on through the simplex
and polish.  The tests check each branch on bowls with known gradients
(and with a gradient that points uphill), and that with a plain value
``maximize`` makes the very calls of the version that took no gradient.
"""

import numpy as np
import pytest
from hypothesis import given
import scipy.optimize
from hypothesis import strategies as st
from scipy.optimize import minimize

from aireliab import _optim, datasets, srgm
from aireliab._optim import _nelder_mead, maximize, numeric_stderr, quiet, starts
from aireliab.simulate import interval_series_from_adversarial
from conftest import DATA_DIR, PROPERTY


def recurrent_starts(seed_params, multistarts):
    # recurrent._starts (fit_mle, fit_manufacturer_level)
    z0 = np.log(seed_params)
    out = [z0]
    jitter = np.random.default_rng(12345)
    for _ in range(max(0, multistarts - 1)):
        out.append(z0 + jitter.normal(0.0, 0.5, size=len(z0)))
    return out


def propagation_starts(seed, multistarts):
    # propagation._fit_module
    seed = np.asarray(seed)
    out = [seed]
    jitter = np.random.default_rng(2024)
    for _ in range(max(0, multistarts - 1)):
        out.append(seed + jitter.normal(0.0, 0.5, size=len(seed)))
    return out


def srgm_starts(seed, multistarts):
    # srgm.fit_srgm
    out = [seed]
    jitter = np.random.default_rng(777)
    for _ in range(max(0, multistarts - 1)):
        out.append(seed + jitter.normal(0.0, 0.4, size=len(seed)))
    return out


def assert_same_bits(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.dtype == np.float64 and g.shape == w.shape
        assert g.tobytes() == w.tobytes()


finite = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False)
positive = st.floats(min_value=1e-12, max_value=1e12, allow_nan=False)
multistarts = st.sampled_from([0, 1, 5])


@PROPERTY
@given(st.lists(positive, min_size=1, max_size=6), multistarts)
def test_starts_match_recurrent_loop(seed_params, n):
    seed_params = np.array(seed_params)
    assert_same_bits(starts(np.log(seed_params), n, 0.5, key=12345),
                     recurrent_starts(seed_params, n))


@PROPERTY
@given(st.lists(finite, min_size=1, max_size=6), multistarts)
def test_starts_match_propagation_loop(seed, n):
    assert_same_bits(starts(seed, n, 0.5, key=2024), propagation_starts(seed, n))


@PROPERTY
@given(st.lists(finite, min_size=1, max_size=6), multistarts)
def test_starts_match_srgm_loop(seed, n):
    seed = np.array(seed)
    assert_same_bits(starts(seed, n, 0.4, key=777), srgm_starts(seed, n))


def test_numeric_stderr_recovers_quadratic_with_absolute_step():
    # f = c + (theta - mu)' H (theta - mu) / 2 has covariance H^-1 exactly.
    # The first coordinate sits at 0, where a relative step would vanish
    # and the offset c, like a log-likelihood's, would swamp the differences
    A = np.array([[2.0, 0.3, 0.0], [0.1, 1.5, 0.2], [0.0, -0.4, 0.8]])
    H = 100.0 * A @ A.T
    mu = np.array([0.0, 1.7, -3.2])

    def f(theta):
        d = theta - mu
        return 50.0 + 0.5 * d @ H @ d

    se = numeric_stderr(f, mu, 1e-5)
    assert se == pytest.approx(np.sqrt(np.diag(np.linalg.inv(H))), rel=1e-4)
    # one step per coordinate is accepted too
    assert numeric_stderr(f, mu, np.full(3, 1e-5)) == pytest.approx(se, rel=1e-12)


def test_numeric_stderr_none_when_not_positive_definite():
    assert numeric_stderr(lambda th: -float(th @ th), np.zeros(2), 1e-5) is None
    assert numeric_stderr(lambda th: np.inf, np.zeros(2), 1e-5) is None


# ---------------------------------------------------------------------------
# maximize searches only from starts where the objective is finite


@quiet()
def oracle_maximize(negloglik_z, z0_list, tol, max_iter):
    """Simplex descent per start, then quasi-Newton polish; best kept.

    The simplex stage works to ``tol`` relative in the objective; the
    L-BFGS-B polish (finite-difference gradients) sharpens the optimum.
    """
    best, iterations = None, 0
    for z0 in z0_list:
        f0 = negloglik_z(np.asarray(z0, dtype=float))
        fatol = tol * (1.0 + (abs(f0) if np.isfinite(f0) else 1.0))
        nm_iter = min(max_iter, 250 * len(z0))
        x, fun, nit, _, ok = _nelder_mead(negloglik_z, z0, f0, 1e-6, fatol, nm_iter, 2 * nm_iter)
        polish = minimize(negloglik_z, x, method="L-BFGS-B",
                          options={"maxiter": max_iter, "ftol": tol, "gtol": 1e-10})
        iterations += nit + polish.nit
        if polish.fun <= fun:
            x, fun = polish.x, polish.fun
        if np.isfinite(fun) and (best is None or fun < best[0]):
            best = (fun, x, bool(ok or polish.success))
    if best is None:
        raise RuntimeError("likelihood evaluation failed for every start")
    return best[0], best[1], best[2], iterations


def walled_bowl(centre, weights, wall, bad):
    """A weighted bowl that is ``bad`` (inf or NaN) where x[0] > wall."""
    centre, weights = np.array(centre), np.array(weights)

    def f(x):
        return bad if x[0] > wall else float(weights @ (x - centre) ** 2)
    return f


@pytest.fixture
def searched(monkeypatch):
    """The x0 of every simplex run and every L-BFGS-B polish inside ``maximize``.

    ``maximize`` imports ``minimize`` from ``scipy.optimize`` when it is
    called, so patching the attribute there reaches every polish.
    """
    runs = {"simplex": [], "polish": []}
    real_nelder_mead, real_minimize = _optim._nelder_mead, scipy.optimize.minimize

    def nelder_mead(f, x0, *args):
        runs["simplex"].append(np.asarray(x0, dtype=float))
        return real_nelder_mead(f, x0, *args)

    def polish(f, x0, **kwargs):
        runs["polish"].append(np.asarray(x0, dtype=float))
        return real_minimize(f, x0, **kwargs)

    monkeypatch.setattr(_optim, "_nelder_mead", nelder_mead)
    monkeypatch.setattr(scipy.optimize, "minimize", polish)
    return runs


@pytest.mark.parametrize("bad", [np.inf, np.nan], ids=["inf", "nan"])
def test_a_non_finite_start_costs_one_call_and_no_search(searched, bad):
    f = walled_bowl([0.5, -1.0], [1.0, 3.0], 2.0, bad)
    calls = []

    def counted(x):
        calls.append(np.array(x))
        return f(x)

    bad_start, finite_start = np.array([4.0, 1.0]), np.array([1.0, 1.0])
    maximize(counted, [bad_start, finite_start], 1e-10, 400)
    # the dropped start is evaluated once, then the next start begins
    assert calls[0].tobytes() == bad_start.tobytes()
    assert calls[1].tobytes() == finite_start.tobytes()
    assert sum(c.tobytes() == bad_start.tobytes() for c in calls) == 1
    assert len(searched["simplex"]) == 1
    assert searched["simplex"][0].tobytes() == finite_start.tobytes()
    assert len(searched["polish"]) == 1


def test_every_start_non_finite_raises_without_search(searched):
    f = walled_bowl([0.0], [1.0], 1.0, np.inf)
    calls = []

    def counted(x):
        calls.append(x)
        return f(x)

    z0s = [np.array([2.0]), np.array([3.0]), np.array([1.5])]
    with pytest.raises(RuntimeError, match="likelihood evaluation failed for every start"):
        maximize(counted, z0s, 1e-10, 400)
    assert len(calls) == len(z0s)
    assert searched == {"simplex": [], "polish": []}


def _outcome(f, z0s):
    """``maximize``'s result with ``x`` as bytes, or its error when no start ends finite."""
    try:
        fun, x, ok, iterations = maximize(f, z0s, 1e-8, 200)
    except RuntimeError as exc:
        return str(exc)
    return fun, x.tobytes(), ok, iterations


@st.composite
def mixed_starts(draw):
    k = draw(st.integers(1, 3))
    coord = st.floats(-3.0, 3.0, allow_nan=False)
    centre = draw(st.lists(coord, min_size=k, max_size=k))
    weights = draw(st.lists(st.floats(0.1, 10.0), min_size=k, max_size=k))
    wall = draw(st.floats(-1.0, 2.0))
    bad = draw(st.sampled_from([np.inf, np.nan]))
    inside = st.floats(-4.0, wall, allow_nan=False)
    outside = st.floats(wall, 6.0, exclude_min=True, allow_nan=False)
    finite = draw(st.lists(st.tuples(inside, st.lists(coord, min_size=k - 1, max_size=k - 1)),
                           min_size=1, max_size=3))
    non_finite = draw(st.lists(st.tuples(outside, st.lists(coord, min_size=k - 1,
                                                           max_size=k - 1)),
                               min_size=1, max_size=3))
    tagged = [(True, s) for s in finite] + [(False, s) for s in non_finite]
    order = draw(st.permutations(range(len(tagged))))
    z0s = [(ok, np.array([head, *tail])) for ok, (head, tail) in (tagged[i] for i in order)]
    return walled_bowl(centre, weights, wall, bad), z0s


@PROPERTY
@given(mixed_starts())
def test_non_finite_starts_leave_the_result_unchanged(problem):
    f, z0s = problem
    assert _outcome(f, [z0 for _, z0 in z0s]) == \
        _outcome(f, [z0 for finite, z0 in z0s if finite])


def _fit_bits(fit):
    """Every field of an ``SRGMFit`` but ``iterations``, each float as its bytes."""
    def f64(v):
        return np.float64(v).tobytes()
    return (f64(fit.omega), fit.hazard.family, np.asarray(fit.hazard.params).tobytes(),
            [(name, f64(b)) for name, b in fit.beta.items()], f64(fit.log_lik), f64(fit.aic),
            fit.converged, fit.n_fit, f64(fit.holdout_mae), fit.fitted.tobytes(),
            [(name, f64(aic)) for name, aic in fit.trace])


def test_bundled_stepwise_fits_match_the_oracle(monkeypatch):
    # the candidates and scenario of `air fit-srgm --stepwise`
    candidates = ("Alpha", "F1", "Epsilon", "FGSM")
    series = interval_series_from_adversarial(
        datasets.load(DATA_DIR / "adversarial-attacks" / "adversarial.csv", "adversarial"),
        scenario=1, covariates=candidates)
    non_finite_f0 = []
    real_nelder_mead = _optim._nelder_mead

    def guarded(f, x0, f0, *args):
        if not np.isfinite(f0):
            non_finite_f0.append(np.asarray(x0))
        return real_nelder_mead(f, x0, f0, *args)

    for family in sorted(srgm.HAZARD_FAMILIES):
        with monkeypatch.context() as patch:
            patch.setattr(_optim, "_nelder_mead", guarded)
            fit = srgm.forward_stepwise(series, family, candidates)
        with monkeypatch.context() as patch:
            patch.setattr(srgm, "maximize", oracle_maximize)
            want = srgm.forward_stepwise(series, family, candidates)
        assert _fit_bits(fit) == _fit_bits(want), family
        assert fit.iterations <= want.iterations, family
    assert non_finite_f0 == []


# ---------------------------------------------------------------------------
# maximize with an exact score


@quiet()
def unscored_maximize(negloglik_z, z0_list, tol, max_iter):
    """``maximize`` as it was before it took a score: each finite start runs
    the simplex and the finite-difference polish."""
    best, iterations = None, 0
    for z0 in z0_list:
        f0 = negloglik_z(np.asarray(z0, dtype=float))
        if not np.isfinite(f0):
            continue
        fatol = tol * (1.0 + abs(f0))
        nm_iter = min(max_iter, 250 * len(z0))
        x, fun, nit, _, ok = _nelder_mead(negloglik_z, z0, f0, 1e-6, fatol, nm_iter, 2 * nm_iter)
        polish = minimize(negloglik_z, x, method="L-BFGS-B",
                          options={"maxiter": max_iter, "ftol": tol, "gtol": 1e-10})
        iterations += nit + polish.nit
        if polish.fun <= fun:
            x, fun = polish.x, polish.fun
        if np.isfinite(fun) and (best is None or fun < best[0]):
            best = (fun, x, bool(ok or polish.success))
    if best is None:
        raise RuntimeError("likelihood evaluation failed for every start")
    return best[0], best[1], best[2], iterations


def scored_bowl(centre, weights, wall=np.inf, bad=np.inf, sign=1.0):
    """``walled_bowl``'s value with ``sign`` times its gradient."""
    f = walled_bowl(centre, weights, wall, bad)
    centre, weights = np.array(centre), np.array(weights)

    def score(x):
        return f(x), sign * 2.0 * weights * (x - centre)
    return score


@pytest.fixture
def scipy_runs(monkeypatch):
    """The x0 of every simplex run, of every L-BFGS-B run on a score from a
    start, and of every polish after a simplex inside ``maximize``, and each
    of those score runs' and polishes' results."""
    runs = {"simplex": [], "score": [], "polish": [], "results": [], "polished": []}
    real_nelder_mead, real_minimize = _optim._nelder_mead, scipy.optimize.minimize
    real_scaled_polish = _optim._scaled_polish
    polishing = []

    def nelder_mead(f, x0, *args):
        runs["simplex"].append(np.asarray(x0, dtype=float))
        return real_nelder_mead(f, x0, *args)

    def scaled_polish(objective, x, max_iter):
        polishing.append(True)
        try:
            result = real_scaled_polish(objective, x, max_iter)
        finally:
            polishing.pop()
        runs["polish"].append(np.asarray(x, dtype=float))
        runs["polished"].append(result)
        return result

    def recorded(f, x0, **kwargs):
        result = real_minimize(f, x0, **kwargs)
        if polishing:
            pass
        elif kwargs.get("jac") is True:
            runs["score"].append(np.asarray(x0, dtype=float))
            runs["results"].append(result)
        else:
            runs["polish"].append(np.asarray(x0, dtype=float))
            runs["polished"].append(result)
        return result

    monkeypatch.setattr(_optim, "_nelder_mead", nelder_mead)
    monkeypatch.setattr(_optim, "_scaled_polish", scaled_polish)
    monkeypatch.setattr(scipy.optimize, "minimize", recorded)
    return runs


def counting(fn, calls):
    def counted(x):
        calls.append(np.array(x))
        return fn(x)
    return counted


@pytest.mark.parametrize("bad", [np.inf, np.nan], ids=["inf", "nan"])
def test_with_a_score_a_non_finite_start_costs_one_call_and_no_search(scipy_runs, bad):
    score = scored_bowl([0.5, -1.0], [1.0, 3.0], 2.0, bad)
    scores = []
    bad_start, finite_start = np.array([4.0, 1.0]), np.array([1.0, 1.0])
    fun, x, ok, iterations = maximize(counting(score, scores), [bad_start, finite_start], 1e-10,
                                      400)
    # the dropped start is scored once; the finite start's first score is not repeated
    assert scores[0].tobytes() == bad_start.tobytes()
    assert scores[1].tobytes() == finite_start.tobytes()
    assert sum(s.tobytes() == bad_start.tobytes() for s in scores) == 1
    assert sum(s.tobytes() == finite_start.tobytes() for s in scores) == 1
    assert [r.tobytes() for r in scipy_runs["score"]] == [finite_start.tobytes()]
    assert scipy_runs["simplex"] == [] and scipy_runs["polish"] == []
    assert ok and iterations == scipy_runs["results"][0].nit
    assert np.allclose(x, [0.5, -1.0], atol=1e-7)


def test_with_a_score_every_start_non_finite_raises_without_search(scipy_runs):
    score = scored_bowl([0.0], [1.0], 1.0, np.inf)
    with pytest.raises(RuntimeError, match="likelihood evaluation failed for every start"):
        maximize(score, [np.array([2.0]), np.array([3.0])], 1e-10, 400)
    assert scipy_runs == {"simplex": [], "score": [], "polish": [], "results": [], "polished": []}


def test_an_abnormal_lbfgsb_end_falls_back_to_the_simplex(scipy_runs):
    # the score's gradient points uphill, so L-BFGS-B's line search finds no
    # lower point and ends abnormally; the simplex and polish find the minimum
    uphill = scored_bowl([0.5, -1.0], [1.0, 3.0], sign=-1.0)
    calls = []
    start = np.array([1.0, 1.0])
    fun, x, ok, iterations = maximize(counting(uphill, calls), [start], 1e-10, 400)
    (lbfgsb,) = scipy_runs["results"]
    assert not lbfgsb.success and "ABNORMAL" in lbfgsb.message
    assert [r.tobytes() for r in scipy_runs["simplex"]] == [start.tobytes()]
    assert len(scipy_runs["polish"]) == 1
    # the simplex is handed the start's value and does not compute it again
    assert sum(c.tobytes() == start.tobytes() for c in calls) == 1
    assert ok and fun < lbfgsb.fun and np.allclose(x, [0.5, -1.0], atol=1e-5)
    assert iterations > lbfgsb.nit


@pytest.mark.parametrize("centre, weights, start, lowest, polish_gains", [
    # the bowl's lowest finite point is (0.5, 0) on the wall, where the value is 6.25
    ([3.0, 0.0], [1.0, 1.0], [0.0, 0.5], [0.5, 0.0], False),
    # the minimum lies 0.05 inside the wall, so a unit first step from the
    # simplex's end would cross it too: only a scaled polish gets below the simplex
    ([0.45, -0.2], [1.0, 3.0], [0.0, 0.0], [0.45, -0.2], True),
], ids=["past-wall", "near-wall"])
def test_a_run_that_never_leaves_its_start_falls_back_to_the_simplex(
        scipy_runs, centre, weights, start, lowest, polish_gains):
    # L-BFGS-B's first step has unit length; here it lands past the inf wall at
    # x[0] = 0.5, and scipy returns the start as converged although its
    # gradient is not 0
    score = scored_bowl(centre, weights, wall=0.5)
    start = np.array(start)
    fun, x, ok, iterations = maximize(score, [start], 1e-10, 400)
    (lbfgsb,) = scipy_runs["results"]
    assert lbfgsb.success and lbfgsb.x.tobytes() == start.tobytes()
    assert [r.tobytes() for r in scipy_runs["simplex"]] == [start.tobytes()]
    (simplex_end,), (polish,) = scipy_runs["polish"], scipy_runs["polished"]
    simplex_value = score(simplex_end)[0]
    assert polish.fun < simplex_value if polish_gains else polish.fun <= simplex_value
    assert fun < score(lowest)[0] + 1e-6 < score(start)[0]
    assert x[0] <= 0.5 and np.allclose(x, lowest, rtol=0.0, atol=1e-3)


def test_an_abnormal_end_that_the_fallback_confirms_counts_as_converged(monkeypatch):
    # as on a profile whose value is noisy at the optimum: L-BFGS-B's line
    # search ends abnormally there, a rounding error below where the fallback
    # ends, and the fallback converges within its tolerance of it
    real_minimize, scored = scipy.optimize.minimize, []

    def abnormal_first(f, x0, **kwargs):
        result = real_minimize(f, x0, **kwargs)
        if kwargs.get("jac") is True and not scored:
            result.success, result.message, result.fun = False, "ABNORMAL: ", result.fun - 1e-12
            scored.append(result)
        return result

    monkeypatch.setattr(scipy.optimize, "minimize", abnormal_first)
    fun, x, ok, _ = maximize(scored_bowl([0.5, -1.0], [1.0, 3.0]), [np.array([1.0, 1.0])],
                             1e-10, 400)
    assert fun == scored[0].fun and x.tobytes() == scored[0].x.tobytes()
    assert ok


def test_a_start_that_ends_normally_has_no_fallback(scipy_runs):
    score = scored_bowl([0.5, -1.0, 2.0], [1.0, 3.0, 0.5])
    starts_ = [np.array([1.0, 1.0, 1.0]), np.array([-2.0, 0.0, 4.0])]
    fun, x, ok, iterations = maximize(score, starts_, 1e-10, 400)
    assert [r.tobytes() for r in scipy_runs["score"]] == [s.tobytes() for s in starts_]
    assert scipy_runs["simplex"] == [] and scipy_runs["polish"] == []
    assert all(r.success for r in scipy_runs["results"])
    assert iterations == sum(r.nit for r in scipy_runs["results"])
    assert ok and fun < 1e-12


@PROPERTY
@given(mixed_starts())
def test_without_a_score_maximize_makes_the_calls_it_made_before(problem):
    f, z0s = problem
    z0s = [z0 for _, z0 in z0s]
    ours, before = [], []
    try:
        got = maximize(counting(f, ours), z0s, 1e-8, 200)
    except RuntimeError as exc:
        got = str(exc)
    try:
        want = unscored_maximize(counting(f, before), z0s, 1e-8, 200)
    except RuntimeError as exc:
        want = str(exc)
    assert [c.tobytes() for c in ours] == [c.tobytes() for c in before]
    if isinstance(want, str):
        assert got == want
    else:
        assert (got[0], got[1].tobytes(), got[2:]) == (want[0], want[1].tobytes(), want[2:])
