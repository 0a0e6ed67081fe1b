"""``_optim._nelder_mead`` against the scipy Nelder–Mead it replaced.

The oracle is ``scipy.optimize.minimize(method="Nelder-Mead")`` with the
options ``maximize`` passes (xatol, fatol, maxiter, maxfev).  The loop
must reproduce it bit for bit: the same ``x`` bytes, ``fun``, ``nit``,
``nfev`` and ``success``, and the same final simplex, while it calls the
objective once less, as it is given the start's value.  The objectives
cover smooth bowls, flat (clipped) coordinates and integer values that
tie, ``inf`` walls and NaN regions, starts with zero coordinates, budgets
that run out in the middle of an iteration or of a shrink, and the real
search objectives of the EP, srgm and recurrent fitters from their own
starts.  The recurrent fits search on an exact score and keep the simplex
as a fallback; the objective held here is the profile likelihood that
the fallback searches.  Each of these cases must record a search, so
that none passes without running the loop.

A second test keeps every fitter on this one simplex: with scipy's
Nelder–Mead made to raise, each fitter must still run.
"""

import sys
from unittest import mock

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given
from hypothesis import strategies as st

from aireliab import _optim, datasets, propagation, recurrent, srgm
from aireliab._optim import _nelder_mead, quiet
from aireliab.propagation import DEFAULT_SOURCES, EPModel, fit_ep
from aireliab.recurrent import (
    FAMILIES,
    FAMILY_PARAMS,
    BaselineIntensityModel,
    fit_mle,
)
from aireliab.simulate import (
    interval_series_from_adversarial,
    module_event_log,
    simulate_ep_cascade,
    simulate_fleet,
    simulate_srgm_counts,
)
from aireliab.srgm import HAZARD_FAMILIES, fit_srgm

from conftest import DATA_DIR, PROPERTY, unit_exposures


def scipy_simplex(f, x0, xatol, fatol, maxiter, maxfev):
    res = scipy.optimize.minimize(f, x0, method="Nelder-Mead", options={
        "xatol": xatol, "fatol": fatol, "maxiter": maxiter, "maxfev": maxfev})
    return (res.x, res.fun, res.nit, res.nfev, res.success), res.final_simplex


def assert_same_run(f, x0, xatol, fatol, maxiter, maxfev):
    """The loop and scipy agree exactly from ``x0``, down to the final
    simplex (the loop's last sort); returns scipy's run."""
    x0 = np.asarray(x0, dtype=float)
    calls, sorts, real_sort = [], [], _optim._by_value

    def counted(x):
        calls.append(x)
        return f(x)

    def by_value(sim, fsim):
        sorts.append(real_sort(sim, fsim))
        return sorts[-1]

    with quiet(), mock.patch.object(_optim, "_by_value", by_value):
        want, (sim, fsim) = scipy_simplex(f, x0, xatol, fatol, maxiter, maxfev)
        got = _nelder_mead(counted, x0, f(x0.copy()), xatol, fatol, maxiter, maxfev)
    # the start's value is passed in, yet counted as scipy counts it
    assert len(calls) == max(got[3] - 1, 0)
    assert got[0].dtype == np.float64 and got[0].tobytes() == want[0].tobytes()
    assert np.float64(got[1]).tobytes() == np.float64(want[1]).tobytes()
    assert got[2:] == tuple(want[2:])
    assert np.array(sorts[-1][0]).tobytes() == sim.tobytes()
    assert np.array(sorts[-1][1]).tobytes() == fsim.tobytes()
    return want


# ---------------------------------------------------------------------------
# generated objectives


def bowl(centre, weights):
    return lambda x: float(np.dot(weights, (x - centre) ** 2))


def clipped(centre, weights):
    # flat outside [-1, 1] in every coordinate: whole faces of ties
    return lambda x: float(np.dot(weights, (np.clip(x, -1.0, 1.0) - centre) ** 2))


def stepped(centre, weights):
    # integer values: most comparisons in the simplex are ties
    return lambda x: float(np.round(np.dot(weights, np.abs(x - centre))))


def walled(centre, weights):
    # inf beyond a wall the search runs into, as the fitters' guards return
    def f(x):
        return np.inf if x[0] > centre[0] - 0.5 else float(np.dot(weights, (x - centre) ** 2))
    return f


def nan_region(centre, weights):
    def f(x):
        return np.nan if x[-1] < centre[-1] - 0.3 else float(np.dot(weights, np.abs(x - centre)))
    return f


OBJECTIVES = {"bowl": bowl, "clipped": clipped, "stepped": stepped, "walled": walled,
              "nan": nan_region}
coordinate = st.floats(-3.0, 3.0, allow_nan=False) | st.just(0.0)


@st.composite
def problems(draw):
    n = draw(st.integers(1, 7))
    kind = draw(st.sampled_from(sorted(OBJECTIVES)))
    centre = np.array(draw(st.lists(coordinate, min_size=n, max_size=n)))
    weights = np.array(draw(st.lists(st.sampled_from([0.5, 1.0, 3.0]), min_size=n, max_size=n)))
    x0 = draw(st.lists(coordinate, min_size=n, max_size=n))
    maxiter = draw(st.sampled_from([1, 2, 5, 17, 60, 250 * n]))
    maxfev = draw(st.sampled_from([0, 1, n, n + 2, 2 * maxiter, 40, 500 * n]))
    fatol = draw(st.sampled_from([1e-12, 1e-6, 1e-2]))
    return OBJECTIVES[kind](centre, weights), x0, fatol, maxiter, maxfev


@PROPERTY
@given(problems())
def test_loop_matches_scipy_on_generated_objectives(problem):
    f, x0, fatol, maxiter, maxfev = problem
    assert_same_run(f, x0, 1e-6, fatol, maxiter, maxfev)


@pytest.mark.parametrize("x0, maxiter, maxfev", [
    ([0.0, -0.2999], 1, 100),  # a NaN vertex in the first simplex: fun is NaN
    ([0.0, -0.2999], 3, 100),
    ([0.5, 0.0], 100, 0),  # nothing evaluated, not even the start
    ([0.0, 0.0, 0.0], 100, 1),  # the start alone
    ([0.0, 0.0, 0.0], 400, 800),
])
def test_loop_matches_scipy_on_edge_cases(x0, maxiter, maxfev):
    f = nan_region(np.zeros(len(x0)), np.ones(len(x0)))
    assert_same_run(f, x0, 1e-6, 1e-9, maxiter, maxfev)


@pytest.mark.parametrize("kind, n", [("stepped", 3), ("stepped", 6), ("clipped", 1)])
def test_loop_matches_scipy_for_every_evaluation_budget(kind, n):
    # every budget up to a full run's count stops the search at another
    # evaluation: inside a reflection, an expansion, a contraction and,
    # since the full run shrinks, inside a shrink
    f = OBJECTIVES[kind](np.linspace(0.7, -0.4, n), np.linspace(1.0, 2.0, n))
    x0 = np.zeros(n)
    x0[-1] = 1.5
    _, _, nit, nfev, _ = assert_same_run(f, x0, 1e-6, 1e-9, 500, 1000)
    # an iteration without a shrink makes one or two evaluations
    assert nfev - (n + 1) > 2 * (nit - 1)
    for maxfev in range(nfev + 1):
        assert_same_run(f, x0, 1e-6, 1e-9, 500, maxfev)
    for maxiter in range(1, nit + 1):
        assert_same_run(f, x0, 1e-6, 1e-9, maxiter, 1000)


# ---------------------------------------------------------------------------
# the fitters' own objectives from their own starts


def searches(fit, monkeypatch):
    """The (value objective, starts, tol, max_iter) of every ``maximize``
    call of ``fit()``, at least one; each call returns its first start,
    which the fitter takes as its optimum.  For an objective that returns
    its gradient too, a (value, gradient) tuple, the value is its first
    component, which the simplex fallback searches."""
    calls = []

    def record(objective, z0_list, tol, max_iter):
        with quiet():
            scored = isinstance(objective(np.asarray(z0_list[0], dtype=float)), tuple)
        negloglik = (lambda z: objective(z)[0]) if scored else objective
        calls.append((negloglik, list(z0_list), tol, max_iter))
        with quiet():
            return negloglik(np.asarray(z0_list[0], dtype=float)), z0_list[0], True, 0

    for module in (propagation, recurrent, srgm):
        monkeypatch.setattr(module, "maximize", record)
    fit()
    assert calls, "the fit made no search"
    return calls


def assert_searches_match(calls):
    for negloglik, z0_list, tol, max_iter in calls:
        for z0 in z0_list:
            z0 = np.asarray(z0, dtype=float)
            with quiet():
                f0 = negloglik(z0)
            fatol = tol * (1.0 + (abs(f0) if np.isfinite(f0) else 1.0))
            nm_iter = min(max_iter, 250 * len(z0))
            assert_same_run(negloglik, z0, 1e-6, fatol, nm_iter, 2 * nm_iter)


def test_loop_matches_scipy_on_ep_localization(monkeypatch):
    logs = list(module_event_log(
        datasets.load(DATA_DIR / "module-errors" / "module_errors.csv", "module_error")).values())
    calls = searches(lambda: fit_ep(logs), monkeypatch)
    assert len(calls) == 3 and len(calls[-1][1][0]) == 6  # localization, with two edges
    assert_searches_match(calls[-1:])


@pytest.mark.parametrize("family", sorted(HAZARD_FAMILIES))
def test_loop_matches_scipy_on_srgm_hazards(family, monkeypatch):
    series = interval_series_from_adversarial(
        datasets.load(DATA_DIR / "adversarial-attacks" / "adversarial.csv", "adversarial"),
        scenario=1)
    calls = searches(lambda: fit_srgm(series, family, covariates=("F1",)), monkeypatch)
    assert_searches_match(calls)


@pytest.mark.parametrize("family", [f for f in FAMILIES if f != "hpp"])
def test_loop_matches_scipy_on_recurrent_families(family, monkeypatch):
    truth = BaselineIntensityModel("weibull_growth", (30.0, 0.02, 1.0))
    units = simulate_fleet(truth, unit_exposures(5, 120.0), 120.0, 4)
    calls = searches(lambda: fit_mle(units, family, multistarts=2), monkeypatch)
    # the profile objective: the amplitude is not a search coordinate
    assert [len(z0) for _, z0_list, _, _ in calls for z0 in z0_list] == \
        [len(FAMILY_PARAMS[family]) - 1] * 2
    assert_searches_match(calls)


# ---------------------------------------------------------------------------
# no fitter keeps a second simplex


def test_no_fitter_calls_scipy_nelder_mead(monkeypatch):
    real = scipy.optimize.minimize
    methods = []

    def guarded(fun, x0, *args, method=None, **kwargs):
        methods.append(method)
        if str(method).lower() == "nelder-mead":
            raise AssertionError("scipy's Nelder-Mead was called")
        return real(fun, x0, *args, method=method, **kwargs)

    def refuse(*args, **kwargs):
        raise AssertionError("scipy's fmin was called")

    monkeypatch.setattr(scipy.optimize, "minimize", guarded)
    monkeypatch.setattr(scipy.optimize, "fmin", refuse)
    # a module that imported ``minimize`` by name holds its own reference
    for name, module in list(sys.modules.items()):
        if name.startswith("aireliab"):
            for attr, value in list(vars(module).items()):
                if value is real:
                    monkeypatch.setattr(module, attr, guarded)
    # ``maximize`` imports ``minimize`` when it is called, so it gets the guard
    assert not hasattr(_optim, "minimize")

    logs = [simulate_ep_cascade(EPModel({"2d": (1.2, 2.0), "3d": (1.2, 2.0),
                                         "localization": (1.1, 3.0)},
                                        {("localization", "2d"): (0.3, 1.0),
                                         ("localization", "3d"): (0.3, 1.0)}),
                                DEFAULT_SOURCES, 12.0, seed=s) for s in (1, 2)]
    fit_ep(logs, multistarts=1)
    fit_srgm(simulate_srgm_counts(60.0, srgm.DiscreteHazard("gm", (0.1,)), [], None, 10, 2),
             "gm")
    units = simulate_fleet(BaselineIntensityModel("power_law", (1.2, 5.0)),
                           unit_exposures(4, 30.0), 30.0, 5)
    fit_mle(units, "power_law", multistarts=1)
    assert methods.count("L-BFGS-B") >= 5 and "Nelder-Mead" not in methods
