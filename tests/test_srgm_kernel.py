"""The prepared srgm objective against the per-call reference.

``srgm.fit_srgm`` minimises ``srgm._Objective``, which prepares the step
grid, the covariate rows, the observed-failure mask and the cumulative
product buffer once per fit.  The reference below is the objective that
came before: every call builds and validates a ``DiscreteHazard`` and
goes through the validating ``mean_value_increments``.  The two must
agree exactly, ``inf`` included, for all six families with 0-3
covariates, at points beyond the +-30 guard, where saturating families
round the hazard onto 1, and on count series with zero intervals.
"""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st
from scipy.special import gammaln

from aireliab._optim import maximize
from aireliab.datasets import load
from aireliab.simulate import interval_series_from_adversarial
from aireliab.srgm import (
    HAZARD_FAMILIES,
    DiscreteHazard,
    _Objective,
    _transforms,
    mean_value_increments,
)

from conftest import PROPERTY

FAMILIES = tuple(HAZARD_FAMILIES)


def reference_objective(family, X, counts_fit):
    """The per-call objective: a validated hazard and increments each call."""
    _, unpack, k_h = _transforms(family)
    n_fit = len(counts_fit)
    n_total = float(counts_fit.sum())
    lgam = float(np.sum(gammaln(counts_fit + 1.0)))

    def negloglik(z):
        if np.any(np.abs(z) > 30):
            return np.inf
        beta = z[k_h:]
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            try:
                hazard = DiscreteHazard(family, unpack(z[:k_h]))
                s = mean_value_increments(1.0, hazard, beta, X, n_fit)
            except ValueError:
                return np.inf
            if np.any(~np.isfinite(s)) or np.any(s < 0):
                return np.inf
            if np.any((s == 0) & (counts_fit > 0)):
                return np.inf
            mass = float(np.sum(s))
            if mass <= 0:
                return np.inf
            omega = n_total / mass
            pos = s > 0
            ll = float(np.dot(counts_fit[pos], np.log(s[pos]))) \
                + n_total * np.log(omega) - n_total - lgam
        return -ll if np.isfinite(ll) else np.inf

    return negloglik


# ---------------------------------------------------------------------------
# generated series and points

EDGES = [30.0, -30.0, np.nextafter(30.0, 0.0), np.nextafter(30.0, 31.0), 29.5, -29.5,
         -18.0, 18.0, 36.8, -36.8, 0.0]
Z = st.floats(-35.0, 35.0) | st.sampled_from(EDGES) | st.floats(-120.0, 120.0)


@st.composite
def problems(draw):
    """A family, 2-40 fitting intervals with some zero counts, 0-3
    covariate columns, and a point z of the right length."""
    family = draw(st.sampled_from(FAMILIES))
    n = draw(st.integers(2, 40))
    counts = np.array(draw(st.lists(st.integers(0, 3) | st.just(0) | st.integers(0, 60),
                                    min_size=n, max_size=n)), dtype=float)
    if counts.sum() == 0:
        counts[draw(st.integers(0, n - 1))] = 1.0
    q = draw(st.integers(0, 3))
    X = np.array(draw(st.lists(st.lists(st.floats(-3.0, 3.0), min_size=q, max_size=q),
                               min_size=n, max_size=n))).reshape(n, q)
    z = np.array(draw(st.lists(Z, min_size=len(HAZARD_FAMILIES[family]) + q,
                               max_size=len(HAZARD_FAMILIES[family]) + q)))
    return family, X, counts, z


@PROPERTY
@given(problem=problems())
def test_objective_equals_reference(problem):
    family, X, counts, z = problem
    assert _Objective(family, X, counts)(z) == reference_objective(family, X, counts)(z)


@PROPERTY
@given(problem=problems(), points=st.lists(st.lists(Z, min_size=5, max_size=5), min_size=2,
                                            max_size=6))
def test_repeated_calls_equal_reference(problem, points):
    # one objective serves many calls; its buffer must carry nothing over
    family, X, counts, _ = problem
    objective = _Objective(family, X, counts)
    reference = reference_objective(family, X, counts)
    k = len(HAZARD_FAMILIES[family]) + X.shape[1]
    for point in points:
        z = np.array(point[:k])
        assert objective(z) == reference(z)


# ---------------------------------------------------------------------------
# fixed cases


def test_saturating_hazards_equal_reference():
    # dw2 with b near 0 and dw3 with large c round h onto 1 after a few
    # steps; the increments then vanish, which is inf only where a failure
    # was observed
    X = np.zeros((30, 0))
    tail_zero = np.r_[np.full(5, 4.0), np.zeros(25)]
    tail_busy = np.r_[np.full(5, 4.0), np.zeros(20), np.ones(5)]
    seen = set()
    for counts in (tail_zero, tail_busy):
        for family, z in (("dw2", [-25.0]), ("dw2", [-3.0]), ("dw3", [0.5, 3.0]),
                          ("dw3", [2.0, 1.0]), ("s", [29.0, -29.0]), ("gm", [29.9])):
            z = np.array(z)
            value = _Objective(family, X, counts)(z)
            assert value == reference_objective(family, X, counts)(z)
            seen.add(np.isfinite(value))
    assert seen == {True, False}


def test_bundled_series_all_families_equal_reference(data_dir):
    records = load(data_dir / "adversarial-attacks" / "adversarial.csv", "adversarial")
    series = interval_series_from_adversarial(records, scenario=1)
    counts = series.counts[:27]
    rng = np.random.default_rng(3)
    for family in FAMILIES:
        for q in range(4):
            X = series.covariates[:27, :q]
            k = len(HAZARD_FAMILIES[family]) + q
            objective = _Objective(family, X, counts)
            reference = reference_objective(family, X, counts)
            for _ in range(40):
                z = rng.normal(0.0, 4.0, k)
                assert objective(z) == reference(z)


def test_search_path_equals_reference(data_dir):
    # the optimizer sees the same values, so it takes the same path
    records = load(data_dir / "adversarial-attacks" / "adversarial.csv", "adversarial")
    series = interval_series_from_adversarial(records, scenario=1)
    counts = series.counts[:27]
    X = series.covariates[:27, :1]
    for family in ("s", "tl"):
        start = [np.r_[np.zeros(len(HAZARD_FAMILIES[family])), 0.0]]
        got = maximize(_Objective(family, X, counts), start, 1e-9, 400)
        want = maximize(reference_objective(family, X, counts), start, 1e-9, 400)
        assert got[0] == want[0]
        assert np.array_equal(got[1], want[1])
        assert got[2:] == want[2:]
