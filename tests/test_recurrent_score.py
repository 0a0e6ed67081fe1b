"""The recurrent searches' profile likelihood and its exact score.

``recurrent._Profile`` maximizes each shaped family's amplitude in closed
form and gives the negative profile log-likelihood in z = log phi with its
gradient, from the family's derivatives of log S' at the event times and
of S on the breakpoint grid.  A property holds that gradient to a central
difference of the same value, for the four shaped families.  At every
bundled ``air fit-recurrent`` optimum the full-parameter score of
``_Packed.log_lik`` vanishes: the expected count equals the observed
count to rounding, which the closed-form amplitude gives exactly, and
each partial derivative in log theta is at most 1e-6 per event.
"""

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from aireliab import datasets, simulate
from aireliab.datasets import ExposureSchedule
from aireliab.recurrent import (
    FAMILIES,
    BaselineIntensityModel,
    EventSeries,
    _AMPLITUDE,
    _Packed,
    _Profile,
    cumulative_baseline,
    fit_mle,
)

from conftest import DATA_DIR, PROPERTY

TRUTH = {"power_law": (1.3, 8.0), "weibull_growth": (30.0, 0.05, 0.9),
         "gompertz": (20.0, 1.5, 0.1), "musa_okumoto": (10.0, 0.3)}
TAU = 30.0
#: central-difference step in z
STEP = 1e-6
#: a score's allowed distance from the central difference, relative to the
#: size of the value and of the gradient (the difference loses about
#: 1e-16 |value| / STEP to rounding)
SCORE_RTOL = 1e-7
#: the full-parameter score at a fitted optimum, per event
OPTIMUM_SCORE_TOL = 1e-6


@st.composite
def profiles(draw):
    """A family's profile on 1-5 simulated units with cut, partly unexposed
    schedules, and a z within reach of the truth."""
    family = draw(st.sampled_from(FAMILIES[1:]))
    exposures = []
    for i in range(draw(st.integers(1, 5))):
        cuts = sorted(draw(st.sets(st.integers(1, 2 * int(TAU) - 1), max_size=4)))
        rates = draw(st.lists(st.just(0.0) | st.floats(0.2, 3.0), min_size=len(cuts) + 1,
                              max_size=len(cuts) + 1))
        exposures.append(ExposureSchedule(f"u{i}", np.array([0.0, *(c / 2 for c in cuts), TAU]),
                                          np.array(rates), TAU))
    units = simulate.simulate_fleet(BaselineIntensityModel(family, TRUTH[family]), exposures, TAU,
                                    draw(st.integers(0, 2**16)))
    assume(any(u.n_events for u in units))
    shape = np.delete(np.log(TRUTH[family]), _AMPLITUDE[family])
    z = shape + draw(st.lists(st.floats(-1.0, 1.0), min_size=len(shape), max_size=len(shape)))
    return _Profile(_Packed(units), family), z


def assert_score_matches_a_central_difference(profile, z):
    value, score = profile(z)
    assert np.isfinite(value) and score.shape == z.shape
    for i in range(len(z)):
        step = np.zeros(len(z))
        step[i] = STEP
        central = (profile(z + step)[0] - profile(z - step)[0]) / (2 * STEP)
        assert abs(score[i] - central) <= SCORE_RTOL * (abs(value) + np.abs(score).sum() + 1.0)


@PROPERTY
@given(profiles())
def test_profile_score_matches_a_central_difference(problem):
    assert_score_matches_a_central_difference(*problem)


def test_the_score_is_zero_where_the_search_region_ends():
    units = simulate.simulate_fleet(BaselineIntensityModel("power_law", TRUTH["power_law"]),
                                    [datasets.constant_exposure(1.0, TAU)], TAU, 3)
    profile = _Profile(_Packed(units), "weibull_growth")
    for z in (np.array([301.0, 0.0]), np.array([0.0, -300.5])):
        value, score = profile(z)
        assert value == np.inf
        assert np.array_equal(score, np.zeros(2))


def bundled_unit_lists():
    """The units of every bundled ``air fit-recurrent`` fit, by level and manufacturer."""
    for level, sub in (("vehicle", "disengagements"), ("manufacturer", "collisions")):
        months = datasets.MonthTable(datasets.load(DATA_DIR / sub / "months.csv", "month"))
        mileage = datasets.load(DATA_DIR / sub / "mileage.csv", "mileage")
        schema = "disengagement" if level == "vehicle" else "collision"
        events = datasets.load(DATA_DIR / sub / f"{sub}.csv", schema)
        for name in sorted(set(datasets.column(events, "manufacture"))):
            if level == "vehicle":
                units = simulate.event_series_from_disengagements(events, mileage, months, name)
            else:
                times = simulate.collision_times(events, months, name)
                fleet = datasets.sum_schedules(datasets.derive_exposure(
                    datasets.select(mileage, "manufacture", name), months))
                units = [EventSeries("fleet", times, fleet.tau, fleet)]
            yield f"{level}-{name}", units


@pytest.mark.parametrize("family", FAMILIES[1:])
def test_the_full_score_vanishes_at_every_bundled_optimum(family):
    for case, units in bundled_unit_lists():
        fit = fit_mle(units, family)
        packed = _Packed(units)
        n = packed.n_events
        # the amplitude's score is N - (expected count), zero at its closed form
        cum = cumulative_baseline(fit.model, packed.grid)
        expected = packed.interval_rate @ (cum[packed.interval_hi] - cum[packed.interval_lo])
        assert expected == pytest.approx(n, rel=1e-12), case
        log_theta = np.log(fit.model.theta)
        for i in range(len(log_theta)):
            step = np.zeros(len(log_theta))
            step[i] = STEP
            central = (packed.log_lik_theta(family, np.exp(log_theta + step))
                       - packed.log_lik_theta(family, np.exp(log_theta - step))) / (2 * STEP)
            assert abs(central) <= OPTIMUM_SCORE_TOL * n, (case, i, central)
