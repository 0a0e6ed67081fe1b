"""The collapsed recurrent-event likelihood against the per-event reference.

``recurrent._Packed`` reduces a unit list to the count at each distinct
event time and the summed rate on each distinct exposure interval, so
one evaluation needs the baseline only at the distinct event times and
the cumulative baseline only at the distinct breakpoints.  The reference
below is the evaluation that came before: the baseline at every event and
the cumulative baseline at both ends of every unit segment.  Properties
hold ``log_likelihood`` to it within 1e-12 relative for all five families, on generated units with tied event
days (within and across units), zero-event units, zero-rate segments,
events at t = tau, and per-unit breakpoints: constant, month-derived and
arbitrary schedules side by side, and ``sum_schedules`` unions of them.
Units over their own horizons give the likelihood and the fit of the
same units padded with a zero-rate segment to the longest horizon, bit
for bit.

The search objective of ``fit_mle`` and ``fit_manufacturer_level`` is the
profile likelihood (``recurrent._Profile``), for every shaped family (the
hpp has its closed form): the log-form event terms of each family and the
compensator of ``_Packed.log_lik_theta``, with the amplitude at its
closed-form maximum.  It is held to a reference that
builds a validated ``BaselineIntensityModel`` at amplitude 1 per call and
goes through the validating ``baseline_intensity`` and
``cumulative_baseline``, as the search did before it was prepared once.
Where the reference is finite the two agree within ``PROFILE_RTOL``
relative; where the reference's product form overflows to inf, the log
form may be any value but NaN.  Searches of the two reach the same
optimum, at the same point where it is not on a ridge.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from aireliab.datasets import (
    ExposureSchedule,
    MileageRow,
    MonthTable,
    constant_exposure,
    derive_exposure,
    sum_schedules,
)
from aireliab._optim import maximize
from aireliab.recurrent import (
    FAMILIES,
    FAMILY_PARAMS,
    BaselineIntensityModel,
    DataInconsistencyError,
    EventSeries,
    baseline_intensity,
    cumulative_baseline,
    fit_manufacturer_level,
    fit_mle,
    log_likelihood,
    _AMPLITUDE,
    _Packed,
    _Profile,
)
from aireliab.simulate import simulate_fleet

from conftest import PROPERTY, build_months

RTOL = 1e-12
#: how far the profile objective may be from its reference, relative
PROFILE_RTOL = 1e-13
#: how far a profile search's optimum may be from the reference search's, relative
OPTIMUM_RTOL = 1e-9
#: how far its point may be from the reference search's, relative
POINT_RTOL = 1e-5


# ---------------------------------------------------------------------------
# per-event, per-segment reference


class DenseReference:
    """The likelihood evaluated event by event and segment by segment."""

    def __init__(self, units):
        units = list(units)
        self.times = np.concatenate([u.event_times for u in units])
        self.n_events = len(self.times)
        xs = np.concatenate([np.atleast_1d(u.exposure.rate_at(u.event_times)) for u in units])
        if np.any(xs <= 0):
            bad = int(np.nonzero(xs <= 0)[0][0])
            raise DataInconsistencyError(
                f"event at t={self.times[bad]:g} has zero exposure (intensity would be zero)"
            )
        self.log_exposure_sum = float(np.sum(np.log(xs)))
        lo, hi, rate = [], [], []
        for u in units:
            keep = u.exposure.daily_rate > 0
            lo.append(u.exposure.breakpoints[:-1][keep])
            hi.append(u.exposure.breakpoints[1:][keep])
            rate.append(u.exposure.daily_rate[keep])
        self.seg_lo = np.concatenate(lo)
        self.seg_hi = np.concatenate(hi)
        self.seg_rate = np.concatenate(rate)

    def log_lik(self, model):
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            lam0 = baseline_intensity(model, self.times) if self.n_events else np.array([])
            if np.any(lam0 <= 0):
                return -np.inf
            event_term = float(np.sum(np.log(lam0))) + self.log_exposure_sum
            comp = self.seg_rate * (
                cumulative_baseline(model, self.seg_hi) - cumulative_baseline(model, self.seg_lo)
            )
            total = event_term - float(np.sum(comp))
        return total if np.isfinite(total) else -np.inf


def assert_close(value, reference):
    if math.isinf(reference):
        assert value == reference
    else:
        assert value == pytest.approx(reference, rel=RTOL, abs=0.0)


# ---------------------------------------------------------------------------
# generated units and models


def log_uniform(lo, hi):
    return st.floats(math.log(lo), math.log(hi)).map(math.exp)


THETAS = {
    "hpp": (log_uniform(0.01, 5.0),),
    "power_law": (log_uniform(0.3, 3.0), log_uniform(1.0, 100.0)),
    "weibull_growth": (log_uniform(0.1, 100.0), log_uniform(1e-3, 0.5), log_uniform(0.3, 2.0)),
    "gompertz": (log_uniform(0.1, 100.0), log_uniform(0.1, 5.0), log_uniform(1e-3, 0.2)),
    "musa_okumoto": (log_uniform(0.1, 100.0), log_uniform(1e-3, 1.0)),
}
assert set(THETAS) == set(FAMILIES)

RATES = st.just(0.0) | st.floats(0.01, 5.0)


@st.composite
def models(draw):
    family = draw(st.sampled_from(FAMILIES))
    return BaselineIntensityModel(family, tuple(draw(s) for s in THETAS[family]))


@st.composite
def schedules(draw, table, kinds=("constant", "derived", "cuts", "union")):
    """Constant, month-derived, arbitrary-cut or summed exposure over the table."""
    tau = table.tau
    kind = draw(st.sampled_from(kinds))
    if kind == "constant":
        return constant_exposure(draw(RATES), tau)
    if kind == "derived":
        miles = draw(st.lists(RATES, min_size=len(table), max_size=len(table)))
        return derive_exposure([MileageRow("M", "V", tuple(miles))], table)[0]
    if kind == "cuts":
        # half-day cuts, so some fall on event days and some between them
        cuts = sorted(draw(st.sets(st.integers(1, 2 * int(tau) - 1), max_size=5)))
        breakpoints = np.array([0.0, *(c / 2 for c in cuts), tau])
        rates = draw(st.lists(RATES, min_size=len(cuts) + 1, max_size=len(cuts) + 1))
        return ExposureSchedule("u", breakpoints, np.array(rates), tau)
    parts = draw(st.lists(schedules(table, kinds[:3]), min_size=2, max_size=3))
    return sum_schedules(parts)


@st.composite
def unit_lists(draw, drop_unexposed=True):
    """1-6 units over one to three months with event days from a shared pool
    that favours month ends, where derived schedules change rate.

    With ``drop_unexposed`` the events that fall in a zero-rate segment are
    dropped, so the likelihood is defined.
    """
    table = MonthTable(build_months(n=draw(st.integers(1, 3))))
    tau = table.tau
    month_ends = np.cumsum([row.n_days for row in table.rows]).tolist()
    pool = draw(st.lists(st.integers(1, int(tau)) | st.sampled_from(month_ends),
                         min_size=1, max_size=6))
    units = []
    for k in range(draw(st.integers(1, 6))):
        exposure = draw(schedules(table))
        days = np.sort(np.array(draw(st.lists(st.sampled_from(pool), max_size=8)), dtype=float))
        if drop_unexposed:
            days = days[np.atleast_1d(exposure.rate_at(days)) > 0]
        units.append(EventSeries(f"u{k}", days, tau, exposure))
    return units


# ---------------------------------------------------------------------------
# properties


@PROPERTY
@given(units=unit_lists(), model=models())
def test_log_likelihood_matches_reference(units, model):
    assert_close(log_likelihood(units, model), DenseReference(units).log_lik(model))


@PROPERTY
@given(units=unit_lists(drop_unexposed=False))
def test_event_in_zero_rate_segment_raises_as_reference(units):
    model = BaselineIntensityModel("hpp", (1.0,))
    try:
        reference = DenseReference(units).log_lik(model)
    except DataInconsistencyError:
        with pytest.raises(DataInconsistencyError, match="zero exposure"):
            log_likelihood(units, model)
    else:
        assert_close(log_likelihood(units, model), reference)


@st.composite
def own_horizon_units(draw):
    """2-5 units, each over its own horizon of 1-40 days, with arbitrary
    half-day cuts in its exposure and event days inside its horizon that
    avoid its zero-rate segments."""
    units = []
    for k in range(draw(st.integers(2, 5))):
        tau = float(draw(st.integers(1, 40)))
        cuts = sorted(draw(st.sets(st.integers(1, 2 * int(tau) - 1), max_size=3)))
        rates = draw(st.lists(RATES, min_size=len(cuts) + 1, max_size=len(cuts) + 1))
        exposure = ExposureSchedule(f"u{k}", np.array([0.0, *(c / 2 for c in cuts), tau]),
                                    np.array(rates), tau)
        days = np.sort(np.array(draw(st.lists(st.integers(1, int(tau)), max_size=8)), dtype=float))
        units.append(EventSeries(f"u{k}", days[np.atleast_1d(exposure.rate_at(days)) > 0], tau,
                                 exposure))
    return units


def padded(units):
    """``units`` observed to the longest horizon, at rate 0 past their own."""
    tau = max(u.tau for u in units)
    out = []
    for u in units:
        breakpoints, rates = u.exposure.breakpoints, u.exposure.daily_rate
        if u.tau < tau:
            breakpoints, rates = np.append(breakpoints, tau), np.append(rates, 0.0)
        out.append(EventSeries(u.unit_id, u.event_times, tau,
                               ExposureSchedule(u.unit_id, breakpoints, rates, tau)))
    return out


def outcome(call):
    """``call()``'s result, or the type and message of the error it raised."""
    try:
        return call()
    except (ValueError, RuntimeError) as err:
        return type(err), str(err)


@PROPERTY
@given(units=own_horizon_units(), model=models(), family=st.sampled_from(FAMILIES))
def test_own_horizons_equal_zero_rate_padding_to_the_longest(units, model, family):
    assume(len({u.tau for u in units}) > 1)
    longest = padded(units)
    assert log_likelihood(units, model) == log_likelihood(longest, model)
    assert (outcome(lambda: fit_mle(units, family, multistarts=2))
            == outcome(lambda: fit_mle(longest, family, multistarts=2)))


# ---------------------------------------------------------------------------
# fixed cases


def mixed_units():
    """Tied days within and across units, a zero-event unit, zero-rate
    segments, and four kinds of breakpoints side by side."""
    table = MonthTable(build_months(n=3))
    tau = table.tau
    derived = derive_exposure([MileageRow("M", "V", (3.1, 0.0, 4.5))], table)[0]
    cuts = ExposureSchedule("c", np.array([0.0, 10.5, 40.0, tau]), np.array([0.7, 0.0, 1.9]), tau)
    union = sum_schedules([cuts, constant_exposure(0.4, tau)])
    return [
        EventSeries("a", [3.0, 3.0, 17.0, 70.0, tau], tau, derived),
        EventSeries("b", [3.0, 10.0, 10.0, 60.0], tau, cuts),
        EventSeries("c", [], tau, constant_exposure(2.0, tau)),
        EventSeries("d", [3.0, 17.0, 17.0, 35.0], tau, union),
        EventSeries("e", [], tau, cuts),
    ]


FIXED_THETA = {"hpp": (0.3,), "power_law": (0.8, 20.0), "weibull_growth": (9.0, 0.02, 0.9),
               "gompertz": (5.0, 1.5, 0.03), "musa_okumoto": (6.0, 0.05)}


@pytest.mark.parametrize("family", FAMILIES)
def test_mixed_units_match_reference(family):
    units = mixed_units()
    model = BaselineIntensityModel(family, FIXED_THETA[family])
    reference = DenseReference(units)
    assert_close(log_likelihood(units, model), reference.log_lik(model))


def test_event_in_zero_rate_segment_raises():
    table = MonthTable(build_months(n=3))
    derived = derive_exposure([MileageRow("M", "V", (3.1, 0.0, 4.5))], table)[0]
    # day 31 closes the first month; day 32 opens the unexposed second
    ok = EventSeries("a", [31.0], table.tau, derived)
    bad = EventSeries("b", [32.0], table.tau, derived)
    model = BaselineIntensityModel("hpp", (1.0,))
    assert np.isfinite(log_likelihood([ok], model))
    with pytest.raises(DataInconsistencyError, match="t=32"):
        log_likelihood([ok, bad], model)


@pytest.mark.parametrize("family", FAMILIES)
def test_fits_report_the_reference_log_likelihood(family):
    model = BaselineIntensityModel("power_law", (1.3, 30.0))
    exposures = [u.exposure for u in mixed_units()[:4]]
    units = simulate_fleet(model, exposures, exposures[0].tau, seed=4)
    reference = DenseReference(units)
    fit = fit_mle(units, family, multistarts=2)
    assert_close(fit.log_lik, reference.log_lik(fit.model))
    times = np.sort(np.concatenate([u.event_times for u in units]))
    fleet = fit_manufacturer_level(times, exposures, family, multistarts=2)
    fleet_unit = EventSeries("fleet", times, units[0].tau, sum_schedules(exposures))
    assert_close(fleet.log_lik, DenseReference([fleet_unit]).log_lik(fleet.model))


# ---------------------------------------------------------------------------
# search objectives against the model-building path


def reference_terms(packed, model):
    """The event term and the compensator of ``_Packed.log_lik_theta``
    through the validating public functions, or None where the intensity
    is not positive at some event."""
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        lam0 = baseline_intensity(model, packed.event_times)
        if (lam0 <= 0).any():
            return None
        event_term = float(np.dot(packed.event_counts, np.log(lam0))) + packed.log_exposure_sum
        cum = cumulative_baseline(model, packed.grid)
        return event_term, float(packed.interval_rate
                                 @ (cum[packed.interval_hi] - cum[packed.interval_lo]))


def at_unit_amplitude(family, z):
    """The validated model at amplitude 1, at z = log phi."""
    phi = tuple(np.exp(z))
    return BaselineIntensityModel(family, (phi[0], 1.0) if family == "power_law"
                                  else (1.0, *phi))


def reference_profile_objective(packed, family):
    """The negative log-likelihood at z = log phi, maximized over the
    amplitude A in closed form: a validated model at A = 1 per call, and
    A = N / C with C its compensator, refused where log theta1 (log scale
    for power_law) leaves [-300, 300]."""
    n = packed.n_events

    def negloglik_z(z):
        if np.any(np.abs(z) > 300):
            return np.inf
        model = at_unit_amplitude(family, z)
        terms = reference_terms(packed, model)
        if terms is None or not 0.0 < terms[1] < np.inf:
            return np.inf
        event_term, compensator = terms
        log_amplitude = math.log(n) - math.log(compensator)
        if family == "power_law":
            log_amplitude = -log_amplitude / model.theta[0]
        if abs(log_amplitude) > 300:
            return np.inf
        value = n * math.log(compensator) - event_term - (n * math.log(n) - n)
        return value if np.isfinite(value) else np.inf

    return negloglik_z


def fleet_of(units):
    times = np.sort(np.concatenate([u.event_times for u in units]))
    fleet = sum_schedules([u.exposure for u in units])
    return [EventSeries("fleet", times, fleet.tau, fleet)]


Z = st.floats(-300.0, 300.0) | st.floats(-6.0, 6.0) | st.sampled_from(
    [300.0, -300.0, np.nextafter(300.0, 301.0), -301.0, 709.0, -745.0])


def assert_profile_matches_reference(packed, family, draws):
    """``_Profile``'s value at each drawn z against the reference's: within
    ``PROFILE_RTOL`` relative where the reference is finite, and anything
    but NaN where it overflowed to inf."""
    objective = _Profile(packed, family)
    reference = reference_profile_objective(packed, family)
    for z in draws:
        want, got = reference(z), objective(z)[0]
        assert not np.isnan(got), z
        if np.isfinite(want):
            assert abs(got - want) <= PROFILE_RTOL * abs(want), z


def draw_zs(data, n):
    return [np.array(data.draw(st.lists(Z, min_size=n, max_size=n))) for _ in range(3)]


@PROPERTY
@given(data=st.data(), family=st.sampled_from(FAMILIES[1:]))
def test_search_objectives_equal_model_building_path(data, family):
    units = data.draw(unit_lists())
    assume(any(u.n_events for u in units))  # the fitters refuse units without events
    k = len(FAMILY_PARAMS[family]) - 1
    for packed in (_Packed(units), _Packed(fleet_of(units))):
        assert_profile_matches_reference(packed, family, draw_zs(data, k))


def test_breakpoints_after_the_last_exposure_do_not_enter_the_profile():
    # S(62) = 62**179.5 overflows, but no exposed interval reaches day 62
    exposure = ExposureSchedule("u", np.array([0.0, 31.0, 62.0]), np.array([0.5, 0.0]), 62.0)
    packed = _Packed([EventSeries("u", [20.0, 29.0, 30.0], 62.0, exposure)])
    z = np.array([math.log(179.5)])
    want = reference_profile_objective(packed, "power_law")(z)
    assert np.isfinite(want)
    assert _Profile(packed, "power_law")(z)[0] == pytest.approx(want, rel=PROFILE_RTOL)


@pytest.mark.parametrize("family", FAMILIES[1:])
def test_search_path_equals_model_building_path(family):
    model = BaselineIntensityModel("power_law", (1.3, 30.0))
    exposures = [u.exposure for u in mixed_units()[:4]]
    packed = _Packed(simulate_fleet(model, exposures, exposures[0].tau, seed=4))
    start = [np.delete(np.log(FIXED_THETA[family]), _AMPLITUDE[family])]
    got = maximize(_Profile(packed, family), start, 1e-8, 300)
    want = maximize(reference_profile_objective(packed, family), start, 1e-8, 300)
    assert got[0] == pytest.approx(want[0], rel=OPTIMUM_RTOL, abs=0.0)
    assert got[2] and want[2]
    # on this fleet the gompertz and musa_okumoto fits run along a ridge, the
    # second to its theta2 -> 0 limit, where theta1 * theta2 is all the data fix
    if family not in ("gompertz", "musa_okumoto"):
        assert np.allclose(np.exp(got[1]), np.exp(want[1]), rtol=POINT_RTOL, atol=0.0)
