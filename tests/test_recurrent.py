import re
import warnings

import numpy as np
import pytest
from scipy.integrate import quad

from aireliab.datasets import ExposureSchedule, constant_exposure
from aireliab.recurrent import (
    BaselineIntensityModel,
    DataInconsistencyError,
    EventSeries,
    baseline_intensity,
    check_event_times,
    cumulative_baseline,
    fit_manufacturer_level,
    fit_mle,
    log_likelihood,
)
from aireliab.propagation import ModuleEventLog
from aireliab.simulate import simulate_fleet
from aireliab._rng import derive_seed

from conftest import unit_exposures

SAMPLE_MODELS = {
    "hpp": (0.7,),
    "power_law": (1.5, 10.0),
    "weibull_growth": (5.0, 0.05, 1.3),
    "gompertz": (4.0, 2.0, 0.1),
    "musa_okumoto": (3.0, 0.2),
}


def test_weibull_growth_exponential_limit():
    # theta3 = 1 reduces to theta1 * theta2 * exp(-theta2 t); right limit at 0
    model = BaselineIntensityModel("weibull_growth", (2.0, 0.5, 1.0))
    assert baseline_intensity(model, 1e-12) == pytest.approx(1.0, abs=1e-9)


def test_power_law_constant_case():
    model = BaselineIntensityModel("power_law", (1.0, 2.0))
    for t in (0.1, 1.0, 57.0):
        assert baseline_intensity(model, t) == pytest.approx(0.5, abs=1e-15)


def test_weibull_growth_hand_value():
    # derived by evaluating the closed form and cross-checked against the
    # numerical derivative of the cumulative baseline
    model = BaselineIntensityModel("weibull_growth", (1.0, 1.0, 2.0))
    val = baseline_intensity(model, 1.0)
    assert val == pytest.approx(2.0 * np.exp(-1.0), abs=1e-12)
    h = 1e-6
    numeric = (cumulative_baseline(model, 1 + h) - cumulative_baseline(model, 1 - h)) / (2 * h)
    assert val == pytest.approx(numeric, rel=1e-8)


def test_cumulative_baseline_trivial_values():
    for family, theta in SAMPLE_MODELS.items():
        model = BaselineIntensityModel(family, theta)
        assert cumulative_baseline(model, 0.0) == 0.0
    wg = BaselineIntensityModel("weibull_growth", (2.0, 0.5, 1.0))
    assert cumulative_baseline(wg, 1e9) == pytest.approx(2.0, abs=1e-12)
    pl = BaselineIntensityModel("power_law", (2.0, 10.0))
    assert cumulative_baseline(pl, 10.0) == pytest.approx(1.0, abs=1e-15)


def test_invalid_parameters_rejected():
    with pytest.raises(ValueError):
        BaselineIntensityModel("power_law", (1.0, -2.0))
    with pytest.raises(ValueError):
        BaselineIntensityModel("weibull_growth", (1.0, 1.0))
    with pytest.raises(ValueError):
        BaselineIntensityModel("nope", (1.0,))
    model = BaselineIntensityModel("hpp", (1.0,))
    with pytest.raises(ValueError):
        baseline_intensity(model, 0.0)


@pytest.mark.parametrize("times", [[1.0, float("nan"), 3.0], [float("nan")]])
def test_non_finite_event_times_rejected(times):
    # a NaN passes the ascending and (0, tau] checks, and a fit on it used
    # to report convergence at a finite log-likelihood
    with pytest.raises(ValueError, match="finite"):
        EventSeries("u", times, 5.0, constant_exposure(1.0, 5.0))


@pytest.mark.parametrize("tau", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_tau_rejected(tau):
    # a NaN passes the horizon and (0, tau] checks, and a shaped fit on it
    # used to fail at every start, from the moment seed
    with pytest.raises(ValueError, match="tau must be finite"):
        EventSeries("a", [1.0], tau, constant_exposure(1.0, 10.0))


UNSORTED, TOO_LATE, AT_ZERO = [2.0, 1.0], [1.0, 6.0], [0.0, 1.0]
NOT_ASCENDING = "event times must be ascending (ties allowed)"
OUT_OF_RANGE = "event times must lie in (0, tau]"


@pytest.mark.parametrize("times, message", [
    (UNSORTED, NOT_ASCENDING), (TOO_LATE, OUT_OF_RANGE), (AT_ZERO, OUT_OF_RANGE),
], ids=["unsorted", "after tau", "at zero"])
@pytest.mark.parametrize("build, prefix", [
    (lambda times: EventSeries("u", times, 5.0, constant_exposure(1.0, 5.0)), ""),
    (lambda times: ModuleEventLog({"a": np.array([1.0]), "b": np.array(times)}, 5.0),
     "module b: "),
    (lambda times: check_event_times(np.array(times), 5.0, same_unit=np.array([True])), ""),
], ids=["EventSeries", "ModuleEventLog", "fleet"])
def test_event_times_out_of_order_or_range_rejected(times, message, build, prefix):
    with pytest.raises(ValueError, match=re.escape(prefix + message) + "$"):
        build(times)


def test_fleet_times_descend_only_between_units():
    # two units' times laid end to end: 3 -> 1 crosses units and passes,
    # 1 -> 0.5 lies inside the second unit
    times = np.array([3.0, 5.0, 1.0, 0.5])
    check_event_times(times, 5.0, same_unit=np.array([True, False, False]))
    with pytest.raises(ValueError, match=re.escape(NOT_ASCENDING)):
        check_event_times(times, 5.0, same_unit=np.array([True, False, True]))


@pytest.mark.parametrize("build, message", [
    (lambda: EventSeries("u", [[1.0, 2.0]], 5.0, constant_exposure(1.0, 5.0)),
     "event_times must be one-dimensional"),
    (lambda: EventSeries("u", [1.0], 5.0, constant_exposure(1.0, 6.0)),
     "exposure horizon does not match tau"),
    (lambda: fit_mle([], "power_law"), "no units supplied"),
    (lambda: fit_mle([EventSeries("u", [1.0], 5.0, constant_exposure(1.0, 5.0))], "linear"),
     "unknown family 'linear'"),
], ids=["2-D times", "horizon", "no units", "unknown family"])
def test_series_and_fit_inputs_rejected(build, message):
    with pytest.raises(ValueError, match=re.escape(message) + "$"):
        build()


def test_log_likelihood_hpp_closed_form():
    rate, x, tau = 0.5, 2.0, 10.0
    series = EventSeries("u", [1.0, 3.0, 7.0], tau, constant_exposure(x, tau))
    model = BaselineIntensityModel("hpp", (rate,))
    expected = 3 * np.log(rate * x) - rate * x * tau
    assert log_likelihood([series], model) == pytest.approx(expected, abs=1e-12)


def test_log_likelihood_zero_events():
    tau = 8.0
    units = [
        EventSeries("a", [], tau, constant_exposure(1.0, tau)),
        EventSeries("b", [], tau, constant_exposure(3.0, tau)),
    ]
    for family, theta in SAMPLE_MODELS.items():
        model = BaselineIntensityModel(family, theta)
        total = sum(
            u.exposure.daily_rate[0] * cumulative_baseline(model, tau) for u in units
        )
        assert log_likelihood(units, model) == pytest.approx(-total, rel=1e-12)


def test_log_likelihood_matches_quadrature_oracle():
    # piecewise exposure, three events, compensator via brute-force quadrature
    tau = 12.0
    exposure = ExposureSchedule("u", np.array([0.0, 4.0, 8.0, 12.0]),
                                np.array([1.5, 0.5, 2.0]), tau)
    series = EventSeries("u", [1.0, 5.5, 11.0], tau, exposure)
    model = BaselineIntensityModel("weibull_growth", (5.0, 0.05, 1.3))

    lam = lambda t: baseline_intensity(model, t) * float(exposure.rate_at(t))
    integral = sum(
        quad(lam, a, b, limit=200)[0]
        for a, b in zip(exposure.breakpoints[:-1], exposure.breakpoints[1:])
    )
    oracle = sum(np.log(lam(t)) for t in series.event_times) - integral
    assert log_likelihood([series], model) == pytest.approx(oracle, abs=1e-8)


def test_event_during_zero_exposure_reported():
    tau = 10.0
    exposure = ExposureSchedule("u", np.array([0.0, 5.0, 10.0]),
                                np.array([0.0, 1.0]), tau)
    series = EventSeries("u", [2.0], tau, exposure)
    with pytest.raises(DataInconsistencyError):
        log_likelihood([series], BaselineIntensityModel("hpp", (1.0,)))


def test_fit_hpp_closed_form():
    tau = 20.0
    units = [
        EventSeries("a", [1.0, 2.0, 15.0], tau, constant_exposure(2.0, tau)),
        EventSeries("b", [4.0], tau, constant_exposure(0.5, tau)),
        EventSeries("c", [], tau, constant_exposure(1.0, tau)),
    ]
    total_exposure = (2.0 + 0.5 + 1.0) * tau
    fit = fit_mle(units, "hpp")
    assert fit.model.theta[0] == pytest.approx(4 / total_exposure, abs=1e-14)
    assert fit.converged
    assert fit.aic == pytest.approx(2 - 2 * fit.log_lik, abs=1e-12)


def test_mle_beats_random_perturbations():
    model = BaselineIntensityModel("power_law", (1.5, 10.0))
    units = simulate_fleet(model, unit_exposures(50, 20.0), 20.0, seed=7)
    fit = fit_mle(units, "power_law")
    theta_hat = np.array(fit.model.theta)
    rng = np.random.default_rng(11)
    for _ in range(100):
        theta = theta_hat * np.exp(rng.normal(0.0, 0.2, size=2))
        ll = log_likelihood(units, BaselineIntensityModel("power_law", tuple(theta)))
        assert ll <= fit.log_lik + 1e-9


def test_time_unit_equivariance_hpp():
    tau, c = 10.0, 3.7
    units = [EventSeries("a", [1.0, 4.0, 9.0], tau, constant_exposure(1.0, tau))]
    fit = fit_mle(units, "hpp")
    scaled = [EventSeries("a", [c * t for t in (1.0, 4.0, 9.0)], c * tau,
                          constant_exposure(1.0, c * tau))]
    fit_scaled = fit_mle(scaled, "hpp")
    n = 3
    assert fit_scaled.log_lik == pytest.approx(fit.log_lik - n * np.log(c), abs=1e-10)
    # fitted expected count over the window is invariant (equals n exactly)
    for f, du in ((fit, units), (fit_scaled, scaled)):
        expected = f.model.theta[0] * du[0].exposure.total()
        assert expected == pytest.approx(n, abs=1e-10)


def test_fit_manufacturer_single_vehicle_matches_fit_mle():
    model = BaselineIntensityModel("power_law", (1.4, 12.0))
    units = simulate_fleet(model, unit_exposures(1, 25.0, rate=1.3), 25.0, seed=3)
    direct = fit_mle(units, "power_law")
    fleet = fit_manufacturer_level(units[0].event_times, [units[0].exposure], "power_law")
    assert fleet.log_lik == pytest.approx(direct.log_lik, abs=1e-6)
    assert np.allclose(fleet.model.theta, direct.model.theta, rtol=1e-4)


def test_fit_manufacturer_two_identical_vehicles_halves_hpp_rate():
    tau = 30.0
    times = np.array([2.0, 9.0, 11.0, 20.0, 27.0])
    one = fit_manufacturer_level(times, [constant_exposure(1.0, tau)], "hpp")
    two = fit_manufacturer_level(
        times, [constant_exposure(1.0, tau, "a"), constant_exposure(1.0, tau, "b")], "hpp"
    )
    assert two.model.theta[0] == pytest.approx(one.model.theta[0] / 2.0, abs=1e-14)


def test_expected_count_matches_observed_mean():
    # fitted expected counts track the observed per-unit mean at 200 units
    model = BaselineIntensityModel("power_law", (1.5, 10.0))
    units = simulate_fleet(model, unit_exposures(200, 20.0), 20.0, seed=17)
    fit = fit_mle(units, "power_law")
    expected = cumulative_baseline(fit.model, 20.0)  # unit exposure
    observed = np.mean([u.n_events for u in units])
    assert abs(expected - observed) / observed < 0.05


def test_bundled_disengagement_bifs_decrease_for_waymo_and_cruise(data_dir):
    from aireliab import datasets
    from aireliab.simulate import event_series_from_disengagements

    months = datasets.MonthTable(
        datasets.load(data_dir / "disengagements" / "months.csv", "month"))
    mileage = datasets.load(data_dir / "disengagements" / "mileage.csv", "mileage")
    events = datasets.load(data_dir / "disengagements" / "disengagements.csv",
                           "disengagement")
    for maker in ("Waymo", "Cruise"):
        units = event_series_from_disengagements(events, mileage, months, maker)
        fit = fit_mle(units, "weibull_growth")
        grid = np.linspace(1.0, 730.0, 400)
        bif = baseline_intensity(fit.model, grid)
        assert np.all(np.diff(bif) < 0), f"{maker}: fitted intensity not decreasing"


def test_all_families_fit_simulated_data():
    for idx, (family, theta) in enumerate(SAMPLE_MODELS.items()):
        model = BaselineIntensityModel(family, theta)
        units = simulate_fleet(model, unit_exposures(80, 20.0), 20.0,
                               seed=derive_seed(55, idx))
        fit = fit_mle(units, family, multistarts=3)
        assert fit.converged, family
        assert np.all(np.isfinite(fit.model.theta)), family
        # the fit reproduces the total expected count to within sampling noise
        n = sum(u.n_events for u in units)
        fitted_total = 80 * cumulative_baseline(fit.model, 20.0)
        assert abs(fitted_total - n) / n < 0.25, family


def test_an_optimum_where_the_shape_overflows_fits_without_warnings():
    # one early event in a long window sends weibull_growth's shape to an
    # optimum where t ** t3 overflows; mapping it back to theta must not warn
    units = [EventSeries("u0", [3.0], 30.0, constant_exposure(1.0, 30.0))]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        fit = fit_mle(units, "weibull_growth")
    assert [float(v).hex() for v in fit.model.theta] == [
        "0x1.0000000000000p+0", "0x1.c6b177a879bb1p-433", "0x1.10bb76dbe3e1dp+8"]
    assert fit.log_lik.hex() == "0x1.40f470f83fd86p+1"
