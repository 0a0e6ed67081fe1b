"""Every fitter reports the log-likelihood function of the model it returns.

A fit's ``log_lik`` (and, for the EP fitters, each ``per_module`` value)
must equal the package's standalone likelihood at the fitted parameters
bit for bit, so a reported number can be re-derived from the model and
the data alone.
"""

import numpy as np
import pytest

from aireliab import datasets, simulate
from aireliab._rng import derive_seed
from aireliab.datasets import sum_schedules
from aireliab.propagation import (
    DEFAULT_SOURCES,
    EPModel,
    InjectionWindow,
    ep_log_likelihood,
    fit_ep,
    fit_independent_hpp,
    fit_independent_nhpp,
)
from aireliab.recurrent import (
    FAMILIES,
    BaselineIntensityModel,
    EventSeries,
    fit_manufacturer_level,
    fit_mle,
    log_likelihood,
)

from conftest import unit_exposures

TRUTH = EPModel(
    {"2d": (1.1, 0.9), "3d": (1.0, 1.0), "localization": (1.0, 2.5)},
    {("localization", "2d"): (1.5, 1.2), ("localization", "3d"): (1.5, 1.2)},
)


def restricted(model, module):
    """``model`` cut down to ``module`` and the edges into it."""
    return EPModel({module: model.baseline[module]},
                   {key: v for key, v in model.edges.items() if key[0] == module})


@pytest.fixture(scope="module", params=["bundled", 25.0, 50.0])
def ep_case(request, data_dir):
    """Scenario logs and their EP fit."""
    if request.param == "bundled":
        records = datasets.load(data_dir / "module-errors" / "module_errors.csv", "module_error")
        logs = list(simulate.module_event_log(records).values())
    else:
        window = request.param
        logs = [
            simulate.simulate_ep_cascade(
                TRUTH, DEFAULT_SOURCES, window,
                {m: InjectionWindow(start, window, 0.8) for m in ("2d", "3d")},
                seed=derive_seed(int(window), i))
            for i, start in enumerate((0.0, window / 2))
        ]
    return logs, fit_ep(logs)


EP_FITTERS = {
    "fit_ep": lambda logs, ep: ep,
    "fit_independent_nhpp": lambda logs, ep: fit_independent_nhpp(logs),
    "fit_independent_hpp": lambda logs, ep: fit_independent_hpp(logs),
}


@pytest.mark.parametrize("fitter", EP_FITTERS)
def test_ep_fitters_report_ep_log_likelihood(ep_case, fitter):
    logs, ep = ep_case
    fit = EP_FITTERS[fitter](logs, ep)
    assert fit.log_lik == ep_log_likelihood(fit.model, logs)
    assert list(fit.per_module) == list(fit.model.baseline)
    for module, value in fit.per_module.items():
        assert value == ep_log_likelihood(restricted(fit.model, module), logs)


@pytest.fixture(scope="module")
def fleet():
    model = BaselineIntensityModel("power_law", (1.3, 8.0))
    return simulate.simulate_fleet(model, unit_exposures(30, 15.0), 15.0, seed=5)


@pytest.mark.parametrize("family", FAMILIES)
def test_fit_mle_reports_log_likelihood(fleet, family):
    fit = fit_mle(fleet, family)
    assert fit.log_lik == log_likelihood(fleet, fit.model)


@pytest.mark.parametrize("family", ("hpp", "power_law"))
def test_fit_manufacturer_level_reports_log_likelihood(fleet, family):
    times = np.sort(np.concatenate([unit.event_times for unit in fleet]))
    exposures = [unit.exposure for unit in fleet]
    fit = fit_manufacturer_level(times, exposures, family)
    total = sum_schedules(exposures)
    assert fit.log_lik == log_likelihood([EventSeries("fleet", times, total.tau, total)],
                                         fit.model)
