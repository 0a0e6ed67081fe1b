from unittest import mock

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import kstest

from aireliab import datasets, simulate
from aireliab._optim import maximize, starts
from aireliab.datasets import constant_exposure
from aireliab.propagation import (
    DEFAULT_SOURCES,
    TOLERANCE,
    EPModel,
    InjectionWindow,
    ModuleEventLog,
    compensator_transform,
    ep_intensity,
    ep_log_likelihood,
    evaluate_mae,
    expected_counts,
    fit_ep,
    fit_independent_hpp,
    fit_independent_nhpp,
    _module_objective,
)
from aireliab.recurrent import BaselineIntensityModel, EventSeries, fit_mle
from aireliab.simulate import simulate_ep_cascade
from aireliab._rng import derive_seed


def two_module_model(jump=2.0, decay=1.0):
    return EPModel({"a": (1.0, 1.0), "b": (1.0, 1.0)}, {("b", "a"): (jump, decay)})


def test_intensity_hand_value():
    model = two_module_model()
    log = ModuleEventLog({"a": np.array([1.0]), "b": np.array([])}, 5.0, {"b": ("a",)})
    assert ep_intensity(model, log, "b", 2.0) == pytest.approx(1 + 2 * np.exp(-1), abs=1e-12)


def test_intensity_zero_jumps_equal_baseline():
    model = two_module_model(jump=0.0)
    log = ModuleEventLog({"a": np.array([0.3, 0.6]), "b": np.array([])}, 5.0, {"b": ("a",)})
    for t in (0.5, 1.0, 4.9):
        assert ep_intensity(model, log, "b", t) == pytest.approx(1.0, abs=1e-15)


def test_triggering_decays_to_baseline():
    model = two_module_model()
    log = ModuleEventLog({"a": np.array([1.0]), "b": np.array([])}, 100.0, {"b": ("a",)})
    assert ep_intensity(model, log, "b", 60.0) == pytest.approx(1.0, abs=1e-12)


def test_unknown_module_rejected():
    model = two_module_model()
    log = ModuleEventLog({"a": np.array([1.0])}, 5.0)
    with pytest.raises(KeyError):
        ep_intensity(model, log, "zzz", 1.0)


def test_cycle_rejected():
    with pytest.raises(ValueError, match="cycle"):
        ModuleEventLog({"a": np.array([]), "b": np.array([])}, 5.0,
                       {"a": ("b",), "b": ("a",)})


def test_loglik_alpha_zero_decomposes_into_nhpp():
    model = EPModel({"a": (1.2, 2.0), "b": (0.8, 3.0)}, {("b", "a"): (0.0, 1.0)})
    log = ModuleEventLog({"a": np.array([0.5, 2.0]), "b": np.array([1.0, 2.5, 4.0])},
                         5.0, {"b": ("a",)})
    total = ep_log_likelihood(model, log)
    separate = 0.0
    from aireliab.recurrent import log_likelihood

    for name in ("a", "b"):
        series = EventSeries(name, log.events[name], 5.0, constant_exposure(1.0, 5.0))
        separate += log_likelihood([series], BaselineIntensityModel("power_law",
                                                                    model.baseline[name]))
    assert total == pytest.approx(separate, abs=1e-10)


def test_loglik_empty_log_is_negative_compensator():
    model = two_module_model()
    log = ModuleEventLog({"a": np.array([]), "b": np.array([])}, 5.0, {"b": ("a",)})
    assert ep_log_likelihood(model, log) == pytest.approx(-2 * 5.0, abs=1e-12)


def test_loglik_matches_quadrature_oracle():
    model = EPModel({"a": (1.3, 2.0), "b": (0.9, 2.5)}, {("b", "a"): (1.7, 0.8)})
    log = ModuleEventLog({"a": np.array([0.7, 2.2]), "b": np.array([1.0, 2.6, 4.4])},
                         6.0, {"b": ("a",)})
    oracle = 0.0
    for module in ("a", "b"):
        for t in log.events[module]:
            oracle += np.log(ep_intensity(model, log, module, float(t)))
        comp = quad(lambda t: ep_intensity(model, log, module, t), 0.0, 6.0,
                    points=list(log.events["a"]), limit=400)[0]
        oracle -= comp
    assert ep_log_likelihood(model, log) == pytest.approx(oracle, abs=1e-7)


def test_compensator_monotone():
    model = two_module_model()
    log = ModuleEventLog({"a": np.array([0.5, 1.5, 3.0]), "b": np.array([])},
                         8.0, {"b": ("a",)})
    grid = np.linspace(0.0, 8.0, 200)
    values = expected_counts(model, log, "b", grid)
    assert np.all(np.diff(values) >= -1e-12)


def cascade(seed, *, jump=2.0, decay=1.0, windows=20.0, loc_scale=2.0):
    truth = EPModel(
        {"2d": (1.0, 2.0), "3d": (1.0, 2.0), "localization": (1.0, loc_scale)},
        {("localization", "2d"): (jump, decay), ("localization", "3d"): (jump, decay)},
    )
    return truth, simulate_ep_cascade(truth, DEFAULT_SOURCES, windows, seed=seed)


def test_fit_single_module_reduces_to_recurrent_fit():
    model = BaselineIntensityModel("power_law", (1.4, 3.0))
    from aireliab.simulate import simulate_nhpp

    series = simulate_nhpp(model, constant_exposure(1.0, 20.0), 20.0, seed=13)
    log = ModuleEventLog({"m": series.event_times}, 20.0)
    ep_fit = fit_ep(log)
    # fit_ep's default of 3 starts: fit_mle's default of 5 jitters other ones
    plain = fit_mle([series], "power_law", multistarts=3)
    assert ep_fit.model.baseline["m"] == plain.model.theta
    assert ep_fit.log_lik == pytest.approx(plain.log_lik, rel=1e-12, abs=0.0)


def test_nesting_ep_contains_independent_nhpp():
    _, log = cascade(21)
    logs = [log, cascade(22)[1]]
    ep = fit_ep(logs)
    nh = fit_independent_nhpp(logs)
    assert ep.log_lik >= nh.log_lik - 1e-8


def fit_bits(fit):
    """Every fitted number of an EPFit, as raw bits, in module order."""
    values = [v for m, params in fit.model.baseline.items() for v in (*params, fit.per_module[m])]
    return np.array(values + [fit.log_lik, fit.aic]).view(np.int64)


def own_search_loglik(module, logs, multistarts=3, max_iter=4000):
    """The log-likelihood of ``module`` without in-edges from the simplex
    search of (log shape, log scale) that fitted such modules inside
    ``propagation`` before they went through ``recurrent.fit_mle``: its
    objective, seed and starts."""
    n_own = sum(len(log.events[module]) for log in logs)
    negloglik, _ = _module_objective(module, logs, ())
    seed = [0.0, np.log(float(sum(log.window for log in logs)) / n_own)]
    fun, *_ = maximize(negloglik, starts(seed, multistarts, 0.5, key=2024), TOLERANCE, max_iter)
    return -fun


@pytest.fixture(scope="module", params=["bundled", "W200", "windows-8-20"])
def edge_free_logs(request, data_dir):
    if request.param == "bundled":
        records = datasets.load(data_dir / "module-errors" / "module_errors.csv", "module_error")
        return list(simulate.module_event_log(records).values())
    if request.param == "W200":
        return [cascade(25, windows=200.0)[1], cascade(26, windows=200.0)[1]]
    # logs of unequal windows, the short one with an event just past its
    # window end, which ModuleEventLog accepts
    short, long = cascade(27, windows=8.0)[1], cascade(28, windows=20.0)[1]
    events = {**short.events, "2d": np.append(short.events["2d"], 8.0 + 5e-10)}
    return [ModuleEventLog(events, 8.0, short.sources), long]


@pytest.mark.parametrize("fitter", [fit_ep, fit_independent_nhpp])
def test_edge_free_modules_reach_the_own_search(edge_free_logs, fitter):
    fit = fitter(edge_free_logs)
    targets = {tgt for tgt, _ in fit.model.edges}
    free = [m for m in fit.model.baseline if m not in targets]
    assert free
    for module in free:
        own = own_search_loglik(module, edge_free_logs)
        assert fit.per_module[module] >= own - 1e-12 * abs(own)


def test_time_rescaling_ks_under_true_model():
    truth = EPModel(
        {"2d": (1.0, 1.0), "3d": (1.0, 1.0), "localization": (1.0, 2.0)},
        {("localization", "2d"): (1.5, 1.0), ("localization", "3d"): (1.5, 1.0)},
    )
    passed = 0
    reps = 100
    for rep in range(reps):
        log = simulate_ep_cascade(truth, DEFAULT_SOURCES, 20.0, seed=derive_seed(400, rep))
        gaps = np.concatenate([
            compensator_transform(truth, log, m) for m in log.modules
            if log.n_events(m) >= 2
        ])
        if len(gaps) < 10:
            continue
        if kstest(gaps, "expon").pvalue > 0.01:
            passed += 1
    assert passed >= 0.95 * reps, f"only {passed}/{reps} replicates passed"


def test_fit_alpha_zero_world():
    # dense source streams against a sparse downstream module pin the
    # spurious-triggering estimate near zero
    truth = EPModel(
        {"2d": (1.0, 0.1), "3d": (1.0, 0.1), "localization": (1.0, 4.0)},
        {("localization", "2d"): (0.0, 1.0), ("localization", "3d"): (0.0, 1.0)},
    )
    hits = 0
    for rep in range(20):
        logs = [simulate_ep_cascade(truth, DEFAULT_SOURCES, 20.0,
                                    seed=derive_seed(500 + rep, i)) for i in range(10)]
        fit = fit_ep(logs, multistarts=2)
        jumps = [v[0] for v in fit.model.edges.values()]
        if max(jumps) <= 0.05:
            hits += 1
    assert hits >= 18, f"jump shrank to zero in only {hits}/20 replicates"


def test_fit_alpha_gamma_recovery():
    # jump 2, decay 1; median over 20 replicates of 50-scenario fits
    errs_j, errs_d = [], []
    for rep in range(20):
        logs = [cascade(derive_seed(600 + rep, i), loc_scale=4.0)[1] for i in range(50)]
        fit = fit_ep(logs, multistarts=2)
        jumps = np.array([v[0] for v in fit.model.edges.values()])
        decays = np.array([v[1] for v in fit.model.edges.values()])
        errs_j.append(np.mean(np.abs(jumps - 2.0) / 2.0))
        errs_d.append(np.mean(np.abs(decays - 1.0) / 1.0))
    assert np.median(errs_j) < 0.25, f"jump error {np.median(errs_j):.3f}"
    assert np.median(errs_d) < 0.25, f"decay error {np.median(errs_d):.3f}"


# the bundled EP truth of demos/build_sample_data.py
BUNDLED_TRUTH = EPModel(
    {"2d": (1.1, 0.9), "3d": (1.0, 1.0), "localization": (1.0, 2.5)},
    {("localization", "2d"): (1.5, 1.2), ("localization", "3d"): (1.5, 1.2)},
)


def localization_only(model):
    return EPModel({"localization": model.baseline["localization"]},
                   {key: v for key, v in model.edges.items() if key[0] == "localization"})


@pytest.mark.parametrize("seed", range(4))
def test_fit_reaches_generator_loglik_at_w100(seed):
    # a decay search started below its clip used to stall there once W >= 100
    window = 100.0
    logs = [
        simulate_ep_cascade(BUNDLED_TRUTH, DEFAULT_SOURCES, window,
                            {m: InjectionWindow(start, window, 0.8) for m in ("2d", "3d")},
                            seed=derive_seed(seed, i))
        for i, start in enumerate((0.0, window / 2))
    ]
    fitted = ep_log_likelihood(localization_only(fit_ep(logs).model), logs)
    generator = ep_log_likelihood(localization_only(BUNDLED_TRUTH), logs)
    assert fitted >= generator - 1e-6 * abs(generator)


def test_evaluate_mae_perfect_prediction_is_zero():
    _, log = cascade(31)

    def oracle(one_log, module, grid):
        return np.searchsorted(one_log.events[module], grid, side="right")

    assert evaluate_mae(oracle, [log], np.linspace(1.0, 20.0, 10)) == 0.0


def test_evaluate_mae_empty_grid_rejected():
    _, log = cascade(32)
    with pytest.raises(ValueError):
        evaluate_mae(lambda *a: np.array([]), [log], [])


def test_mae_alpha_zero_world_ep_close_to_nhpp():
    train = [cascade(derive_seed(700, i), jump=0.0)[1] for i in range(10)]
    held = [cascade(derive_seed(701, i), jump=0.0)[1] for i in range(10)]
    ep = fit_ep(train, multistarts=2)
    nh = fit_independent_nhpp(train, multistarts=2)
    grid = np.linspace(2.0, 20.0, 10)
    mae_ep = evaluate_mae(ep.model, held, grid)
    mae_nh = evaluate_mae(nh.model, held, grid)
    assert abs(mae_ep - mae_nh) / mae_nh < 0.10


def test_hpp_fit_closed_form():
    log = ModuleEventLog({"m": np.array([1.0, 4.0, 9.0])}, 10.0)
    fit = fit_independent_hpp([log])
    shape, scale = fit.model.baseline["m"]
    assert shape == 1.0
    assert 1.0 / scale == pytest.approx(0.3, abs=1e-14)


FITTERS = [fit_ep, fit_independent_nhpp, fit_independent_hpp]


@pytest.mark.parametrize("fitter", FITTERS)
def test_fitters_reject_no_logs(fitter):
    with pytest.raises(ValueError, match="no logs supplied"):
        fitter([])


@pytest.mark.parametrize("fitter", FITTERS)
def test_fitters_name_the_first_log_unlike_log_0(fitter):
    # the fit once took its modules and sources from log 0 alone, so its
    # result hung on the order of the logs: [a, b] dropped b's module z,
    # [b, a] dropped a's edge y <- x
    events = {"x": [1.0, 2.0, 3.5], "y": [1.5, 2.5, 4.0]}
    a = ModuleEventLog(events, 5.0, {"y": ("x",)})
    b = ModuleEventLog({**events, "z": [2.2, 4.1]}, 5.0, {"z": ("x",)})
    no_edges = ModuleEventLog(events, 5.0)
    with pytest.raises(ValueError, match=r"log 1 holds modules \['x', 'y', 'z'\]"):
        fitter([a, b])
    with pytest.raises(ValueError, match=r"log 1 holds modules \['x', 'y'\]"):
        fitter([b, a])
    with pytest.raises(ValueError, match="log 2 has sources"):
        fitter([a, a, no_edges])


def test_nhpp_equals_ep_fit_of_the_logs_without_sources():
    # fit_independent_nhpp once stripped the sources from the logs and
    # called fit_ep; its own per-module loop must give the same fit
    logs = [cascade(23)[1], cascade(24)[1]]
    nh = fit_independent_nhpp(logs, multistarts=2, max_iter=600)
    ep = fit_ep([ModuleEventLog(log.events, log.window) for log in logs],
                multistarts=2, max_iter=600)
    assert not ep.model.edges and not nh.model.edges
    assert np.array_equal(fit_bits(nh), fit_bits(ep))
    assert (nh.converged, nh.iterations) == (ep.converged, ep.iterations)
    with pytest.raises(TypeError):
        fit_independent_nhpp(logs, tolerance=1e-3)


@pytest.mark.parametrize("baseline, edge", [
    ((np.nan, 1.0), (1.0, 1.0)),
    ((1.0, np.inf), (1.0, 1.0)),
    ((1.0, 1.0), (np.inf, 1.0)),
    ((1.0, 1.0), (float("1e400"), 1.0)),
    ((1.0, 1.0), (np.nan, 1.0)),
    ((1.0, 1.0), (1.0, np.nan)),
    ((1.0, 1.0), (1.0, np.inf)),
])
def test_ep_model_rejects_non_finite_parameters(baseline, edge):
    name = "module b" if baseline != (1.0, 1.0) else "edge a->b"
    with pytest.raises(ValueError, match=name):
        EPModel({"a": (1.0, 1.0), "b": baseline}, {("b", "a"): edge})


@pytest.mark.parametrize("events, window, message", [
    ({"m": [1.0, np.nan, 3.0]}, 5.0, "module m: event times must be finite"),
    ({"m": []}, -5.0, "window must be finite and > 0"),
    ({"m": [1.0]}, np.inf, "window must be finite and > 0"),
    ({"m": [1.0]}, np.nan, "window must be finite and > 0"),
    ({"m": []}, 0.0, "window must be finite and > 0"),
])
def test_module_event_log_rejects_bad_times_and_windows(events, window, message):
    with pytest.raises(ValueError, match=message):
        ModuleEventLog(events, window)


@pytest.mark.parametrize("window", [np.inf, np.nan, 0.0, -1.0])
def test_cascade_checks_its_window_before_drawing(window):
    # an infinite window gives the downstream module a last segment with
    # no end, so a draw would never stop: the check must come first
    with mock.patch.object(simulate, "make_rng", side_effect=AssertionError("drew events")):
        with pytest.raises(ValueError, match="window must be finite and > 0"):
            simulate_ep_cascade(BUNDLED_TRUTH, DEFAULT_SOURCES, window, seed=1)
