import numpy as np
import pytest
from scipy.stats import kstest

from aireliab.datasets import ExposureSchedule, constant_exposure
from aireliab.propagation import DEFAULT_SOURCES, EPModel, InjectionWindow
from aireliab.recurrent import BaselineIntensityModel, cumulative_baseline
from aireliab.simulate import (
    DiscreteHazard,
    intensity_supremum,
    mixture_layout,
    simulate_ep_cascade,
    simulate_fleet,
    simulate_mixture_records,
    simulate_nhpp,
    simulate_srgm_counts,
    simplex_centroid,
)
from aireliab._rng import derive_seed


def mean_counts(model, exposure, tau, reps, seed):
    return np.mean([
        simulate_nhpp(model, exposure, tau, derive_seed(seed, i)).n_events
        for i in range(reps)
    ])


def test_hpp_mean_count_within_three_se():
    rate, x, tau, reps = 0.8, 1.5, 5.0, 2000
    model = BaselineIntensityModel("hpp", (rate,))
    exposure = constant_exposure(x, tau)
    mean = mean_counts(model, exposure, tau, reps, seed=1)
    target = rate * x * tau
    se = np.sqrt(target / reps)
    assert abs(mean - target) < 3 * se, f"mean {mean}, target {target}"


def test_zero_exposure_never_generates_events():
    model = BaselineIntensityModel("power_law", (1.5, 2.0))
    exposure = constant_exposure(0.0, 10.0)
    for seed in range(5):
        assert simulate_nhpp(model, exposure, 10.0, seed).n_events == 0


def test_weibull_growth_mean_matches_cumulative_baseline():
    model = BaselineIntensityModel("weibull_growth", (6.0, 0.05, 1.4))
    tau, reps = 15.0, 2000
    exposure = constant_exposure(1.0, tau)
    mean = mean_counts(model, exposure, tau, reps, seed=2)
    target = cumulative_baseline(model, tau)
    se = np.sqrt(target / reps)
    assert abs(mean - target) < 3 * se


def test_piecewise_exposure_mean_matches_compensator():
    model = BaselineIntensityModel("musa_okumoto", (4.0, 0.3))
    exposure = ExposureSchedule("u", np.array([0.0, 3.0, 7.0, 12.0]),
                                np.array([2.0, 0.0, 0.7]), 12.0)
    reps = 2000
    target = float(np.dot(exposure.daily_rate,
                          np.diff(cumulative_baseline(model, exposure.breakpoints))))
    mean = mean_counts(model, exposure, 12.0, reps, seed=3)
    se = np.sqrt(target / reps)
    assert abs(mean - target) < 3 * se


def test_intensity_supremum_is_an_upper_bound():
    models = [
        BaselineIntensityModel("hpp", (0.4,)),
        BaselineIntensityModel("power_law", (0.7, 3.0)),
        BaselineIntensityModel("power_law", (2.5, 3.0)),
        BaselineIntensityModel("weibull_growth", (5.0, 0.1, 1.8)),
        BaselineIntensityModel("weibull_growth", (5.0, 0.1, 0.7)),
        BaselineIntensityModel("gompertz", (5.0, 3.0, 0.4)),
        BaselineIntensityModel("gompertz", (5.0, 0.5, 0.4)),
        BaselineIntensityModel("musa_okumoto", (2.0, 0.5)),
    ]
    grid_lo, grid_hi = 0.01, 18.0
    from aireliab.recurrent import baseline_intensity

    grid = np.linspace(grid_lo, grid_hi, 4001)
    for model in models:
        sup = intensity_supremum(model, grid_lo, grid_hi)
        assert sup >= np.max(baseline_intensity(model, grid)) - 1e-9, model.family


def test_seed_determinism_across_generators():
    model = BaselineIntensityModel("power_law", (1.5, 5.0))
    exposure = constant_exposure(1.0, 10.0)
    a = simulate_nhpp(model, exposure, 10.0, 99)
    b = simulate_nhpp(model, exposure, 10.0, 99)
    assert np.array_equal(a.event_times, b.event_times)

    ep = EPModel({"2d": (1.0, 1.0), "3d": (1.0, 1.0), "localization": (1.0, 2.0)},
                 {("localization", "2d"): (1.0, 1.0), ("localization", "3d"): (1.0, 1.0)})
    la = simulate_ep_cascade(ep, DEFAULT_SOURCES, 20.0, seed=5)
    lb = simulate_ep_cascade(ep, DEFAULT_SOURCES, 20.0, seed=5)
    for m in la.modules:
        assert np.array_equal(la.events[m], lb.events[m])

    sa = simulate_srgm_counts(100.0, DiscreteHazard("gm", (0.1,)), [], None, 20, 7)
    sb = simulate_srgm_counts(100.0, DiscreteHazard("gm", (0.1,)), [], None, 20, 7)
    assert np.array_equal(sa.counts, sb.counts)


def test_fleet_uses_derived_seeds():
    model = BaselineIntensityModel("hpp", (0.5,))
    fleet = simulate_fleet(model, [constant_exposure(1.0, 10.0, f"u{i}") for i in range(3)],
                           10.0, seed=4)
    # distinct substreams: the three series are not identical
    assert not (np.array_equal(fleet[0].event_times, fleet[1].event_times)
                and np.array_equal(fleet[1].event_times, fleet[2].event_times))


def test_nhpp_time_rescaling_ks():
    model = BaselineIntensityModel("weibull_growth", (30.0, 0.02, 1.3))
    exposure = constant_exposure(1.0, 20.0)
    passed = reps = 0
    for i in range(100):
        series = simulate_nhpp(model, exposure, 20.0, derive_seed(6, i))
        if series.n_events < 10:
            continue
        reps += 1
        gaps = np.diff(np.concatenate([[0.0], cumulative_baseline(model, series.event_times)]))
        if kstest(gaps, "expon").pvalue > 0.01:
            passed += 1
    assert reps >= 90
    assert passed >= 0.95 * reps, f"{passed}/{reps} replicates passed"


def test_cascade_alpha_zero_matches_independent_nhpp():
    truth = EPModel({"2d": (1.0, 1.0), "3d": (1.0, 1.0), "localization": (1.2, 2.0)},
                    {("localization", "2d"): (0.0, 1.0), ("localization", "3d"): (0.0, 1.0)})
    reps = 2000
    counts = [
        simulate_ep_cascade(truth, DEFAULT_SOURCES, 10.0,
                            seed=derive_seed(8, i)).n_events("localization")
        for i in range(reps)
    ]
    target = cumulative_baseline(BaselineIntensityModel("power_law", (1.2, 2.0)), 10.0)
    se = np.sqrt(target / reps)
    assert abs(np.mean(counts) - target) < 3 * se


def test_cascade_injection_off_silences_sources():
    ep = EPModel({"2d": (1.0, 1.0), "3d": (1.0, 1.0), "localization": (1.0, 2.0)},
                 {("localization", "2d"): (2.0, 1.0), ("localization", "3d"): (2.0, 1.0)})
    injection = {"2d": InjectionWindow(0.0, 20.0, 0.0),
                 "3d": InjectionWindow(0.0, 20.0, 0.0)}
    log = simulate_ep_cascade(ep, DEFAULT_SOURCES, 20.0, injection, seed=11)
    assert log.n_events("2d") == 0 and log.n_events("3d") == 0
    assert log.n_events("localization") > 0


def test_cascade_injection_interval_compensator_ratio():
    # mean source counts under [10, 20) vs [0, 20) track the compensator ratio
    base = BaselineIntensityModel("power_law", (1.3, 1.5))
    ep = EPModel({"2d": (1.3, 1.5), "3d": (1.3, 1.5), "localization": (1.0, 4.0)},
                 {("localization", "2d"): (0.5, 1.0), ("localization", "3d"): (0.5, 1.0)})
    reps = 2000
    prob = 0.8
    means = {}
    for label, (lo, hi) in {"late": (10.0, 20.0), "full": (0.0, 20.0)}.items():
        injection = {"2d": InjectionWindow(lo, hi, prob), "3d": InjectionWindow(lo, hi, prob)}
        counts = [
            simulate_ep_cascade(ep, DEFAULT_SOURCES, 20.0, injection,
                                seed=derive_seed(12, i)).n_events("2d")
            for i in range(reps)
        ]
        target = prob * (cumulative_baseline(base, hi) - cumulative_baseline(base, lo))
        se = np.sqrt(target / reps)
        assert abs(np.mean(counts) - target) < 3 * se, label
        means[label] = np.mean(counts)
    expected_ratio = (
        (cumulative_baseline(base, 20.0) - cumulative_baseline(base, 10.0))
        / cumulative_baseline(base, 20.0)
    )
    assert means["late"] / means["full"] == pytest.approx(expected_ratio, rel=0.1)


def test_srgm_counts_mean_within_three_se():
    omega, b, T, reps = 80.0, 0.1, 25, 2000
    hazard = DiscreteHazard("gm", (b,))
    totals = [
        simulate_srgm_counts(omega, hazard, [], None, T, derive_seed(13, i)).counts.sum()
        for i in range(reps)
    ]
    target = omega * (1.0 - (1.0 - b) ** T)
    se = np.sqrt(target / reps)
    assert abs(np.mean(totals) - target) < 3 * se


def test_srgm_counts_zero_omega_all_zero():
    series = simulate_srgm_counts(0.0, DiscreteHazard("gm", (0.1,)), [], None, 10, 1)
    assert np.all(series.counts == 0)


def test_srgm_counts_doubled_omega_doubles_totals():
    hazard = DiscreteHazard("gm", (0.1,))
    reps = 2000
    t1 = np.mean([simulate_srgm_counts(50.0, hazard, [], None, 20,
                                       derive_seed(14, i)).counts.sum()
                  for i in range(reps)])
    t2 = np.mean([simulate_srgm_counts(100.0, hazard, [], None, 20,
                                       derive_seed(15, i)).counts.sum()
                  for i in range(reps)])
    target = 50.0 * (1.0 - 0.9**20)
    se = np.sqrt(2 * target / reps) * 2
    assert abs(t2 - 2 * t1) < 3 * se


def test_mixture_layout_shape():
    x, z, c = mixture_layout()
    assert x.shape == (252, 3) and z.shape == (252, 2) and c.shape == (252, 3)
    assert np.allclose(x.sum(axis=1), 1.0, atol=1e-12)
    assert np.all(c.sum(axis=1) == 1.0)
    assert len(simplex_centroid()) == 7


def test_mixture_records_deterministic():
    coef = np.full(13, 0.4)
    a = simulate_mixture_records(coef, coef, noise_sd_y1=0.01, seed=21)
    b = simulate_mixture_records(coef, coef, noise_sd_y1=0.01, seed=21)
    assert a == b


def test_cascade_injection_past_the_window_is_named():
    ep = EPModel({"2d": (1.3, 1.5), "3d": (1.3, 1.5), "localization": (1.0, 4.0)},
                 {("localization", "2d"): (0.5, 1.0), ("localization", "3d"): (0.5, 1.0)})
    injection = {"2d": InjectionWindow(10.0, 30.0, 0.8)}
    with pytest.raises(ValueError, match="injection interval exceeds the window"):
        simulate_ep_cascade(ep, DEFAULT_SOURCES, 20.0, injection, seed=3)


def altered_module_errors(data_dir, tmp_path, changes, every=False):
    """The bundled module-error file with the last scenario-1 row's cells
    (every scenario-1 row's, with ``every``) replaced by ``changes``
    (column -> text)."""
    lines = (data_dir / "module-errors" / "module_errors.csv").read_text().splitlines()
    header = lines[0].split(",")
    rows = [i for i, line in enumerate(lines[1:], 1) if line.startswith("1,")]
    for i in rows if every else rows[-1:]:
        cells = lines[i].split(",")
        for column, text in changes.items():
            cells[header.index(column)] = text
        lines[i] = ",".join(cells)
    path = tmp_path / "module_errors.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


@pytest.mark.parametrize("changes, column", [
    ({"Weather": "snowy"}, "Weather"),
    ({"WindowEnd": "30.0", "EI2DProb": "0.1"}, "WindowEnd"),
    ({"EI2DProb": "0.1"}, "EI2DProb"),
    ({"EI3DStart": "1.0"}, "EI3DStart"),
])
def test_module_event_log_rejects_a_scenario_whose_rows_disagree(tmp_path, data_dir, changes,
                                                                  column):
    # each row is valid on its own, so only the grouping into logs can see it
    from aireliab import datasets
    from aireliab.simulate import module_event_log

    path = altered_module_errors(data_dir, tmp_path, changes)
    assert datasets.validate(path, "module_error").ok
    with pytest.raises(ValueError, match=f"scenario 1: rows disagree on {column} "):
        module_event_log(datasets.load(path, "module_error"))


@pytest.mark.parametrize("column", ["EI2DStart", "EI2DEnd", "EI3DStart", "EI3DEnd"])
def test_module_event_log_takes_nan_cells_in_every_row_as_agreeing(tmp_path, data_dir, column):
    # the schema flags a NaN injection time but keeps the row's record;
    # rows that all hold one agree, and the injection window then rejects it
    from aireliab import datasets
    from aireliab.simulate import module_event_log

    path = altered_module_errors(data_dir, tmp_path, {column: "nan"}, every=True)
    records, report = datasets.parse_records(path, "module_error")
    assert {v.rule for v in report.violations} == {"injection window"}
    with pytest.raises(ValueError, match="injection interval must satisfy"):
        module_event_log(records)
