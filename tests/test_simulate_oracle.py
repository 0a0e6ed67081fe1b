"""Oracle properties for the seeded generators in ``aireliab.simulate``.

The oracles are the per-function copies of ``simulate_nhpp``,
``simulate_ep_cascade`` and ``adversarial_records`` from before the two
samplers shared one thinning draw and one trigger sum and the record
converters read the schema specs.  Each must be reproduced bit for bit:
the same event arrays (dtype and bytes) and the same records, so every
seeded stream and every bundled file stays what it was.
"""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from aireliab._rng import make_rng
from aireliab.datasets import AdversarialCountRecord, ExposureSchedule
from aireliab.propagation import EPModel, InjectionWindow, ModuleEventLog, toposort
from aireliab.recurrent import BaselineIntensityModel, EventSeries, baseline_intensity
from aireliab.simulate import (
    T_MIN,
    IntervalCountSeries,
    _baseline_bound,
    _left_cutoff,
    adversarial_records,
    intensity_supremum,
    simulate_ep_cascade,
    simulate_nhpp,
)
from conftest import PROPERTY

# ---------------------------------------------------------------------------
# oracles: the earlier implementations, verbatim


def oracle_simulate_nhpp(model, exposure, tau, seed):
    if abs(exposure.tau - tau) > 1e-9:
        raise ValueError("exposure horizon does not match tau")
    lo = _left_cutoff(model)
    envelope = 0.0
    for a, b, rate in zip(exposure.breakpoints[:-1], exposure.breakpoints[1:],
                          exposure.daily_rate):
        if rate <= 0 or b <= lo:
            continue
        envelope = max(envelope, rate * intensity_supremum(model, max(a, lo, T_MIN), b))
    rng = make_rng(seed)
    if envelope <= 0:
        return EventSeries(exposure.unit_id, np.array([]), tau, exposure)
    if not np.isfinite(envelope):
        raise ValueError("intensity is unbounded on the window; cannot build an envelope")
    n_cand = rng.poisson(envelope * (tau - lo))
    u = lo + (tau - lo) * rng.random(n_cand)
    accept = rng.random(n_cand) * envelope < baseline_intensity(model, np.maximum(u, T_MIN)) \
        * np.atleast_1d(exposure.rate_at(u))
    times = np.sort(u[accept])
    return EventSeries(exposure.unit_id, times, tau, exposure)


def oracle_simulate_ep_cascade(model, sources, window, injection=None, seed=0,
                               scenario_id=None, weather=None):
    modules = sorted(model.baseline)
    stream = {m: i for i, m in enumerate(modules)}
    order = toposort(set(modules), {m: tuple(sources.get(m, ())) for m in modules})
    injection = dict(injection or {})
    events = {}
    for module in order:
        rng = make_rng(seed, stream[module])
        base = model.module_baseline(module)
        inj = injection.get(module, InjectionWindow(0.0, window, 1.0))
        in_edges = [
            (src, model.edges[(module, src)])
            for src in sources.get(module, ())
            if (module, src) in model.edges
        ]
        if not in_edges:
            bound = _baseline_bound(base, inj, 0.0, window)
            if bound <= 0:
                events[module] = np.array([])
                continue
            lo, hi = max(inj.start, _left_cutoff(base)), inj.end
            n_cand = rng.poisson(bound * (hi - lo))
            u = lo + (hi - lo) * rng.random(n_cand)
            lam = inj.prob * baseline_intensity(base, np.maximum(u, T_MIN))
            events[module] = np.sort(u[rng.random(n_cand) * bound < lam])
            continue
        # downstream module: piecewise envelope between upstream event times
        src_times = np.sort(np.concatenate([events[s] for s, _ in in_edges])) \
            if in_edges else np.array([])
        boundaries = np.unique(np.concatenate([[0.0], src_times, [window]]))

        def trig(t):
            total = 0.0
            for src, (jump, decay) in in_edges:
                ts = events[src]
                past = ts[ts < t] if t > 0 else ts[:0]
                if past.size:
                    total += float(jump * np.sum(np.exp(-decay * (t - past))))
            return total

        def trig_ceiling(a):
            # includes events exactly at a, whose kernel is at full height
            total = 0.0
            for src, (jump, decay) in in_edges:
                ts = events[src]
                past = ts[ts <= a]
                if past.size:
                    total += float(jump * np.sum(np.exp(-decay * (a - past))))
            return total

        drawn = []
        for a, b in zip(boundaries[:-1], boundaries[1:]):
            bound = _baseline_bound(base, inj, a, b) + trig_ceiling(a)
            t = a
            while bound > 0:
                t = t + rng.exponential(1.0 / bound)
                if t >= b:
                    break
                lam = trig(t)
                if inj.start <= t < inj.end:
                    lam += inj.prob * baseline_intensity(base, max(t, T_MIN))
                if rng.random() * bound < lam:
                    drawn.append(t)
        events[module] = np.asarray(sorted(drawn))
    return ModuleEventLog(
        events=events,
        window=window,
        sources={m: tuple(s) for m, s in sources.items()},
        weather=weather,
        injection=injection or None,
        scenario_id=scenario_id,
    )


def oracle_adversarial_records(series, *, scenario=1, epsilon_range=(0.0, 1.0)):
    names = series.covariate_names

    def col(name, default):
        if name in names:
            return series.covariates[:, names.index(name)]
        return np.full(series.n_steps, default)

    fgsm = col("FGSM", 50.0)
    alpha = col("Alpha", 1e-3)
    f1 = col("F1", 0.5)
    eps_mid = 0.5 * (epsilon_range[0] + epsilon_range[1])
    epsilon = col("Epsilon", eps_mid)
    train_acc = col("TrainingAccuracy", 0.8)
    train_loss = col("TrainingLoss", 0.5)
    val_acc = col("ValidationAccuracy", 0.75)
    val_loss = col("ValidationLoss", 0.6)
    if series.performance is not None:
        test_acc = series.performance
    else:
        test_acc = col("TestAccuracy", 0.7)
    test_loss = col("TestLoss", 0.7)
    memory = col("Memory", 512.0)
    records = []
    for t in range(series.n_steps):
        records.append(AdversarialCountRecord(
            scenario=scenario,
            epsilon_range=(float(epsilon_range[0]), float(epsilon_range[1])),
            t=t + 1,
            fc=int(series.counts[t]),
            alpha=float(alpha[t]),
            f1=float(f1[t]),
            epsilon=float(epsilon[t]),
            fgsm_pct=float(fgsm[t]),
            pgd_pct=float(100.0 - fgsm[t]),
            train_acc=float(train_acc[t]),
            train_loss=float(train_loss[t]),
            val_acc=float(val_acc[t]),
            val_loss=float(val_loss[t]),
            test_acc=float(test_acc[t]),
            test_loss=float(test_loss[t]),
            memory=float(memory[t]),
        ))
    return records


def assert_same_bits(got, want):
    assert got.dtype == want.dtype
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# strategies

seeds = st.integers(0, 2**32 - 1)


@st.composite
def nhpp_models(draw, tau):
    """A baseline of each family whose expected count over tau stays small;
    the singular power-law and Weibull-growth shapes (< 1) and the interior
    gompertz and Weibull-growth modes are all drawn."""
    family = draw(st.sampled_from(("hpp", "power_law", "weibull_growth", "gompertz",
                                   "musa_okumoto")))
    count = draw(st.floats(0.2, 30.0))
    if family == "hpp":
        theta = (count / tau,)
    elif family == "power_law":
        shape = draw(st.floats(0.5, 3.0))
        theta = (shape, tau / count ** (1.0 / shape))
    elif family == "weibull_growth":
        t3 = draw(st.floats(0.6, 3.0))
        theta = (count, draw(st.floats(0.05, 5.0)) / tau ** t3, t3)
    elif family == "gompertz":
        theta = (count, draw(st.floats(0.1, 20.0)), draw(st.floats(0.1, 10.0)) / tau)
    else:
        theta = (count, draw(st.floats(0.01, 5.0)))
    return BaselineIntensityModel(family, theta)


@st.composite
def exposures(draw, tau):
    """Piecewise-constant exposure over whole days, zero-rate segments included."""
    cuts = draw(st.lists(st.integers(1, tau - 1), max_size=min(5, tau - 1), unique=True))
    breakpoints = np.array([0.0, *sorted(cuts), tau], dtype=float)
    rates = draw(st.lists(st.just(0.0) | st.floats(0.05, 3.0),
                          min_size=len(breakpoints) - 1, max_size=len(breakpoints) - 1))
    return ExposureSchedule("u", breakpoints, np.array(rates), float(tau))


TOPOLOGIES = (
    {"localization": ("2d", "3d")},
    {"3d": ("2d",), "localization": ("3d",)},
    {"localization": ("2d", "3d"), "3d": ("2d",)},
)


@st.composite
def cascades(draw):
    """A model, its sources, a window and injection windows: late ones, ones
    of zero probability, and modules left to the whole window."""
    window = draw(st.floats(10.0, 200.0))
    sources = draw(st.sampled_from(TOPOLOGIES))
    baseline = {}
    for module in ("2d", "3d", "localization"):
        shape = draw(st.floats(0.7, 2.5))
        count = draw(st.floats(0.5, 30.0))
        baseline[module] = (shape, window / count ** (1.0 / shape))
    edges = {}
    for target, srcs in sources.items():
        for src in srcs:
            if draw(st.booleans()) or len(srcs) == 1:
                decay = draw(st.floats(0.05, 10.0))
                edges[(target, src)] = (decay * draw(st.floats(0.0, 0.9)), decay)
    injection = {}
    for module in ("2d", "3d", "localization"):
        kind = draw(st.sampled_from(("none", "late", "any", "zero")))
        if kind == "none":
            continue
        if kind == "late":
            start = window * draw(st.floats(0.5, 0.9))
        else:
            start = window * draw(st.floats(0.0, 0.9))
        end = draw(st.floats(start + 0.05 * window, window))
        prob = 0.0 if kind == "zero" else draw(st.floats(0.05, 1.0))
        injection[module] = InjectionWindow(start, end, prob)
    return EPModel(baseline, edges), sources, window, injection


COLUMNS = ("Alpha", "F1", "Epsilon", "FGSM", "PGD", "TrainingAccuracy", "TrainingLoss",
           "ValidationAccuracy", "ValidationLoss", "TestAccuracy", "TestLoss", "Memory")


@st.composite
def count_series(draw):
    """A count series whose covariates are any subset of the adversarial
    columns plus a foreign one, with or without a performance series."""
    n = draw(st.integers(2, 12))
    names = draw(st.lists(st.sampled_from((*COLUMNS, "x1")), unique=True, max_size=8))
    values = st.floats(-1e6, 1e6, allow_nan=False)
    covariates = np.array(draw(st.lists(st.lists(values, min_size=len(names),
                                                 max_size=len(names)),
                                        min_size=n, max_size=n)), dtype=float)
    counts = draw(st.lists(st.integers(0, 60), min_size=n, max_size=n))
    performance = draw(st.none() | st.lists(values, min_size=n, max_size=n))
    return IntervalCountSeries(counts, covariates.reshape(n, len(names)), tuple(names),
                               performance=performance)


# ---------------------------------------------------------------------------
# properties


@PROPERTY
@given(st.integers(2, 60).flatmap(
    lambda tau: st.tuples(st.just(tau), nhpp_models(tau), exposures(tau))), seeds)
def test_nhpp_matches_oracle(case, seed):
    tau, model, exposure = case
    got = simulate_nhpp(model, exposure, float(tau), seed)
    want = oracle_simulate_nhpp(model, exposure, float(tau), seed)
    assert_same_bits(got.event_times, want.event_times)
    assert (got.unit_id, got.tau) == (want.unit_id, want.tau)


@PROPERTY
@given(cascades(), seeds)
def test_ep_cascade_matches_oracle(case, seed):
    model, sources, window, injection = case
    got = simulate_ep_cascade(model, sources, window, injection, seed=seed,
                              scenario_id=3, weather="snowy")
    want = oracle_simulate_ep_cascade(model, sources, window, injection, seed=seed,
                                      scenario_id=3, weather="snowy")
    assert list(got.events) == list(want.events)
    for module in want.events:
        assert_same_bits(got.events[module], want.events[module])
    assert (got.window, got.sources, got.injection, got.scenario_id, got.weather) == \
        (want.window, want.sources, want.injection, want.scenario_id, want.weather)


@PROPERTY
@given(count_series(), st.integers(1, 9),
       st.lists(st.floats(0.0, 1.0), min_size=2, max_size=2).map(sorted))
def test_adversarial_records_match_oracle(series, scenario, epsilon_range):
    got = adversarial_records(series, scenario=scenario, epsilon_range=epsilon_range)
    want = oracle_adversarial_records(series, scenario=scenario, epsilon_range=epsilon_range)
    # repr tells 0.0 from -0.0, so equal reprs mean equal bits
    assert repr(got) == repr(want)


def test_adversarial_records_default_epsilon_range():
    series = IntervalCountSeries([3, 1, 4], np.zeros((3, 0)), ())
    assert repr(adversarial_records(series)) == repr(oracle_adversarial_records(series))
