"""Seeded generators: event streams, error cascades, count series, and
mixture responses.

These double as brute-force oracles for the fitters and as fixture
factories, so every generator can emit rows in the dataset schemas.
One constant-envelope thinning draw (Lewis & Shedler 1979) serves both
the NHPP streams and the cascade's source modules; downstream cascade
modules add one exponential trigger sum (Ogata 1981).  The converters
between dataset rows and model objects take their column names from the
schema specs and work on columns: the emitters return a ``RecordTable``,
and the readers take a table or a plain list of records through
``datasets.column`` and ``datasets.select``, so no record is built from a
table here.  Days map to dates through the month table's per-day tables
and date ordinals, over arrays.  Streams come from the counter-based
Philox generator (see ``_rng``); replicates derive child seeds through
SeedSequence mixing, so results do not depend on evaluation order or
thread count.

Baselines that are singular at the origin (power_law with shape < 1,
weibull_growth with shape parameter theta3 < 1) are truncated below
``T_MIN`` = 1e-6 so the thinning envelope is finite; the probability
mass below the cutoff is negligible for any usable parameterization.
"""

from __future__ import annotations

import numpy as np

from ._rng import derive_seed, make_rng
from .datasets.exposure import ExposureSchedule, MonthTable, derive_exposure
from .datasets.schemas import MODULE_FLAGS, SCHEMAS
from .datasets.table import RecordTable, column, select
from .propagation import DEFAULT_SOURCES, EPModel, InjectionWindow, ModuleEventLog, toposort
from .recurrent import BaselineIntensityModel, EventSeries, baseline_intensity, check_event_times
from .regression import mixture_design
from .srgm import DiscreteHazard, IntervalCountSeries, mean_value_increments

T_MIN = 1e-6


def _left_cutoff(model: BaselineIntensityModel) -> float:
    if model.family == "power_law" and model.theta[0] <= 1.0:
        return T_MIN
    if model.family == "weibull_growth" and model.theta[2] < 1.0:
        return T_MIN
    return 0.0


def _mode(model: BaselineIntensityModel) -> float | None:
    """Where the baseline intensity peaks away from 0 and infinity, if it does."""
    th = model.theta
    if model.family == "weibull_growth" and th[2] > 1.0:
        return ((th[2] - 1.0) / (th[1] * th[2])) ** (1.0 / th[2])
    if model.family == "gompertz" and th[1] > 1.0:
        return np.log(th[1]) / th[2]
    return None


def intensity_supremum(model: BaselineIntensityModel, lo: float, hi: float) -> float:
    """Exact supremum of the baseline intensity over [lo, hi], lo > 0."""
    if lo <= 0 or hi < lo:
        raise ValueError("need 0 < lo <= hi")
    candidates = [lo, hi]
    mode = _mode(model)
    if mode is not None and lo < mode < hi:
        candidates.append(mode)
    return float(max(baseline_intensity(model, t) for t in candidates))


def _pointwise_intensity(model: BaselineIntensityModel, t: np.ndarray) -> np.ndarray:
    """lambda0 at each point of the array ``t`` > 0, bit for bit as
    ``baseline_intensity`` returns it for the points one at a time.

    The power law raises a numpy scalar to a power when given one point,
    which numpy does with the C library's pow; over an array numpy may use
    its own SIMD pow, which can differ in the last bit.  ``float_power``
    calls the C library's pow for every element.  The other families give
    the same bits either way.
    """
    if model.family == "power_law":
        shape, scale = model.theta
        return (shape / scale) * np.float_power(t / scale, shape - 1.0)
    return baseline_intensity(model, t)


def _envelope(model: BaselineIntensityModel, exposure: ExposureSchedule) -> float:
    """Constant thinning envelope of ``simulate_nhpp``: the largest rate x
    sup lambda0 over the positive-rate segments above the left cutoff.

    Each segment's supremum is taken over its start (clipped at the cutoff
    and at T_MIN), its end and the family's mode where it lies inside, as
    ``intensity_supremum`` takes it, and the segments are compared as a
    running maximum would compare them, so the bound is the same float.
    """
    lo = _left_cutoff(model)
    a, b = exposure.breakpoints[:-1], exposure.breakpoints[1:]
    keep = (exposure.daily_rate > 0) & (b > lo)
    rate, a, b = exposure.daily_rate[keep], np.maximum(a[keep], max(lo, T_MIN)), b[keep]
    if (b < a).any():
        raise ValueError("need 0 < lo <= hi")
    sup = _pointwise_intensity(model, a)
    at_end = _pointwise_intensity(model, b)
    sup = np.where(at_end > sup, at_end, sup)
    mode = _mode(model)
    if mode is not None:
        at_mode = _pointwise_intensity(model, np.array([mode]))
        sup = np.where((a < mode) & (mode < b) & (at_mode > sup), at_mode, sup)
    # a NaN never wins a running maximum that starts at 0
    return np.fmax.reduce(rate * sup, initial=0.0)


def _thin(rng, lo: float, hi: float, bound: float, intensity) -> np.ndarray:
    """Sorted thinning draw on [lo, hi) under the constant envelope ``bound``.

    The Poisson candidate count, the candidate uniforms and the acceptance
    uniforms are drawn in that order; a candidate u is kept with
    probability intensity(u) / bound.
    """
    n_cand = rng.poisson(bound * (hi - lo))
    u = lo + (hi - lo) * rng.random(n_cand)
    return np.sort(u[rng.random(n_cand) * bound < intensity(u)])


def simulate_nhpp(model: BaselineIntensityModel, exposure: ExposureSchedule,
                  tau: float, seed: int) -> EventSeries:
    """Thinning draw of an exposure-adjusted event stream over (0, tau].

    Candidates come from a constant-rate envelope at least as large as
    sup lambda0(t) x(t); each is kept with probability lambda(t) / envelope.
    """
    if abs(exposure.tau - tau) > 1e-9:
        raise ValueError("exposure horizon does not match tau")
    lo = _left_cutoff(model)
    envelope = _envelope(model, exposure)
    rng = make_rng(seed)
    if envelope <= 0:
        return EventSeries(exposure.unit_id, np.array([]), tau, exposure)
    if not np.isfinite(envelope):
        raise ValueError("intensity is unbounded on the window; cannot build an envelope")
    times = _thin(rng, lo, tau, envelope, lambda u: baseline_intensity(
        model, np.maximum(u, T_MIN)) * np.atleast_1d(exposure.rate_at(u)))
    return EventSeries(exposure.unit_id, times, tau, exposure)


def simulate_fleet(model: BaselineIntensityModel, exposures, tau: float,
                   seed: int) -> list[EventSeries]:
    """One stream per exposure schedule, each on its own derived seed."""
    return [
        simulate_nhpp(model, exp, tau, derive_seed(seed, i))
        for i, exp in enumerate(exposures)
    ]


def _baseline_bound(model, inj: InjectionWindow, a: float, b: float) -> float:
    """Upper bound for the injected baseline intensity on [a, b)."""
    lo = max(a, inj.start, T_MIN)
    hi = min(b, inj.end)
    if hi <= lo or inj.prob <= 0:
        return 0.0
    return inj.prob * intensity_supremum(model, lo, hi)


def simulate_ep_cascade(model: EPModel, sources: dict, window: float,
                        injection: dict | None = None, seed: int = 0,
                        scenario_id: int | None = None,
                        weather: str | None = None) -> ModuleEventLog:
    """Draw a multi-module error cascade over [0, window].

    Modules generate in dependency order: source modules are plain
    thinning draws of their baseline restricted to the injection window
    (the injection probability scales the intensity), and downstream
    modules are thinned against an envelope that adds the decaying
    triggering sum of already-drawn upstream events.  Module substreams
    are keyed by the module's rank in sorted name order, so adding
    modules never perturbs existing streams.
    """
    if not (np.isfinite(window) and window > 0):  # an endless window never ends a draw
        raise ValueError(f"window must be finite and > 0, got {window}")
    modules = sorted(model.baseline)
    stream = {m: i for i, m in enumerate(modules)}
    order = toposort(set(modules), {m: tuple(sources.get(m, ())) for m in modules})
    injection = dict(injection or {})
    events: dict[str, np.ndarray] = {}
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
            events[module] = np.array([]) if bound <= 0 else _thin(
                rng, max(inj.start, _left_cutoff(base)), inj.end, bound,
                lambda u: inj.prob * baseline_intensity(base, np.maximum(u, T_MIN)))
            continue
        # downstream module: piecewise envelope between upstream event times
        src_times = np.concatenate([events[s] for s, _ in in_edges])
        boundaries = np.unique(np.concatenate([[0.0], src_times, [window]]))

        def trig(t: float, side: str) -> float:
            # upstream streams are sorted: side "left" sums the events before
            # t, side "right" also those at t, whose kernel is at full height
            total = 0.0
            for src, (jump, decay) in in_edges:
                ts = events[src]
                past = ts[:ts.searchsorted(t, side)]
                if past.size:
                    total += float(jump * np.sum(np.exp(-decay * (t - past))))
            return total

        drawn = []
        for a, b in zip(boundaries[:-1], boundaries[1:]):
            # the trigger sum only decays between upstream events, so its
            # value at a (events at a included) bounds it on [a, b)
            bound = _baseline_bound(base, inj, a, b) + trig(a, "right")
            t = a
            while bound > 0:
                t = t + rng.exponential(1.0 / bound)
                if t >= b:
                    break
                lam = trig(t, "left")
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


def simulate_srgm_counts(omega: float, hazard: DiscreteHazard, beta, covariates,
                         T: int, seed: int, *, covariate_names=None,
                         performance=None) -> IntervalCountSeries:
    """Interval counts drawn as independent Poissons of the mean increments."""
    if not 0 <= omega < np.inf:
        raise ValueError(f"omega must be finite and non-negative, got {omega}")
    if T < 2:
        raise ValueError(f"T, the number of steps, must be at least 2, got {T}")
    beta = np.asarray(beta, dtype=float)
    if covariates is None:
        covariates = np.zeros((T, 0))
        covariate_names = ()
    covariates = np.asarray(covariates, dtype=float)
    if covariate_names is None:
        covariate_names = tuple(f"x{j + 1}" for j in range(covariates.shape[1]))
    increments = mean_value_increments(omega, hazard, beta, covariates, T)
    rng = make_rng(seed)
    counts = rng.poisson(increments)
    return IntervalCountSeries(counts, covariates[:T], tuple(covariate_names),
                               performance=performance)


# ---------------------------------------------------------------------------
# mixture experiment layout and responses

#: runs per (simplex point, flags, scenario) cell of the mixture layout
MIXTURE_REPLICATES = 3


def simplex_centroid() -> np.ndarray:
    """Three vertices, three edge midpoints, and the centroid."""
    return np.array([
        [1.0, 0.0, 0.0],
        [0.0, 1.0, 0.0],
        [0.0, 0.0, 1.0],
        [0.5, 0.5, 0.0],
        [0.5, 0.0, 0.5],
        [0.0, 0.5, 0.5],
        [1 / 3, 1 / 3, 1 / 3],
    ])


def mixture_layout():
    """Full crossed layout: 7 simplex points x 2 x 2 algorithm/source flags
    x 3 scenarios x ``MIXTURE_REPLICATES``, 252 rows."""
    points = simplex_centroid()
    x_rows, z_rows, c_rows = [], [], []
    for scenario in range(3):
        c = np.zeros(3)
        c[scenario] = 1.0
        for z1 in (0, 1):
            for z2 in (0, 1):
                for point in points:
                    for _ in range(MIXTURE_REPLICATES):
                        x_rows.append(point)
                        z_rows.append((z1, z2))
                        c_rows.append(c)
    return np.asarray(x_rows), np.asarray(z_rows, dtype=float), np.asarray(c_rows)


def _coef_for(coef, scenario_idx: int) -> np.ndarray:
    if isinstance(coef, dict):
        return np.asarray(coef[("c1", "c2", "c3")[scenario_idx]], dtype=float)
    return np.asarray(coef, dtype=float)


def simulate_mixture_records(coef_y1, coef_y2, *, noise_sd_y1: float = 0.0,
                             noise_sd_y2: float = 0.0, seed: int = 0) -> RecordTable:
    """Mixture records over the crossed layout from known coefficients.

    Coefficients are 13-vectors in ``regression.mixture_terms`` order, or
    dicts keyed by scenario flag ("c1".."c3") for scenario-specific
    surfaces.  Mean responses follow the mixture design exactly; optional
    Gaussian noise is added per response.
    """
    for name, sd in (("noise_sd_y1", noise_sd_y1), ("noise_sd_y2", noise_sd_y2)):
        if not 0 <= sd < np.inf:
            raise ValueError(f"{name} must be finite and non-negative, got {sd}")
    x, z, c = mixture_layout()
    rng = make_rng(seed)
    design, _ = mixture_design(x, z)
    scen_idx = np.argmax(c, axis=1)
    y1 = np.empty(len(x))
    y2 = np.empty(len(x))
    for s in range(3):
        rows = scen_idx == s
        y1[rows] = design[rows] @ _coef_for(coef_y1, s)
        y2[rows] = design[rows] @ _coef_for(coef_y2, s)
    y1 = y1 + rng.normal(0.0, noise_sd_y1, len(x))
    y2 = y2 + rng.normal(0.0, noise_sd_y2, len(x))
    flags = np.column_stack([z, c]).astype(int).T.tolist()
    return RecordTable(SCHEMAS["mixture"], dict(zip(SCHEMAS["mixture"]._slots(),
                                                    [*x.T, *flags, y1, y2])), None)


# ---------------------------------------------------------------------------
# fixture emitters: model-world objects -> dataset-schema records


def _calendar(months: MonthTable, times) -> np.ndarray:
    """Index into the month table's per-day tables of calendar day ceil(t)
    of the period, for each time t."""
    days = np.ceil(np.asarray(times, dtype=float))
    outside = ~((days >= 1) & (days <= months.tau))
    if outside.any():
        # the first such time raises what date_of_day raises for it
        months.date_of_day(int(days[np.argmax(outside)]))
    return days.astype(np.intp) - 1


def disengagement_records(series_list, months: MonthTable, manufacture: str) -> RecordTable:
    """Event streams rendered as dated disengagement rows, by date and VIN.

    Event times are day offsets; an event at time t falls on calendar day
    ceil(t) of the period.
    """
    series_list = list(series_list)
    vins = [series.unit_id.split(":")[-1] for series in series_list]
    unit = np.repeat(np.arange(len(series_list)), [s.n_events for s in series_list])
    day = _calendar(months, np.concatenate([np.empty(0), *(s.event_times for s in series_list)]))
    vin_rank = {vin: i for i, vin in enumerate(sorted(set(vins)))}
    rank = np.array([vin_rank[vin] for vin in vins], dtype=np.intp)
    # by date, then VIN; events equal in both render as equal rows
    order = np.lexsort((rank[unit], day))
    return RecordTable(SCHEMAS["disengagement"], {
        "manufacture": [manufacture] * len(day),
        "vin": list(map(vins.__getitem__, unit[order].tolist())),
        **_calendar_columns(months, day[order].tolist())}, None)


def collision_records(event_times, months: MonthTable, manufacture: str) -> RecordTable:
    """Manufacturer-level collision rows; event ids number distinct dates."""
    day = np.sort(_calendar(months, event_times))
    event_id = np.unique(day, return_inverse=True)[1] + 1
    return RecordTable(SCHEMAS["collision"], {
        "manufacture": [manufacture] * len(day), "vin": [None] * len(day),
        **_calendar_columns(months, day.tolist()), "event_id": event_id.tolist()}, None)


def _calendar_columns(months: MonthTable, days: list) -> dict:
    """The date, month and month id columns of rows on the per-day table rows ``days``."""
    per_day = months.day_dates, months.day_months, months.day_month_ids
    return dict(zip(("date", "month", "month_id"), ([table[d] for d in days] for table in per_day)))


def module_error_records(log: ModuleEventLog) -> RecordTable:
    """One row per module event, carrying the scenario's injection setup."""
    def inj(module):
        if log.injection and module in log.injection:
            w = log.injection[module]
            return (w.start, w.end), w.prob
        return (0.0, log.window), 1.0

    if unknown := [module for module in log.events if module not in MODULE_FLAGS]:
        raise ValueError(f"no schema columns for module {unknown[0]!r}")
    times = np.concatenate([np.empty(0), *log.events.values()])
    order = np.argsort(times, kind="stable")  # ties keep module order
    module = np.repeat(list(log.events), [len(t) for t in log.events.values()])[order]
    # the fields before the time stamp, shared by every row of the scenario
    head = (log.scenario_id or 0, log.weather or "", (0.0, log.window), *inj("2d"), *inj("3d"))
    columns = {attr: [v] * len(times) for attr, v in zip(SCHEMAS["module_error"]._slots(), head)}
    columns["timestamp"] = times[order]
    for name, attr in MODULE_FLAGS.items():
        columns[attr] = (module == name).astype(int).tolist()
    return RecordTable(SCHEMAS["module_error"], columns, None)


def module_event_log(records) -> dict[int, ModuleEventLog]:
    """Event logs with the default sources from module-error rows (a table or
    a list of records), by scenario; a scenario's rows must agree on their
    settings, each distinct setting judged once against the first."""
    ids = np.asarray(column(records, "scenario_id"))
    cells = np.column_stack([np.asarray(column(records, attr), dtype=float) for attr in
                             ("window", "ei_time_2d", "ei_prob_2d", "ei_time_3d", "ei_prob_3d")])
    settings: dict[int, list] = {}
    for scenario, *setting in dict.fromkeys(zip(ids.tolist(), column(records, "weather"),
                                                *cells.T.tolist())):
        settings.setdefault(scenario, []).append(setting)
    timestamp = np.asarray(column(records, "timestamp"), dtype=float)
    flags = {m: np.asarray(column(records, attr), dtype=bool) for m, attr in MODULE_FLAGS.items()}
    logs = {}
    for scenario, (first, *rest) in sorted(settings.items()):
        for setting in rest:
            for col, was, now in zip(SCHEMAS["module_error"].spec[1:], first, setting):
                if was != now and (was == was or now == now):  # two NaN cells agree
                    raise ValueError(f"scenario {scenario}: rows disagree on {col.name} "
                                     f"({was!r} and {now!r})")
        weather, start, end, start_2d, end_2d, p_2d, start_3d, end_3d, p_3d = first
        ours = ids == scenario
        logs[scenario] = ModuleEventLog(
            events={m: np.sort(timestamp[ours & flag] - start) for m, flag in flags.items()},
            window=end - start, sources=dict(DEFAULT_SOURCES), weather=weather,
            injection={"2d": InjectionWindow(start_2d - start, end_2d - start, p_2d),
                       "3d": InjectionWindow(start_3d - start, end_3d - start, p_3d)},
            scenario_id=scenario)
    return logs


#: the per-step columns of the adversarial schema and the record attribute
#: each fills; the scenario, its epsilon range, the step and the count are
#: not per-step covariates
_ADVERSARIAL_COLUMNS = {
    col.name: col.attr for col in SCHEMAS["adversarial"].spec
    if col.attr not in ("scenario", "epsilon_range", "t", "fc")
}
#: the value of a per-step column that a count series does not carry;
#: Epsilon falls back to the middle of the epsilon range, and PGD is
#: always 100 - FGSM
_ADVERSARIAL_DEFAULTS = {
    "Alpha": 1e-3, "F1": 0.5, "FGSM": 50.0, "TrainingAccuracy": 0.8,
    "TrainingLoss": 0.5, "ValidationAccuracy": 0.75, "ValidationLoss": 0.6,
    "TestAccuracy": 0.7, "TestLoss": 0.7, "Memory": 512.0,
}


def adversarial_records(series: IntervalCountSeries, *, scenario: int = 1,
                        epsilon_range=(0.0, 1.0)) -> RecordTable:
    """Count series rendered as adversarial-experiment rows.

    Covariate columns whose names match the schema columns (Alpha, F1,
    Epsilon, FGSM, TrainingAccuracy, ...) populate those fields; FGSM and
    PGD stay complementary, TestAccuracy falls back to the performance
    series, and anything else gets a bland constant.
    """
    names = series.covariate_names
    defaults = {**_ADVERSARIAL_DEFAULTS, "Epsilon": 0.5 * (epsilon_range[0] + epsilon_range[1])}
    columns = {
        _ADVERSARIAL_COLUMNS[name]: series.covariates[:, names.index(name)] if name in names
        else np.full(series.n_steps, default)
        for name, default in defaults.items()
    }
    columns["pgd_pct"] = 100.0 - columns["fgsm_pct"]
    if series.performance is not None:
        columns["test_acc"] = series.performance
    n = series.n_steps
    columns.update(scenario=[scenario] * n, t=list(range(1, n + 1)),
                   epsilon_range=np.tile(np.array(epsilon_range[:2], dtype=float), (n, 1)),
                   fc=series.counts.astype(int).tolist())
    return RecordTable(SCHEMAS["adversarial"],
                       {attr: columns[attr] for attr in SCHEMAS["adversarial"]._slots()}, None)


def interval_series_from_adversarial(records, scenario: int,
                                     covariates=("Alpha", "F1", "Epsilon", "FGSM"),
                                     performance_column: str = "TestAccuracy"
                                     ) -> IntervalCountSeries:
    """Count series for one scenario of an adversarial dataset.

    ``covariates`` and ``performance_column`` name per-step columns of the
    adversarial schema; any other name raises ValueError.
    """
    named = (*covariates, performance_column) if performance_column else tuple(covariates)
    if unknown := [c for c in named if c not in _ADVERSARIAL_COLUMNS]:
        raise ValueError(f"unknown adversarial column(s) {', '.join(unknown)}; "
                         f"accepted: {', '.join(_ADVERSARIAL_COLUMNS)}")
    rows = select(records, "scenario", scenario)
    if not rows:
        raise ValueError(f"no rows for scenario {scenario}")
    t = np.asarray(column(rows, "t"))
    order = np.argsort(t, kind="stable")
    if not np.array_equal(t[order], np.arange(1, len(t) + 1)):
        raise ValueError(f"scenario {scenario}: steps T must run 1..{len(t)} once each")
    # the counts, then the named columns, in step order
    counts, *values = (np.asarray(column(rows, attr), dtype=float)[order]
                       for attr in ("fc", *map(_ADVERSARIAL_COLUMNS.__getitem__, named)))
    perf = values.pop() if performance_column else None
    X = np.column_stack(values) if covariates else np.zeros((len(t), 0))
    return IntervalCountSeries(counts, X, tuple(covariates), performance=perf)


def _day_offsets(months: MonthTable, dates):
    """``day_index`` of each date, from date ordinals, and whether each date
    lies outside the period (where ``day_index`` raises)."""
    first, last = months.start_date.toordinal(), months.end_date.toordinal()
    ordinal = np.array([d.toordinal() for d in dates], dtype=np.int64)
    return ordinal - (first - 1), (ordinal < first) | (ordinal > last)


def event_series_from_disengagements(records, mileage_rows, months: MonthTable,
                                     manufacture: str) -> list[EventSeries]:
    """Per-vehicle event series for one manufacturer.

    Every vehicle with a mileage row contributes a series (possibly with
    zero events); dated events convert to whole-day offsets, preserving
    same-day ties.  Events and mileage are tables or lists of records.
    """
    fleet_rows = select(mileage_rows, "manufacture", manufacture)
    if not fleet_rows:
        raise ValueError(f"no mileage rows for manufacturer {manufacture!r}")
    schedules = derive_exposure(fleet_rows, months)
    vehicle_of: dict[str, int] = {}  # rows that share a VIN share its events
    for vin in column(fleet_rows, "vin"):
        vehicle_of.setdefault(vin, len(vehicle_of))
    ours = select(records, "manufacture", manufacture)
    vins, dates = column(ours, "vin"), column(ours, "date")
    vehicle = np.array([vehicle_of.get(vin, -1) for vin in vins], dtype=np.int64)
    day, outside = _day_offsets(months, dates)
    bad = (vehicle < 0) | outside
    if bad.any():
        k = np.argmax(bad)
        if vins[k] not in vehicle_of:
            raise ValueError(f"event for unknown vehicle {vins[k]!r}")
        months.day_index(dates[k])  # raises for the date outside the period
    # every vehicle's days, ascending, as one run of the sorted array
    order = np.lexsort((day, vehicle))
    times = day[order].astype(float)
    # what each series would check of its times, once for the fleet; every
    # schedule's tau is the period's
    check_event_times(times, months.tau, same_unit=np.diff(vehicle[order]) == 0)
    count = np.bincount(vehicle, minlength=len(vehicle_of))
    end = np.cumsum(count)
    return [EventSeries._prechecked(schedule.unit_id, times[end[v] - count[v]:end[v]],
                                    schedule.tau, schedule)
            for v, schedule in zip(map(vehicle_of.__getitem__, column(fleet_rows, "vin")),
                                   schedules)]


def collision_times(records, months: MonthTable, manufacture: str) -> np.ndarray:
    """Manufacturer-level collision day offsets, ties preserved."""
    dates = column(select(records, "manufacture", manufacture), "date")
    day, outside = _day_offsets(months, dates)
    if outside.any():
        months.day_index(dates[np.argmax(outside)])  # raises for that date
    return np.sort(day.astype(float))
