"""Recurrent-event models with exposure adjustment.

Events for unit i follow a Poisson process with intensity
``lambda_i(t) = lambda0(t; theta) * x_i(t)``, where ``lambda0`` is a
parametric baseline intensity shared by all units and ``x_i`` is the
unit's piecewise-constant daily exposure.  Supported baseline families:

==================  ==========================  =====================================
family              parameters (all > 0)        cumulative baseline
==================  ==========================  =====================================
hpp                 (rate,)                     rate * t
power_law           (shape, scale)              (t / scale) ** shape
weibull_growth      (t1, t2, t3)                t1 * (1 - exp(-t2 * t**t3))
gompertz            (t1, t2, t3)                t1 * (exp(-t2 e^{-t3 t}) - exp(-t2))
musa_okumoto        (t1, t2)                    t1 * log(1 + t2 * t)
==================  ==========================  =====================================

The gompertz and musa_okumoto forms are the conventional software
reliability growth shapes, rescaled so the cumulative baseline starts at
zero.  Log-likelihoods use the fact that exposure is piecewise constant,
so each unit's compensator reduces to rate-weighted differences of the
cumulative baseline at segment boundaries; summed over units, they need
the cumulative baseline only at the distinct breakpoints.

The fits search the profile likelihood.  Each shaped family's cumulative
baseline is an amplitude times a shape, A * S(t; phi), and for given
shape parameters the amplitude has a closed-form maximum, so the search
runs over log phi alone, with an exact score (``_Profile``), and maps its
optimum back to the family's parameters.  Its compensator at A = 1 is the
reported log-likelihood's, from the same cumulative baseline; the
reported log-likelihood is the one at the returned parameters.  The HPP
has no shape (S(t) = t), and ``fit_mle`` returns its closed-form rate.

Each unit is observed over its own horizon, so units may differ in
``tau``.  ``propagation`` fits an error-propagation module without
in-edges here, as one unit per scenario log at exposure 1 over the log's
window.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._optim import maximize, numeric_stderr, quiet, starts
from .datasets.exposure import ExposureSchedule, sum_schedules

FAMILY_PARAMS = {
    "hpp": ("rate",),
    "power_law": ("shape", "scale"),
    "weibull_growth": ("theta1", "theta2", "theta3"),
    "gompertz": ("theta1", "theta2", "theta3"),
    "musa_okumoto": ("theta1", "theta2"),
}

FAMILIES = tuple(FAMILY_PARAMS)

#: relative objective tolerance of the maximum-likelihood searches
TOLERANCE = 1e-8


class DataInconsistencyError(ValueError):
    """An observed event is impossible under the data (zero exposure)."""


@dataclass(frozen=True)
class BaselineIntensityModel:
    """Tagged parametric baseline intensity with positive parameters."""

    family: str
    theta: tuple[float, ...]

    def __post_init__(self):
        if self.family not in FAMILY_PARAMS:
            raise ValueError(f"unknown family {self.family!r}; expected one of {FAMILIES}")
        theta = tuple(float(v) for v in self.theta)
        if len(theta) != len(FAMILY_PARAMS[self.family]):
            raise ValueError(
                f"{self.family} takes {len(FAMILY_PARAMS[self.family])} parameters, got {len(theta)}"
            )
        if not all(np.isfinite(v) and v > 0 for v in theta):
            raise ValueError(f"{self.family} parameters must be positive and finite: {theta}")
        object.__setattr__(self, "theta", theta)


def _intensity(family: str, th, t):
    """lambda0(t) for a known family and positive finite ``th``; no checks."""
    if family == "hpp":
        return np.full_like(t, th[0])
    if family == "power_law":
        shape, scale = th
        return (shape / scale) * (t / scale) ** (shape - 1.0)
    if family == "weibull_growth":
        t1, t2, t3 = th
        return t1 * t2 * t3 * t ** (t3 - 1.0) * np.exp(-t2 * t**t3)
    if family == "gompertz":
        t1, t2, t3 = th
        u = t2 * np.exp(-t3 * t)
        return t1 * t3 * u * np.exp(-u)
    t1, t2 = th  # musa_okumoto
    return t1 * t2 / (1.0 + t2 * t)


def _cumulative(family: str, th, t):
    """Lambda0(t) for a known family and positive finite ``th``; no checks."""
    if family == "hpp":
        return th[0] * t
    if family == "power_law":
        shape, scale = th
        return (t / scale) ** shape
    if family == "weibull_growth":
        t1, t2, t3 = th
        return t1 * -np.expm1(-t2 * t**t3)
    if family == "gompertz":
        # exp(-t2 u) - exp(-t2) with u = exp(-t3 t), written to stay
        # accurate when t2 is small
        t1, t2, t3 = th
        u = np.exp(-t3 * t)
        return t1 * np.exp(-t2) * np.expm1(t2 * (1.0 - u))
    t1, t2 = th  # musa_okumoto
    return t1 * np.log1p(t2 * t)


def baseline_intensity(model: BaselineIntensityModel, t):
    """Baseline intensity lambda0(t) for t > 0 (scalar or array).

    This is the public entry point and validates ``t``; the fitters
    evaluate the same formulas on a prepared grid of event times.
    """
    t = np.asarray(t, dtype=float)
    if not (t > 0).all():
        raise ValueError("baseline intensity requires t > 0")
    out = _intensity(model.family, model.theta, t)
    return out if out.ndim else float(out)


def cumulative_baseline(model: BaselineIntensityModel, t):
    """Cumulative baseline intensity Lambda0(t) for t >= 0 (closed form).

    This is the public entry point and validates ``t``; the fitters
    evaluate the same formulas on a prepared grid of breakpoints.
    """
    t = np.asarray(t, dtype=float)
    if not (t >= 0).all():
        raise ValueError("cumulative baseline requires t >= 0")
    out = _cumulative(model.family, model.theta, t)
    return out if out.ndim else float(out)


def check_event_times(times: np.ndarray, tau: float, same_unit=True) -> None:
    """Raise unless the float array ``times`` is finite, inside (0, tau] and
    ascending (ties allowed).  For the times of several units laid end to
    end, ``same_unit`` flags each pair of neighbours that one unit holds,
    and only those pairs must ascend."""
    if not np.isfinite(times).all():
        raise ValueError("event_times must be finite")
    if ((np.diff(times) < 0) & same_unit).any():
        raise ValueError("event_times must be ascending (ties allowed)")
    if times.size and (times.min() <= 0 or times.max() > tau + 1e-9):
        raise ValueError("event_times must lie in (0, tau]")


@dataclass(frozen=True)
class EventSeries:
    """Event times for one unit over (0, tau] with its exposure schedule."""

    unit_id: str
    event_times: np.ndarray
    tau: float
    exposure: ExposureSchedule

    def __post_init__(self):
        times = np.asarray(self.event_times, dtype=float)
        if times.ndim != 1:
            raise ValueError("event_times must be one-dimensional")
        if not np.isfinite(self.tau):
            raise ValueError(f"tau must be finite, got {self.tau}")
        check_event_times(times, self.tau)
        if abs(self.exposure.tau - self.tau) > 1e-9:
            raise ValueError("exposure horizon does not match tau")
        object.__setattr__(self, "event_times", times)
        object.__setattr__(self, "tau", float(self.tau))

    @classmethod
    def _prechecked(cls, unit_id: str, event_times: np.ndarray, tau: float,
                    exposure: ExposureSchedule) -> "EventSeries":
        """A series from fields that already passed ``__post_init__``'s
        checks, built without running them again."""
        self = object.__new__(cls)
        for name, value in (("unit_id", unit_id), ("event_times", event_times), ("tau", tau),
                            ("exposure", exposure)):
            object.__setattr__(self, name, value)
        return self

    @property
    def n_events(self) -> int:
        return len(self.event_times)


@dataclass(frozen=True)
class RecurrentFit:
    """Fitted baseline model with likelihood diagnostics."""

    model: BaselineIntensityModel
    log_lik: float
    aic: float
    converged: bool
    iterations: int
    stderr: tuple[float, ...] | None = None


class _Packed:
    """A unit list reduced to the sufficient statistics of its likelihood.

    With piecewise-constant exposure the likelihood depends on the data
    only through the count at each distinct event time and the summed rate
    on each distinct exposure interval, so one evaluation costs O(distinct
    event times + distinct breakpoints), not O(events + unit segments).
    Both are small for DMV data: events fall on whole days and every
    vehicle shares the month breakpoints.  Units may differ in horizon;
    ``tau``, which only the moment seed reads, is the longest.
    """

    def __init__(self, units):
        units = list(units)
        if not units:
            raise ValueError("no units supplied")
        self.tau = max(u.tau for u in units)
        times = np.concatenate([u.event_times for u in units])
        self.n_events = len(times)
        self.event_times, self.event_counts = np.unique(times, return_counts=True)

        # every unit's segments, in unit order, as index pairs into one grid
        # of breakpoints: a unit's last breakpoint opens no segment and its
        # first closes none
        rates = [u.exposure.daily_rate for u in units]
        n_seg = np.array([len(r) for r in rates])
        self.grid, at = np.unique(np.concatenate([u.exposure.breakpoints for u in units]),
                                  return_inverse=True)
        n_grid = len(self.grid)
        first = np.cumsum(n_seg + 1) - n_seg - 1
        lo_idx, hi_idx = np.delete(at, first + n_seg), np.delete(at, first)
        seg_rate = np.concatenate(rates)
        # each segment's (unit, lower breakpoint) as one ascending key
        unit = np.arange(len(units))
        seg_key = np.repeat(unit, n_seg) * n_grid + lo_idx

        # exposure at each event: the unit's segment holding the grid cell
        # (grid[g], grid[g+1]] that contains the event (t = 0 and t past the
        # unit's own tau fall in its first and last segments, as in
        # ExposureSchedule.rate_at)
        cell = np.clip(np.searchsorted(self.grid, times) - 1, 0, n_grid - 2)
        event_key = np.repeat(unit, [u.n_events for u in units]) * n_grid + cell
        xs = seg_rate[np.searchsorted(seg_key, event_key, side="right") - 1]
        if (xs <= 0).any():
            bad = int(np.nonzero(xs <= 0)[0][0])
            raise DataInconsistencyError(
                f"event at t={times[bad]:g} has zero exposure (intensity would be zero)"
            )
        self.log_exposure_sum = float(np.sum(np.log(xs)))

        # compensator = sum over distinct intervals (lo, hi) of the summed
        # rate times L0(hi) - L0(lo); zero-rate segments are left out
        keep = seg_rate > 0
        intervals, seg_interval = np.unique(lo_idx[keep] * n_grid + hi_idx[keep],
                                            return_inverse=True)
        self.interval_lo, self.interval_hi = np.divmod(intervals, n_grid)
        self.interval_rate = np.bincount(seg_interval, seg_rate[keep], minlength=len(intervals))
        # summed over the distinct intervals: a BLAS dot over every segment
        # of a large fleet runs threaded, after which the L-BFGS-B search
        # that follows stalls for milliseconds at a time on a 2-core host
        self.total_exposure = float(np.dot(
            self.interval_rate, self.grid[self.interval_hi] - self.grid[self.interval_lo]))

    @quiet()
    def log_lik(self, model: BaselineIntensityModel) -> float:
        """The log-likelihood of the units under ``model``."""
        return self.log_lik_theta(model.family, model.theta)

    def log_lik_theta(self, family: str, theta) -> float:
        """``log_lik`` at raw parameters of a family the caller checked.

        The event times are positive and the breakpoints non-negative by
        construction, so the formulas run without the checks of
        ``baseline_intensity`` and ``cumulative_baseline``.
        """
        lam0 = _intensity(family, theta, self.event_times)
        if (lam0 <= 0).any():
            return -np.inf
        event_term = float(np.dot(self.event_counts, np.log(lam0))) + self.log_exposure_sum
        cum = _cumulative(family, theta, self.grid)
        total = event_term - float(self.interval_rate
                                   @ (cum[self.interval_hi] - cum[self.interval_lo]))
        return total if np.isfinite(total) else -np.inf


def log_likelihood(units, model: BaselineIntensityModel) -> float:
    """Exposure-adjusted Poisson-process log-likelihood over all units.

    Equals ``sum_i [ sum_j log(lambda0(t_ij) x_i(t_ij)) - integral_0^tau_i
    lambda0(s) x_i(s) ds ]``, with the integral computed exactly from the
    piecewise-constant exposure and the closed-form cumulative baseline.
    Each unit is observed over its own horizon ``tau_i``.
    """
    return _Packed(units).log_lik(model)


def _moment_seed(family: str, packed: _Packed) -> np.ndarray:
    """The starting shape parameters phi of a shaped family: 1 for each
    shape and 1 / tau for each time scale.  The search profiles the
    amplitude out, so it has no seed."""
    inv_tau = 1.0 / packed.tau
    seeds = {"power_law": [1.0], "weibull_growth": [inv_tau, 1.0],
             "gompertz": [1.0, inv_tau], "musa_okumoto": [inv_tau]}
    return np.array(seeds[family])


# The searches run on the profile likelihood.  Each shaped family splits
# its baseline into an amplitude and a shape, Lambda0(t) = A * S(t; phi):
# A = scale**-shape for power_law and A = theta1 for the others.  For
# fixed phi the log-likelihood is N log A - A C plus terms free of A,
# where C is the compensator at A = 1, so A has the closed-form maximum
# N / C.  The search coordinates are z = log phi.  For |z| <= 300 every
# exp(z) is positive and finite, so the shape parameters need no check
# inside the search; a z whose amplitude parameter (theta1, or the
# power-law scale) leaves that range on the log scale is refused too.

#: the index of the amplitude parameter among each shaped family's parameters
_AMPLITUDE = {"power_law": 1, "weibull_growth": 0, "gompertz": 0, "musa_okumoto": 0}


def _power_law_terms(p, psi, phi, cum):
    (log_b,), (b,), n = psi, phi, p.packed.n_events
    return n * log_b + (b - 1.0) * p.sum_log_t, [n + b * p.sum_log_t], [b * p.log_grid * cum]


def _weibull_growth_terms(p, psi, phi, cum):
    (log_t2, log_t3), t3, n = psi, phi[1], p.packed.n_events
    v = np.exp(log_t2 + t3 * p.log_t)
    cv, clv = float(np.dot(p.counts, v)), float(np.dot(p.c_log_t, v))
    event = n * (log_t2 + log_t3) + (t3 - 1.0) * p.sum_log_t - cv
    v_grid = np.exp(log_t2 + t3 * p.log_grid)
    d_t2 = v_grid * np.exp(-v_grid)
    return (event, [n - cv, n + t3 * (p.sum_log_t - clv)], [d_t2, t3 * p.log_grid * d_t2])


def _gompertz_terms(p, psi, phi, cum):
    (log_t2, log_t3), (t2, t3), n = psi, phi, p.packed.n_events
    u = np.exp(-t3 * p.times)
    cu, ctu = float(np.dot(p.counts, u)), float(np.dot(p.c_t, u))
    event = n * (log_t2 + log_t3) - t3 * p.sum_t - t2 * cu
    u_grid = np.exp(-t3 * p.grid)
    uh = u_grid * np.exp(-t2 * u_grid)
    return (event, [n - t2 * cu, n - t3 * p.sum_t + t2 * t3 * ctu],
            [t2 * (math.exp(-t2) - uh), (t2 * t3) * p.grid * uh])


def _musa_okumoto_terms(p, psi, phi, cum):
    (log_t2,), (t2,) = psi, phi
    r = t2 * p.times
    event = p.packed.n_events * log_t2 - float(np.dot(p.counts, np.log1p(r)))
    r_grid = t2 * p.grid
    return event, [float(np.dot(p.counts, 1.0 / (1.0 + r)))], [r_grid / (1.0 + r_grid)]


#: per family, at psi = log phi and phi, with S = ``_cumulative`` at A = 1 on
#: the grid: the event term sum_j c_j log S'(t_j) and its gradient in psi,
#: and the derivative of S on the grid in each psi
_SHAPE_TERMS = {"power_law": _power_law_terms, "weibull_growth": _weibull_growth_terms,
                "gompertz": _gompertz_terms, "musa_okumoto": _musa_okumoto_terms}


class _Profile:
    """Negative profile log-likelihood of a shaped ``family`` at z = log phi,
    and its exact gradient.

    Calling the object gives the value and the gradient together: the event
    term from ``_SHAPE_TERMS``, on logs of the event times and the grid
    taken once, and the compensator as ``_Packed.log_lik_theta`` forms it,
    from ``_cumulative`` at A = 1.
    """

    def __init__(self, packed: _Packed, family: str):
        self.packed, self.family = packed, family
        n = packed.n_events
        self.log_n = math.log(n)
        self.const = packed.log_exposure_sum + n * self.log_n - n
        self.times, self.counts = packed.event_times, packed.event_counts.astype(float)
        self.log_t = np.log(self.times)
        self.c_log_t, self.c_t = self.counts * self.log_t, self.counts * self.times
        self.sum_log_t, self.sum_t = float(self.c_log_t.sum()), float(self.c_t.sum())
        # S(0) = 0 in every family, so a breakpoint at 0 is not evaluated, and
        # neither are those after the last exposed interval, which no
        # interval reaches
        self.skip, self.stop = int(packed.grid[0] == 0), int(packed.interval_hi.max()) + 1
        self.grid = packed.grid[self.skip:self.stop]
        self.log_grid = np.log(self.grid)

    def _increments(self, values):
        """``values`` on the grid as their increments over each distinct interval."""
        full = np.concatenate([np.zeros(self.skip), values])
        return full[self.packed.interval_hi] - full[self.packed.interval_lo]

    def _outside(self, z, compensator) -> bool:
        """Whether the amplitude parameter at z leaves |log| <= 300, or the
        compensator at A = 1 is not positive and finite."""
        if not 0.0 < compensator < np.inf:
            return True
        log_a = self.log_n - math.log(compensator)
        return abs(-log_a / math.exp(z[0]) if self.family == "power_law" else log_a) > 300

    def _at(self, z):
        """The shape parameters phi at z, the shape terms, and the
        compensator at A = 1."""
        phi = np.exp(z).tolist()
        theta = phi.copy()
        theta.insert(_AMPLITUDE[self.family], 1.0)
        cum = _cumulative(self.family, theta, self.grid)
        terms = _SHAPE_TERMS[self.family](self, z.tolist(), phi, cum)
        return phi, terms, float(self.packed.interval_rate @ self._increments(cum))

    def theta(self, z) -> tuple[float, ...]:
        """The family's parameters at z, with the amplitude at its maximum for
        the compensator that calling the object takes."""
        if np.maximum.reduce(abs(z), initial=0.0) <= 300:
            phi, _, compensator = self._at(z)
            if not self._outside(z, compensator):
                n = self.packed.n_events
                if self.family == "power_law":
                    return phi[0], (compensator / n) ** (1.0 / phi[0])
                return n / compensator, *phi
        raise ValueError(f"the {self.family} amplitude has no finite maximum at the "
                         "optimum the search returned")

    def __call__(self, z):
        """The value and its gradient in z; (inf, 0) outside the search region."""
        fail = np.inf, np.zeros(len(z))
        if np.maximum.reduce(abs(z), initial=0.0) > 300:
            return fail
        _, (event, d_event, d_cum), compensator = self._at(z)
        if self._outside(z, compensator):
            return fail
        n = self.packed.n_events
        value = n * math.log(compensator) - event - self.const
        if not np.isfinite(value):
            return fail
        ratio, weights = n / compensator, self.packed.interval_rate
        grad = [ratio * float(weights @ self._increments(d)) - de
                for d, de in zip(d_cum, d_event)]
        return value, np.array(grad)


def fit_mle(units, family: str, *, multistarts: int = 5,
            max_iter: int = 2000) -> RecurrentFit:
    """Maximum-likelihood fit of a baseline family to exposure-adjusted units.

    Parameters are log-reparameterized to enforce positivity; the search
    runs on the profile likelihood, with the amplitude parameter in closed
    form, from ``multistarts`` jittered moment-based seeds with the
    amplitude coordinate dropped; the reported log-likelihood is the one at
    the returned parameters.  The HPP rate has the closed form (total
    events / total exposure) and is returned exactly.

    Parameters
    ----------
    units : sequence of EventSeries
        Each unit is observed over its own ``tau``; units may differ in it.
    family : str
        One of ``FAMILIES``.
    multistarts, max_iter :
        Search controls; the objective tolerance is ``TOLERANCE``.

    Returns
    -------
    RecurrentFit
        ``converged`` reflects the optimizer's own criteria; ``aic`` is
        ``2 * n_params - 2 * log_lik``.
    """
    if family not in FAMILY_PARAMS:
        raise ValueError(f"unknown family {family!r}")
    packed = _Packed(units)
    k = len(FAMILY_PARAMS[family])

    if family == "hpp":
        if packed.total_exposure <= 0:
            raise ValueError("total exposure is zero; HPP rate undefined")
        rate = packed.n_events / packed.total_exposure
        if rate <= 0:
            raise ValueError("no events observed; HPP rate estimate is zero")
        model = BaselineIntensityModel("hpp", (rate,))
        ll = packed.log_lik(model)
        stderr = (rate / np.sqrt(packed.n_events),) if packed.n_events else None
        return RecurrentFit(model, ll, 2 * k - 2 * ll, True, 0, stderr)

    if packed.n_events == 0:
        raise ValueError(f"no events across units; cannot fit the {family} family")

    # the jitter is drawn over the full parameter vector, amplitude slot
    # included, so the shape coordinates are those of the full-parameter starts
    slot = _AMPLITUDE[family]
    seed = np.insert(np.log(_moment_seed(family, packed)), slot, 0.0)
    z0s = [np.delete(z0, slot) for z0 in starts(seed, multistarts, 0.5, key=12345)]
    profile = _Profile(packed, family)
    _, z_hat, ok, iters = maximize(profile, z0s, TOLERANCE, max_iter)
    with quiet():  # the search met this optimum under the same error state
        model = BaselineIntensityModel(family, profile.theta(z_hat))
    ll = packed.log_lik(model)
    theta = np.array(model.theta)

    def negloglik_theta(th):
        if (th <= 0).any():
            return np.inf
        return -packed.log_lik_theta(family, th)

    stderr = numeric_stderr(negloglik_theta, theta, 1e-5 * (np.abs(theta) + 1e-8))
    return RecurrentFit(model, ll, 2 * k - 2 * ll, ok, iters, stderr)


def fit_manufacturer_level(event_times, fleet_exposure, family: str, **options) -> RecurrentFit:
    """Fit to manufacturer-level event times against summed fleet exposure.

    The fleet of per-vehicle processes sharing one baseline superposes to a
    single process with intensity ``lambda0(t) * X(t)`` where ``X`` is the
    summed exposure, so the fit reduces to a one-unit ``fit_mle``.
    """
    fleet = sum_schedules(fleet_exposure)
    series = EventSeries("fleet", np.asarray(event_times, dtype=float), fleet.tau, fleet)
    return fit_mle([series], family, **options)


def curve_table(model: BaselineIntensityModel, t_grid):
    """Baseline and cumulative baseline evaluated on a positive time grid."""
    t_grid = np.asarray(t_grid, dtype=float)
    return t_grid, baseline_intensity(model, t_grid), cumulative_baseline(model, t_grid)
