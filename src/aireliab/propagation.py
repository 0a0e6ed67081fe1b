"""Error-propagation point process for multi-module event logs.

Each module m has intensity

    lambda_m(t) = lambda0_m(t) + sum_n sum_{t_ni < t} jump * exp(-decay (t - t_ni))

where the baseline ``lambda0_m`` is a power-law intensity for the module's
own errors and the triggering sum runs over events of upstream modules n
feeding m.  The exponential kernel gives a closed-form compensator, so
log-likelihoods are exact, and a recursion over sorted event times, so
each evaluation costs O(N) in the number of events.  Scenario logs are
treated as independent replicates: likelihoods sum across them.

A module without in-edges is a power-law (or, in ``fit_independent_hpp``,
constant-rate) NHPP, and ``recurrent.fit_mle`` fits it: one unit per log,
holding the module's events at exposure 1 over the log's window.  The
search here is the one for modules with in-edges.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._optim import maximize, quiet, starts
from .datasets.exposure import constant_exposure
from .recurrent import BaselineIntensityModel, EventSeries, check_event_times, fit_mle

DEFAULT_SOURCES = {"localization": ("2d", "3d")}

#: relative objective tolerance of the maximum-likelihood search
TOLERANCE = 1e-8
#: the range the edge decay rates are searched in (see ``fit_ep``)
DECAY_BOUNDS = (0.05, 10.0)


@dataclass(frozen=True)
class InjectionWindow:
    """Interval and intensity multiplier for injected baseline errors."""

    start: float
    end: float
    prob: float

    def __post_init__(self):
        if not 0 <= self.start < self.end:
            raise ValueError("injection interval must satisfy 0 <= start < end")
        if not 0 <= self.prob <= 1:
            raise ValueError("injection probability must lie in [0, 1]")


@dataclass(frozen=True)
class ModuleEventLog:
    """Per-module event times over one observation window.

    ``sources`` maps a module to the upstream modules whose errors may
    propagate into it; the induced graph must be acyclic.
    """

    events: dict[str, np.ndarray]
    window: float
    sources: dict[str, tuple[str, ...]] = field(default_factory=dict)
    weather: str | None = None
    injection: dict[str, InjectionWindow] | None = None
    scenario_id: int | None = None

    def __post_init__(self):
        if not (np.isfinite(self.window) and self.window > 0):
            raise ValueError(f"window must be finite and > 0, got {self.window}")
        # checked next: a too-long injection is why simulated events overrun the window
        for name, win in (self.injection or {}).items():
            if win.end > self.window + 1e-9:
                raise ValueError(f"module {name}: injection interval exceeds the window")
        events = {}
        for name, times in self.events.items():
            times = np.asarray(times, dtype=float)
            try:
                check_event_times(times, self.window)
            except ValueError as err:
                raise ValueError(f"module {name}: {err}") from None
            events[name] = times
        object.__setattr__(self, "events", events)
        sources = {m: tuple(srcs) for m, srcs in self.sources.items()}
        object.__setattr__(self, "sources", sources)
        toposort(set(events) | set(sources), sources)  # raises on cycles

    @property
    def modules(self) -> tuple[str, ...]:
        return tuple(self.events)

    def n_events(self, module: str) -> int:
        return len(self.events[module])


def toposort(modules, sources) -> list[str]:
    """Modules ordered so that each follows its sources; raises ValueError on a cycle."""
    remaining = {m: set(sources.get(m, ())) & set(modules) for m in modules}
    order = []
    while remaining:
        ready = sorted(m for m, deps in remaining.items() if not deps)
        if not ready:
            raise ValueError(f"dependency map contains a cycle among {sorted(remaining)}")
        for m in ready:
            order.append(m)
            del remaining[m]
        for deps in remaining.values():
            deps.difference_update(ready)
    return order


@dataclass(frozen=True)
class EPModel:
    """Power-law baselines per module plus exponential triggering per edge.

    ``baseline[m] = (shape, scale)``; ``edges[(target, source)] = (jump, decay)``
    with jump >= 0 and decay > 0; every parameter is finite.
    """

    baseline: dict[str, tuple[float, float]]
    edges: dict[tuple[str, str], tuple[float, float]] = field(default_factory=dict)

    def __post_init__(self):
        for m in self.baseline:
            try:
                self.module_baseline(m)
            except ValueError as err:
                raise ValueError(f"module {m}: {err}") from None
        for (tgt, src), (jump, decay) in self.edges.items():
            if not (np.isfinite(jump) and np.isfinite(decay) and jump >= 0 and decay > 0):
                raise ValueError(f"edge {src}->{tgt}: need a finite jump >= 0 and decay > 0")
            if tgt not in self.baseline:
                raise ValueError(f"edge targets unknown module {tgt!r}")

    def module_baseline(self, module: str) -> BaselineIntensityModel:
        return BaselineIntensityModel("power_law", self.baseline[module])


class _ExpKernel:
    """Unit exponential-kernel sums of sorted source streams at fixed queries.

    ``sources[k]`` is the ascending source stream of segment k (one
    scenario log) and ``queries[k]`` holds that segment's query times in
    any order.  For a decay rate b > 0, ``trigger(b)`` returns

        A(q) = sum_{s < q} exp(-b (q - s))

    and ``compensator(b)`` its integral over (0, q],

        C(q) = sum_{s < q} (1 - exp(-b (q - s))) / b,

    each over the sources of the query's own segment, in O(N_src + N_query)
    per call.  Sources tied with q contribute nothing.

    Each source is binned to the first query strictly after it.  With a
    segment's queries sorted, q_0 <= q_1 <= ..., d_i = exp(-b (q_i - q_{i-1}))
    and k_i the number of sources before q_i,

        A(q_i) = d_i A(q_{i-1}) + sum_{s in bin i} exp(-b (q_i - s))
        b C(q_i) = d_i b C(q_{i-1}) + k_{i-1} (1 - d_i)
                   + sum_{s in bin i} (1 - exp(-b (q_i - s))).

    Both recursions x_i = d_i x_{i-1} + c_i form one unit lower-bidiagonal
    system over all segments (d = 0 where a segment starts), solved by
    forward substitution (BLAS tbsv).  Each step adds non-negative terms,
    so nothing cancels, and every factor comes from a difference of nearby
    times.

    Everything that does not depend on b is prepared once, so a fit that
    evaluates one kernel thousands of times pays only the arithmetic: the
    negated source gaps and query steps (a call multiplies them by b), the
    F-order band buffer that tbsv reads, filled in place, and whether the
    queries arrived sorted, in which case the results need no reordering.
    """

    def __init__(self, sources, queries):
        queries = [np.asarray(q, dtype=float).ravel() for q in queries]
        first = np.cumsum([0] + [q.size for q in queries])
        self.size = int(first[-1])
        self.pos = np.zeros(self.size, dtype=int)  # sorted slot of each query
        step = np.full(self.size, np.inf)  # from the previous query
        self.carried = np.zeros(self.size)  # sources before the previous query
        bins, gaps = [np.zeros(0, dtype=int)], [np.zeros(0)]
        for k, (q, s) in enumerate(zip(queries, sources)):
            if not q.size:
                continue
            lo, hi = first[k], first[k + 1]
            s = np.asarray(s, dtype=float)
            order = np.argsort(q, kind="stable")
            q = q[order]
            self.pos[lo + order] = np.arange(lo, hi)
            step[lo + 1:hi] = np.diff(q)
            self.carried[lo + 1:hi] = np.searchsorted(s, q[:-1], side="left")
            nxt = np.searchsorted(q, s, side="right")
            used = nxt < q.size  # sources after the last query never count
            bins.append(lo + nxt[used])
            gaps.append(q[nxt[used]] - s[used])
        self.bins = np.concatenate(bins)
        self.neg_gaps = -np.concatenate(gaps)
        self.neg_step = -step
        self.in_order = bool((self.pos == np.arange(self.size)).all())
        # with at most one query per segment (as at window ends) there is
        # nothing to carry between queries
        self.chained = bool(np.isfinite(step).any())
        if self.chained:
            from scipy.linalg import blas

            self._tbsv = blas.dtbsv
            self._band = np.zeros((2, self.size), order="F")
            self._factors = np.empty(self.size - 1)  # the d_i, formed contiguously

    def trigger(self, decay: float) -> np.ndarray:
        binned = np.bincount(self.bins, weights=np.exp(decay * self.neg_gaps),
                             minlength=self.size)
        return self._unroll(binned, decay)

    def compensator(self, decay: float) -> np.ndarray:
        binned = np.bincount(self.bins, weights=-np.expm1(decay * self.neg_gaps),
                             minlength=self.size)
        if self.chained:
            binned = binned + self.carried * -np.expm1(decay * self.neg_step)
        return self._unroll(binned, decay) / decay

    def _unroll(self, c, decay):
        """x_i = d_i x_{i-1} + c_i over the sorted queries, returned in input order.

        ``c`` is overwritten.
        """
        if self.chained:
            d = np.exp(np.multiply(self.neg_step[1:], decay, out=self._factors), out=self._factors)
            np.negative(d, out=self._band[1, :-1])
            c = self._tbsv(1, self._band, c, lower=1, diag=1, overwrite_x=1)
        return c if self.in_order else c[self.pos]


class _ModuleIntensity:
    """One module's intensity and its integral at fixed query times.

    ``queries[k]`` holds the query times in ``logs[k]``; the triggering
    part of the intensity at a query sums over the upstream events of
    that query's own log.  With p = (shape, scale, then jump and decay per
    source in ``source_names``), ``intensity(p)`` gives lambda at each
    query and ``compensator(p)`` its integral over (0, q]:

        lambda(q) = (shape / scale) (q / scale)^(shape - 1) + sum_n jump_n A_n(q)
        Lambda(q) = (q / scale)^shape + sum_n jump_n C_n(q)

    with A_n and C_n the unit sums of the source's ``_ExpKernel``,
    prepared once here.  The query arrays are flattened and laid out in
    log order, and so are the results.
    """

    def __init__(self, logs, source_names, queries):
        queries = [q.ravel() for q in queries]
        # no logs: an empty sum
        self.times = np.concatenate([np.zeros(0), *queries])
        self.kernels = [_ExpKernel([log.events.get(src, np.array([])) for log in logs], queries)
                        for src in source_names]

    def intensity(self, p):
        shape, scale = p[0], p[1]
        lam = (shape / scale) * (self.times / scale) ** (shape - 1.0)
        for i, kernel in enumerate(self.kernels):
            lam += p[2 + 2 * i] * kernel.trigger(p[3 + 2 * i])
        return lam

    def compensator(self, p, reduce=np.asarray):
        """Lambda at the queries, or with ``reduce`` its baseline and each
        source's term reduced before they are added."""
        total = reduce((self.times / p[1]) ** p[0])
        for i, kernel in enumerate(self.kernels):
            total = total + p[2 + 2 * i] * reduce(kernel.compensator(p[3 + 2 * i]))
        return total


def _module_params(model: EPModel, module: str):
    """The sources of ``module``'s in-edges and its p = (shape, scale, then
    jump and decay per source), as ``_ModuleIntensity`` takes them."""
    if module not in model.baseline:
        raise KeyError(f"unknown module {module!r}")
    in_edges = {src: edge for (tgt, src), edge in model.edges.items() if tgt == module}
    return list(in_edges), np.concatenate([model.baseline[module], *in_edges.values()])


def ep_intensity(model: EPModel, log: ModuleEventLog, module: str, t):
    """Overall intensity of ``module`` at time(s) t > 0, given the log's history."""
    sources, p = _module_params(model, module)
    t = np.asarray(t, dtype=float)
    if not (t > 0).all():
        raise ValueError("baseline intensity requires t > 0")
    total = np.reshape(_ModuleIntensity([log], sources, [t]).intensity(p), t.shape)
    return total if total.ndim else float(total)


def expected_counts(model: EPModel, log: ModuleEventLog, module: str, grid):
    """Expected cumulative event counts of ``module`` on a time grid (t >= 0).

    The triggering part conditions on the log's observed upstream events,
    so models without edges reduce to their baseline cumulative intensity.
    """
    sources, p = _module_params(model, module)
    grid = np.asarray(grid, dtype=float)
    if not (grid >= 0).all():
        raise ValueError("cumulative baseline requires t >= 0")
    return np.reshape(_ModuleIntensity([log], sources, [grid]).compensator(p), grid.shape)


def _as_logs(logs) -> list[ModuleEventLog]:
    return [logs] if isinstance(logs, ModuleEventLog) else list(logs)


def _fit_layout(logs):
    """The logs as a list, with the modules (in the first log's order) and
    the sources they all share; raises ValueError on no logs or on the
    first log whose modules or sources differ from the first log's."""
    logs = _as_logs(logs)
    if not logs:
        raise ValueError("no logs supplied")
    first = logs[0]
    for i, log in enumerate(logs[1:], 1):
        if set(log.events) != set(first.events):
            raise ValueError(f"log {i} holds modules {sorted(log.events)}, "
                             f"log 0 holds {sorted(first.events)}")
        if log.sources != first.sources:
            raise ValueError(f"log {i} has sources {log.sources}, log 0 has {first.sources}")
    return logs, list(first.events), first.sources


@quiet()
def ep_log_likelihood(model: EPModel, logs) -> float:
    """Sum over modules (and scenario logs) of event terms minus compensators.

    Each module's term is the one its fit maximises (``_module_loglik`` at
    the module's parameters), summed in ``model.baseline`` order, so the
    fitters report exactly this function of the model they return.
    """
    logs = _as_logs(logs)
    total = 0.0
    for module in model.baseline:
        sources, p = _module_params(model, module)
        term = _module_loglik(module, logs, sources)(p)
        if not np.isfinite(term):
            raise ValueError(f"module {module}: log-likelihood is not finite (intensity is "
                             f"zero at an observed event time, or a term overflows)")
        total += term
    return float(total)


@dataclass(frozen=True)
class EPFit:
    """Fitted propagation model with per-module diagnostics."""

    model: EPModel
    log_lik: float
    aic: float
    converged: bool
    iterations: int
    per_module: dict[str, float]


def _module_loglik(module, logs, source_names):
    """Log-likelihood of ``module`` as a function of its parameters.

    The parameter vector is p = (shape, scale, then jump and decay per
    source); the result is not finite where an intensity at an event is
    <= 0 or the compensator overflows.

    Built once per fit: one ``_ModuleIntensity`` at the module's own
    events and one at each log's window end, so a call runs only array
    arithmetic, under the error state its caller sets.  The compensator
    adds the baseline summed over logs, then each source's jump times its
    summed kernel.
    """
    at_events = _ModuleIntensity(logs, source_names,
                                 [log.events.get(module, np.array([])) for log in logs])
    at_windows = _ModuleIntensity(logs, source_names, [np.array([log.window]) for log in logs])

    def loglik(p):
        comp = at_windows.compensator(p, lambda values: float(np.add.reduce(values)))
        # an intensity <= 0 at an event (log -inf or nan) or a
        # non-finite compensator leaves the total non-finite
        return float(np.add.reduce(np.log(at_events.intensity(p)))) - comp

    return loglik


def _module_objective(module, logs, source_names):
    """Negative log-likelihood of ``module`` and the map from its parameters.

    The parameter vector is z = (log shape, log scale, then log jump and
    log decay per source); decays are clipped to ``DECAY_BOUNDS``.  The
    clip bounds are two vectors, so a call maps z to every parameter with
    one ``exp(minimum(maximum(z, lo), hi))``.
    """
    loglik = _module_loglik(module, logs, source_names)
    lo = np.full(2 + 2 * len(source_names), -np.inf)
    hi = np.full(lo.size, np.inf)
    lo[3::2], hi[3::2] = np.log(DECAY_BOUNDS[0]), np.log(DECAY_BOUNDS[1])

    def params(z):
        return np.exp(np.minimum(np.maximum(z, lo), hi))

    def unpack(z):
        p = params(z)
        return p[0], p[1], list(zip(p[2::2], p[3::2]))

    def negloglik(z):
        if np.abs(z).max() > 50:
            return np.inf
        total = loglik(params(z))
        return -total if np.isfinite(total) else np.inf

    return negloglik, unpack


def _fit_module(module, logs, source_names, family="power_law", *, multistarts=3,
                max_iter=4000):
    """Fit one module's baseline and in-edges, as ``_assemble`` takes them.

    A module without in-edges is fitted by ``recurrent.fit_mle`` of
    ``family`` ("power_law" or "hpp"), with one unit per log that holds the
    module's events at exposure 1 over the log's window.  Its baseline is
    the power law's theta, or (1, 1 / rate) for the hpp, and its
    log-likelihood is ``_module_loglik`` at that baseline.
    """
    n_own = sum(len(log.events.get(module, ())) for log in logs)
    if n_own == 0:
        raise ValueError(f"module {module}: no events to fit")
    if not source_names:
        units = [EventSeries(str(k), log.events[module], log.window,
                             constant_exposure(1.0, log.window)) for k, log in enumerate(logs)]
        fit = fit_mle(units, family, multistarts=multistarts, max_iter=max_iter)
        theta = fit.model.theta
        baseline = theta if family == "power_law" else (1.0, 1.0 / theta[0])
        return (baseline, (), _module_loglik(module, logs, ())(np.array(baseline)),
                fit.converged, fit.iterations)
    n_src = sum(len(log.events.get(src, ())) for log in logs for src in source_names)
    total_window = float(sum(log.window for log in logs))
    negloglik, unpack = _module_objective(module, logs, source_names)

    # seeds: unit-shape power law matching the event rate; mild triggering
    # with the decay at the geometric midpoint of its bounds
    seed = [0.0, np.log(total_window / n_own)]
    decay0 = float(np.sqrt(DECAY_BOUNDS[0] * DECAY_BOUNDS[1]))
    jump0 = max(0.3 * decay0 * n_own / max(n_src, 1), 1e-3)
    for _ in source_names:
        seed.extend([np.log(jump0), np.log(decay0)])
    fun, z_hat, ok, iters = maximize(negloglik, starts(seed, multistarts, 0.5, key=2024),
                                     TOLERANCE, max_iter)
    shape, scale, edges = unpack(z_hat)
    return (shape, scale), list(zip(source_names, edges)), -fun, ok, iters


def _assemble(modules, fit_module, n_baseline: int = 2) -> EPFit:
    """The EPFit of ``fit_module(m)`` for each module, in module order.

    ``fit_module`` returns the module's baseline, its in-edges as
    (source, (jump, decay)) pairs, its log-likelihood, whether it converged
    and its iterations.  Each baseline has ``n_baseline`` free parameters.
    """
    baseline, edges, per_module = {}, {}, {}
    total_ll, iterations, converged = 0.0, 0, True
    for m in modules:
        baseline[m], in_edges, per_module[m], ok, iters = fit_module(m)
        edges.update(((m, src), e) for src, e in in_edges)
        total_ll += per_module[m]
        iterations += iters
        converged = converged and ok
    k = n_baseline * len(modules) + 2 * len(edges)
    return EPFit(EPModel(baseline, edges), total_ll, 2 * k - 2 * total_ll, converged,
                 iterations, per_module)


def fit_ep(logs, *, multistarts: int = 3, max_iter: int = 4000) -> EPFit:
    """Maximum-likelihood fit of the propagation model to scenario logs.

    The likelihood separates by target module, so each module's baseline
    and incoming-edge parameters are fitted independently.  Jump sizes are
    free to approach zero, in which case the model collapses to
    independent power-law processes.  Decay rates are searched within
    ``DECAY_BOUNDS`` = (0.05, 10): an unconstrained decay admits a
    degenerate ridge where an arbitrarily tall, arbitrarily narrow kernel
    chases single coincidences at no compensator cost.  Every log must
    hold the same modules under the same sources, as in the other fitters.
    """
    logs, modules, sources = _fit_layout(logs)
    return _assemble(modules, lambda m: _fit_module(
        m, logs, tuple(s for s in sources.get(m, ()) if s in modules),
        multistarts=multistarts, max_iter=max_iter))


def fit_independent_nhpp(logs, *, multistarts: int = 3, max_iter: int = 4000) -> EPFit:
    """Independent power-law fit per module (no triggering edges).

    Each module is fitted as ``fit_ep`` fits a module without in-edges,
    with the same search options, hence the same result.
    """
    logs, modules, _ = _fit_layout(logs)
    return _assemble(modules, lambda m: _fit_module(m, logs, (), multistarts=multistarts,
                                                    max_iter=max_iter))


@quiet()
def fit_independent_hpp(logs) -> EPFit:
    """Constant-rate fit per module: a power law with shape fixed at 1."""
    logs, modules, _ = _fit_layout(logs)
    return _assemble(modules, lambda m: _fit_module(m, logs, (), "hpp"), n_baseline=1)


def evaluate_mae(model: EPModel, logs, grid) -> float:
    """Mean absolute error of ``expected_counts`` under ``model`` against
    observed cumulative counts.  The mean runs over held-out logs, their
    modules, and grid points.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.size == 0:
        raise ValueError("prediction grid is empty")
    errors = []
    for log in _as_logs(logs):
        for module in log.events:
            observed = np.searchsorted(log.events[module], grid, side="right")
            errors.append(np.abs(expected_counts(model, log, module, grid) - observed))
    return float(np.mean(np.concatenate(errors)))


def compensator_transform(model: EPModel, log: ModuleEventLog, module: str) -> np.ndarray:
    """Inter-arrival times after the time-rescaling transform.

    Under the true model the transformed gaps are independent Exp(1)
    draws, which is the basis of the goodness-of-fit check.
    """
    values = expected_counts(model, log, module, log.events.get(module, np.zeros(0)))
    return np.diff(np.concatenate([[0.0], values]))
