"""The O(N) exponential kernel of ``propagation`` against the dense reference.

The reference below is the direct N_query x N_src evaluation: every
source-query gap is formed explicitly, and the fit objective is built
from flattened gap tables.  Each property holds the fast path to 1e-10
relative on generated logs that include tied source/own times, empty
source streams, single events and events at t = window.

The fit objective also has a bit-for-bit oracle: the objective and kernel
as they were before the kernel's b-free parts were prepared once per fit,
copied verbatim.  The prepared objective must return the same bits at
every z, so every fit takes the same path.
"""

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from scipy.linalg import blas

from aireliab._optim import maximize, starts
from aireliab.propagation import (
    DEFAULT_SOURCES,
    TOLERANCE,
    EPModel,
    ModuleEventLog,
    _module_objective,
    ep_intensity,
    ep_log_likelihood,
    expected_counts,
)
from aireliab.recurrent import baseline_intensity, cumulative_baseline

from conftest import PROPERTY

RTOL = 1e-10
MODULES = ("2d", "3d", "localization")
SOURCES = DEFAULT_SOURCES["localization"]
DECAY_BOUNDS = (0.05, 10.0)


# ---------------------------------------------------------------------------
# dense reference


def dense_trigger_sum(t, source_times, jump, decay):
    """sum over events strictly before t of jump * exp(-decay (t - s))."""
    t = np.asarray(t, dtype=float)
    if source_times.size == 0 or jump == 0.0:
        return np.zeros(t.shape)
    diff = np.subtract.outer(t, source_times)
    kernel = np.exp(-decay * diff, where=diff > 0, out=np.zeros_like(diff))
    return jump * np.sum(kernel * (diff > 0), axis=-1)


def dense_trigger_compensator(t, source_times, jump, decay):
    """Integral of the kernel over (0, t] for each source event."""
    t = float(t)
    if source_times.size == 0 or jump == 0.0:
        return 0.0
    dt = np.clip(t - source_times, 0.0, None)
    return float(jump / decay * np.sum(-np.expm1(-decay * dt)))


def in_edges(model, module):
    return [(src, jd) for (tgt, src), jd in model.edges.items() if tgt == module]


def dense_intensity(model, log, module, t):
    total = np.asarray(baseline_intensity(model.module_baseline(module), t), dtype=float)
    for src, (jump, decay) in in_edges(model, module):
        total = total + dense_trigger_sum(t, log.events.get(src, np.array([])), jump, decay)
    return total


def dense_expected_counts(model, log, module, grid):
    grid = np.asarray(grid, dtype=float)
    out = np.asarray(cumulative_baseline(model.module_baseline(module), grid), dtype=float)
    for src, (jump, decay) in in_edges(model, module):
        src_times = log.events.get(src, np.array([]))
        out = out + np.array([dense_trigger_compensator(g, src_times, jump, decay)
                              for g in grid.ravel()]).reshape(grid.shape)
    return out


def dense_log_likelihood(model, logs):
    """Log-likelihood and the sum of its terms' magnitudes."""
    total = magnitude = 0.0
    for log in logs:
        for module in model.baseline:
            times = log.events.get(module, np.array([]))
            log_lam = np.log(dense_intensity(model, log, module, times))
            comp = float(dense_expected_counts(model, log, module, [log.window])[0])
            total += float(np.sum(log_lam)) - comp
            magnitude += float(np.sum(np.abs(log_lam))) + comp
    return total, magnitude


def dense_module_negloglik(module, logs, source_names, decay_bounds):
    """The gap-table objective: one flattened table of positive gaps per edge.

    Returns a function of z giving the negative log-likelihood and the sum
    of its terms' magnitudes.
    """
    own = [log.events.get(module, np.array([])) for log in logs]
    n_own = sum(len(t) for t in own)
    windows = [log.window for log in logs]
    all_times = np.concatenate(own)
    offsets = np.cumsum([0] + [len(t) for t in own])
    edge_gaps, edge_rows, edge_wingaps = [], [], []
    for src in source_names:
        gaps, rows, wins = [], [], []
        for k, (times, log) in enumerate(zip(own, logs)):
            src_times = log.events.get(src, np.array([]))
            wins.append(np.clip(windows[k] - src_times, 0.0, None))
            if times.size and src_times.size:
                diff = np.subtract.outer(times, src_times)
                pos = diff > 0
                gaps.append(diff[pos])
                rows.append(np.nonzero(pos)[0] + offsets[k])
        edge_gaps.append(np.concatenate(gaps) if gaps else np.array([]))
        edge_rows.append(np.concatenate(rows) if rows else np.array([], dtype=int))
        edge_wingaps.append(np.concatenate(wins))
    lo_decay, hi_decay = np.log(decay_bounds[0]), np.log(decay_bounds[1])

    def negloglik(z):
        shape, scale = np.exp(z[0]), np.exp(z[1])
        lam = (shape / scale) * (all_times / scale) ** (shape - 1.0)
        comp = float(np.sum((np.asarray(windows) / scale) ** shape))
        for e in range(len(source_names)):
            jump = np.exp(z[2 + 2 * e])
            decay = np.exp(np.clip(z[3 + 2 * e], lo_decay, hi_decay))
            if edge_gaps[e].size:
                lam = lam + jump * np.bincount(
                    edge_rows[e], weights=np.exp(-decay * edge_gaps[e]), minlength=n_own)
            comp += jump / decay * float(np.sum(-np.expm1(-decay * edge_wingaps[e])))
        log_lam = np.log(lam)
        return comp - float(np.sum(log_lam)), comp + float(np.sum(np.abs(log_lam)))

    return negloglik


# ---------------------------------------------------------------------------
# bit-for-bit oracle: the unprepared kernel and objective, verbatim


class OracleExpKernel:
    def __init__(self, sources, queries):
        queries = [np.asarray(q, dtype=float).ravel() for q in queries]
        first = np.cumsum([0] + [q.size for q in queries])
        self.size = int(first[-1])
        self.pos = np.zeros(self.size, dtype=int)  # sorted slot of each query
        self.step = np.full(self.size, np.inf)  # from the previous query
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
            self.step[lo + 1:hi] = np.diff(q)
            self.carried[lo + 1:hi] = np.searchsorted(s, q[:-1], side="left")
            nxt = np.searchsorted(q, s, side="right")
            used = nxt < q.size  # sources after the last query never count
            bins.append(lo + nxt[used])
            gaps.append(q[nxt[used]] - s[used])
        self.bins = np.concatenate(bins)
        self.gaps = np.concatenate(gaps)
        # with at most one query per segment (as at window ends) there is
        # nothing to carry between queries
        self.chained = bool(np.isfinite(self.step).any())

    def trigger(self, decay: float) -> np.ndarray:
        binned = np.bincount(self.bins, weights=np.exp(-decay * self.gaps),
                             minlength=self.size)
        return self._unroll(binned, decay)

    def compensator(self, decay: float) -> np.ndarray:
        binned = np.bincount(self.bins, weights=-np.expm1(-decay * self.gaps),
                             minlength=self.size)
        if self.chained:
            binned = binned + self.carried * -np.expm1(-decay * self.step)
        return self._unroll(binned, decay) / decay

    def _unroll(self, c, decay):
        """x_i = d_i x_{i-1} + c_i over the sorted queries, returned in input order."""
        if not self.chained:
            return c[self.pos]
        band = np.zeros((2, self.size), order="F")
        band[1, :-1] = -np.exp(-decay * self.step[1:])
        return blas.dtbsv(1, band, c, lower=1, diag=1)[self.pos]


def oracle_module_objective(module, logs, source_names, decay_bounds):
    own = [log.events.get(module, np.array([])) for log in logs]
    windows = np.array([log.window for log in logs])
    all_times = np.concatenate(own)
    # per edge: trigger sums at the module's own events, compensators at
    # each log's window end
    kernels = [
        (OracleExpKernel(streams, own), OracleExpKernel(streams, windows[:, None]))
        for streams in ([log.events.get(src, np.array([])) for log in logs]
                        for src in source_names)
    ]
    lo_decay, hi_decay = np.log(decay_bounds[0]), np.log(decay_bounds[1])

    def unpack(z):
        shape, scale = np.exp(z[0]), np.exp(z[1])
        # scalar min/max: np.clip costs more than the kernel on short logs
        edges = [
            (np.exp(z[2 + 2 * i]), np.exp(min(max(z[3 + 2 * i], lo_decay), hi_decay)))
            for i in range(len(source_names))
        ]
        return shape, scale, edges

    def negloglik(z):
        if np.abs(z).max() > 50:
            return np.inf
        shape, scale, edges = unpack(z)
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            lam = (shape / scale) * (all_times / scale) ** (shape - 1.0)
            comp = float(np.sum((windows / scale) ** shape))
            for (jump, decay), (at_events, at_windows) in zip(edges, kernels):
                lam = lam + jump * at_events.trigger(decay)
                comp += jump * float(np.sum(at_windows.compensator(decay)))
            if (lam <= 0).any() or not np.isfinite(comp):
                return np.inf
            total = float(np.sum(np.log(lam))) - comp
        return -total if np.isfinite(total) else np.inf

    return negloglik, unpack


# ---------------------------------------------------------------------------
# generated logs and models


@st.composite
def logs_with_queries(draw, max_events=15):
    """A log whose streams share some times (ties) and may hit t = window.

    Returns the log and a list of query times in arbitrary order drawn the
    same way, so queries also tie with event times and the window end.
    """
    window = draw(st.floats(0.5, 40.0))
    shared = draw(st.lists(st.floats(1e-3, window), min_size=1, max_size=4)) + [window]
    time = st.one_of(st.sampled_from(shared), st.floats(1e-3, window))
    events = {m: np.sort(np.array(draw(st.lists(time, max_size=max_events)), dtype=float))
              for m in MODULES}
    queries = draw(st.lists(time, max_size=max_events))
    return ModuleEventLog(events, window, DEFAULT_SOURCES), np.array(queries, dtype=float)


@st.composite
def models(draw):
    baseline = {m: (draw(st.floats(0.3, 3.0)), draw(st.floats(0.2, 20.0))) for m in MODULES}
    edges = {("localization", src): (draw(st.floats(0.0, 5.0)), draw(st.floats(0.01, 20.0)))
             for src in SOURCES}
    return EPModel(baseline, edges)


def assert_close(value, reference, magnitude=None):
    magnitude = np.abs(reference) if magnitude is None else magnitude
    assert np.all(np.abs(np.asarray(value) - reference) <= RTOL * magnitude), (value, reference)


def edge_case_logs():
    """Hand-built logs covering the cases the properties must include."""
    tied = ModuleEventLog({"2d": np.array([1.0, 2.0, 2.0, 5.0]), "3d": np.array([2.0, 5.0]),
                           "localization": np.array([2.0, 3.0, 5.0])}, 5.0, DEFAULT_SOURCES)
    empty_sources = ModuleEventLog({"2d": np.array([]), "3d": np.array([]),
                                    "localization": np.array([0.5, 4.0])}, 4.0, DEFAULT_SOURCES)
    single = ModuleEventLog({"2d": np.array([1.5]), "3d": np.array([]),
                             "localization": np.array([3.0])}, 6.0, DEFAULT_SOURCES)
    at_window = ModuleEventLog({"2d": np.array([0.2, 8.0]), "3d": np.array([8.0]),
                                "localization": np.array([8.0])}, 8.0, DEFAULT_SOURCES)
    return [tied, empty_sources, single, at_window]


EDGE_MODEL = EPModel({m: (1.3, 2.0) for m in MODULES},
                     {("localization", src): (1.7, 0.8) for src in SOURCES})


# ---------------------------------------------------------------------------
# properties


@PROPERTY
@given(case=logs_with_queries(), model=models())
@example(case=(edge_case_logs()[0], np.array([5.0, 2.0, 1.0, 2.0, 3.0])), model=EDGE_MODEL)
@example(case=(edge_case_logs()[1], np.array([4.0, 0.5])), model=EDGE_MODEL)
def test_intensity_matches_dense(case, model):
    log, queries = case
    for module in MODULES:
        assert_close(ep_intensity(model, log, module, queries),
                     dense_intensity(model, log, module, queries))
        for t in queries[:3]:
            value = ep_intensity(model, log, module, float(t))
            assert isinstance(value, float)
            assert_close(value, dense_intensity(model, log, module, float(t)))


@PROPERTY
@given(case=logs_with_queries(), model=models())
@example(case=(edge_case_logs()[3], np.array([8.0, 0.0, 0.2, 8.0])), model=EDGE_MODEL)
def test_expected_counts_match_dense(case, model):
    log, queries = case
    grid = np.concatenate([queries, [0.0, log.window]])
    for module in MODULES:
        assert_close(expected_counts(model, log, module, grid),
                     dense_expected_counts(model, log, module, grid))


@PROPERTY
@given(cases=st.lists(logs_with_queries(), min_size=1, max_size=3), model=models())
def test_log_likelihood_matches_dense(cases, model):
    logs = [log for log, _ in cases]
    reference, magnitude = dense_log_likelihood(model, logs)
    assert_close(ep_log_likelihood(model, logs), reference, magnitude)


@PROPERTY
@given(cases=st.lists(logs_with_queries(), min_size=1, max_size=3),
       z=st.lists(st.floats(-3.0, 3.0), min_size=6, max_size=6))
def test_fit_objective_matches_gap_tables(cases, z):
    # log decays of +-3 reach both sides of the clip
    logs = [log for log, _ in cases]
    z = np.asarray(z)
    negloglik, _ = _module_objective("localization", logs, SOURCES)
    reference, magnitude = dense_module_negloglik("localization", logs, SOURCES, DECAY_BOUNDS)(z)
    assert_close(negloglik(z), reference, magnitude)


@pytest.mark.parametrize("index", range(4), ids=["tied", "empty-sources", "single", "at-window"])
def test_edge_case_logs_match_dense(index):
    log = edge_case_logs()[index]
    times = np.concatenate([log.events[m] for m in MODULES] + [[log.window]])
    queries = times[times > 0]
    for module in MODULES:
        assert_close(ep_intensity(EDGE_MODEL, log, module, queries),
                     dense_intensity(EDGE_MODEL, log, module, queries))
        assert_close(expected_counts(EDGE_MODEL, log, module, times),
                     dense_expected_counts(EDGE_MODEL, log, module, times))
    reference, magnitude = dense_log_likelihood(EDGE_MODEL, [log])
    assert_close(ep_log_likelihood(EDGE_MODEL, log), reference, magnitude)
    z = np.log([1.3, 2.0, 1.7, 0.8, 0.4, 3.0])
    negloglik, _ = _module_objective("localization", [log], SOURCES)
    reference, magnitude = dense_module_negloglik("localization", [log], SOURCES, DECAY_BOUNDS)(z)
    assert_close(negloglik(z), reference, magnitude)


# ---------------------------------------------------------------------------
# the prepared objective against its verbatim oracle, bit for bit


LOG_DECAY_BOUNDS = tuple(float(np.log(b)) for b in DECAY_BOUNDS)
GUARD = 50.0
# coordinates on both sides of the |z| > 50 guard and of both decay clips
EDGE_COORDINATES = [v + d for v in (-GUARD, GUARD, *LOG_DECAY_BOUNDS) for d in (-1e-9, 0.0, 1e-9)]
COORDINATE = st.one_of(st.floats(-4.0, 4.0), st.floats(-60.0, 60.0),
                       st.sampled_from(EDGE_COORDINATES))
SOURCE_SETS = [(), ("2d",), SOURCES, ("lidar", "3d")]  # "lidar" streams are empty


def bits(values):
    return np.array(values, dtype=float).view(np.int64)


def unpacked_bits(unpack, z):
    shape, scale, edges = unpack(z)
    return bits([shape, scale, *(v for edge in edges for v in edge)])


def late_source_logs():
    """Own streams that are empty, or that end before some source events."""
    late = ModuleEventLog({"2d": np.array([1.0, 4.0, 6.0]), "3d": np.array([0.5, 2.0, 5.5]),
                           "localization": np.array([2.0, 3.0])}, 6.0, DEFAULT_SOURCES)
    no_own = ModuleEventLog({"2d": np.array([1.0]), "3d": np.array([2.0]),
                             "localization": np.array([])}, 3.0, DEFAULT_SOURCES)
    return [late, no_own]


Z_EDGE = [[0.2, 0.5, -0.3, LOG_DECAY_BOUNDS[0] - 0.5, 0.1, LOG_DECAY_BOUNDS[1] + 0.5],
          [0.2, 0.5, GUARD + 1e-9, 0.0, 0.1, 0.0],
          [1.0, -2.0, 0.3, 1.0, -GUARD, LOG_DECAY_BOUNDS[1]]]


@PROPERTY
@given(cases=st.lists(logs_with_queries(), min_size=1, max_size=3),
       sources=st.sampled_from(SOURCE_SETS),
       zs=st.lists(st.lists(COORDINATE, min_size=6, max_size=6), min_size=1, max_size=4))
@example(cases=[(log, None) for log in edge_case_logs()[:2]], sources=SOURCES, zs=Z_EDGE)
@example(cases=[(log, None) for log in edge_case_logs()[2:]], sources=SOURCES, zs=Z_EDGE)
@example(cases=[(log, None) for log in late_source_logs()], sources=SOURCES, zs=Z_EDGE)
def test_prepared_objective_matches_oracle_bit_for_bit(cases, sources, zs):
    # several z per objective, so a buffer left stale by one call shows in the next
    logs = [log for log, _ in cases]
    negloglik, unpack = _module_objective("localization", logs, sources)
    oracle, oracle_unpack = oracle_module_objective("localization", logs, sources, DECAY_BOUNDS)
    for z in zs:
        z = np.array(z[:2 + 2 * len(sources)])
        value, expected = negloglik(z), oracle(z)
        assert bits(value) == bits(expected), (z, value, expected)
        with np.errstate(over="ignore"):
            assert np.array_equal(unpacked_bits(unpack, z), unpacked_bits(oracle_unpack, z))


def test_prepared_objective_search_matches_oracle(data_dir):
    from aireliab import datasets, simulate

    records = datasets.load(data_dir / "module-errors" / "module_errors.csv", "module_error")
    logs = list(simulate.module_event_log(records).values())
    z0 = starts([0.0, 0.5, -1.0, 0.0, -1.0, 0.0], 3, 0.5, key=2024)
    objectives = (_module_objective("localization", logs, SOURCES)[0],
                  oracle_module_objective("localization", logs, SOURCES, DECAY_BOUNDS)[0])
    runs = [maximize(objective, z0, TOLERANCE, 4000) for objective in objectives]
    (value, point, ok, iterations), expected = runs
    assert bits(value) == bits(expected[0])
    assert np.array_equal(bits(point), bits(expected[1]))
    assert (ok, iterations) == expected[2:]
