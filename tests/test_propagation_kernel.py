"""The O(N) exponential kernel of ``propagation`` against the dense reference.

The reference below is the direct N_query x N_src evaluation: every
source-query gap is formed explicitly, and the fit objective is built
from flattened gap tables.  Each property holds the fast path to 1e-10
relative on generated logs that include tied source/own times, empty
source streams, single events and events at t = window.
"""

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from aireliab.propagation import (
    DEFAULT_SOURCES,
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
    negloglik, _ = _module_objective("localization", logs, SOURCES, DECAY_BOUNDS)
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
    negloglik, _ = _module_objective("localization", [log], SOURCES, DECAY_BOUNDS)
    reference, magnitude = dense_module_negloglik("localization", [log], SOURCES, DECAY_BOUNDS)(z)
    assert_close(negloglik(z), reference, magnitude)
