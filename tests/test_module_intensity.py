"""One intensity per EP module: the log-likelihood, the intensity and the
compensator are the same function, and they reject the same inputs.

``ep_log_likelihood`` sums, per module, the log intensity at the module's
events minus the compensator at the window end.  With one log, building
that sum from ``ep_intensity`` and ``expected_counts`` must give the
same bits; over several logs the fit sums its terms in another order, so
the two agree to rounding.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from aireliab.propagation import (
    EPModel,
    ModuleEventLog,
    compensator_transform,
    ep_intensity,
    ep_log_likelihood,
    evaluate_mae,
    expected_counts,
)
from aireliab.recurrent import BaselineIntensityModel, baseline_intensity, cumulative_baseline

from conftest import PROPERTY
from test_propagation_kernel import logs_with_queries, models


def terms(model, log):
    """Per-module log-intensity sums and compensators at the window end."""
    for module in model.baseline:
        log_lam = np.log(ep_intensity(model, log, module, log.events[module]))
        yield float(np.add.reduce(log_lam)), float(expected_counts(model, log, module,
                                                                   [log.window])[0])


@PROPERTY
@given(case=logs_with_queries(), model=models())
def test_one_log_likelihood_is_intensity_and_compensator_bit_for_bit(case, model):
    log, _ = case
    expected = 0.0
    for events, comp in terms(model, log):
        expected += events - comp
    assert ep_log_likelihood(model, [log]) == expected


@PROPERTY
@given(cases=st.lists(logs_with_queries(), min_size=2, max_size=4), model=models())
def test_several_logs_agree_with_intensity_and_compensator(cases, model):
    logs = [log for log, _ in cases]
    pairs = [pair for log in logs for pair in terms(model, log)]
    expected = sum(events - comp for events, comp in pairs)
    magnitude = sum(abs(events) + comp for events, comp in pairs)
    assert abs(ep_log_likelihood(model, logs) - expected) <= 1e-12 * magnitude


MODEL = EPModel({"a": (1.0, 2.0), "b": (1.3, 1.0)}, {("b", "a"): (0.5, 1.0)})
LOG = ModuleEventLog({"a": np.array([1.0, 2.5]), "b": np.array([3.0])}, 5.0, {"b": ("a",)})


@pytest.mark.parametrize("call", [
    lambda: ep_intensity(MODEL, LOG, "x", 1.0),
    lambda: expected_counts(MODEL, LOG, "x", [1.0]),
    lambda: compensator_transform(MODEL, LOG, "x"),
], ids=["ep_intensity", "expected_counts", "compensator_transform"])
def test_unknown_module_named_alike(call):
    with pytest.raises(KeyError) as err:
        call()
    assert err.value.args == ("unknown module 'x'",)


@pytest.mark.parametrize("module", ["a", "b"])
@pytest.mark.parametrize("call, message", [
    (lambda m, t: ep_intensity(MODEL, LOG, m, t), "baseline intensity requires t > 0"),
    (lambda m, t: expected_counts(MODEL, LOG, m, t), "cumulative baseline requires t >= 0"),
    (lambda m, t: evaluate_mae(MODEL, [LOG], t), "cumulative baseline requires t >= 0"),
], ids=["ep_intensity", "expected_counts", "evaluate_mae"])
@pytest.mark.parametrize("t", [np.nan, [1.0, np.nan]], ids=["scalar", "array"])
def test_nan_query_times_rejected(module, call, message, t):
    with pytest.raises(ValueError, match=message):
        call(module, t)


@pytest.mark.parametrize("function, message", [
    (baseline_intensity, "baseline intensity requires t > 0"),
    (cumulative_baseline, "cumulative baseline requires t >= 0"),
])
@pytest.mark.parametrize("t", [np.nan, [1.0, np.nan]], ids=["scalar", "array"])
def test_nan_times_rejected_by_the_baseline(function, message, t):
    with pytest.raises(ValueError, match=message):
        function(BaselineIntensityModel("power_law", (1.0, 2.0)), t)
