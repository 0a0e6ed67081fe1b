"""Negative controls and determinism for the benchmark's own checks.

Run from the root of a checkout:

    python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import json

import numpy as np
import pytest

import run
import tracing
import workloads
from aireliab import datasets, propagation, recurrent, simulate
from workloads import Context, Job

DATA = run.DATA


# ---------------------------------------------------------------------------
# ep-scale: MLE dominance on the localization module


def ep_logs(window: float, seed: int):
    spec = workloads.ep_spec(window)
    model = workloads.model_from_spec(spec)
    logs = []
    for idx, scenario in enumerate(spec["scenarios"], start=1):
        injection = {m: propagation.InjectionWindow(*v) for m, v in scenario["injection"].items()}
        logs.append(simulate.simulate_ep_cascade(
            model, propagation.DEFAULT_SOURCES, window, injection,
            seed=workloads.sub_seed(seed, idx), scenario_id=idx))
    return logs


@pytest.fixture(scope="module")
def recoverable_ep():
    """A W = 50 log on which the fit reaches the generator's likelihood."""
    logs = ep_logs(50.0, 2)
    return logs, propagation.fit_ep(logs)


def fit_payload(model, edge=None):
    """``model`` as ep_model.json writes it, optionally with every edge set to ``edge``."""
    return {"baseline": {m: list(v) for m, v in model.baseline.items()},
            "edges": {f"{s}->{t}": list(edge or v) for (t, s), v in model.edges.items()}}


def test_ep_fit_dominates_generator_on_recoverable_log(recoverable_ep):
    logs, fit = recoverable_ep
    model = workloads.model_from_fit(fit_payload(fit.model))
    assert model == fit.model
    ok, fit_ll, gen_ll = workloads.check_ep_dominance(model, logs)
    assert ok, (fit_ll, gen_ll)


def test_ep_check_fails_on_wrong_edges(recoverable_ep):
    logs, fit = recoverable_ep
    wrong = workloads.model_from_fit(fit_payload(fit.model, edge=(0.07, 0.05)))
    ok, _, _ = workloads.check_ep_dominance(wrong, logs)
    assert not ok


def test_ep_job_check_reports_shortfall_and_mae(tmp_path, recoverable_ep):
    logs, fit = recoverable_ep
    log_path = tmp_path / "module_errors.csv"
    records = [r for log in logs for r in simulate.module_error_records(log)]
    datasets.dump(records, "module_error", log_path)
    out = tmp_path / "fit"
    out.mkdir()
    (out / "ep_model.json").write_text(json.dumps(fit_payload(fit.model, edge=(0.07, 0.05))))
    (out / "mae.csv").write_text("model,1,overall\nhpp,1,2.5\nnhpp,1,2.0\nep,1,1.5\n")
    job = Job("w50.r0.fit-ep", [], out, {"kind": "fit-ep", "log": log_path, "window": 50})
    outcome = workloads.EPScale().check(job)
    assert len(outcome.failures) == 1 and "short of generator" in outcome.failures[0]
    assert outcome.figures["ep_holdout_mae"] == 1.5


# ---------------------------------------------------------------------------
# dmv-fleet: MLE dominance for weibull_growth


@pytest.fixture(scope="module")
def fleet_units():
    table = datasets.MonthTable(datasets.load(DATA / "disengagements" / "months.csv", "month"))
    rng = np.random.default_rng(5)
    rows = [datasets.MileageRow("Acme", f"V{i}", tuple(np.round(rng.uniform(0.3, 2.5, 24), 3)))
            for i in range(150)]
    model = recurrent.BaselineIntensityModel(*workloads.DMV_TRUTH)
    return simulate.simulate_fleet(model, datasets.derive_exposure(rows, table), table.tau, 9)


def test_recurrent_fit_dominates_generator(fleet_units):
    fit = recurrent.fit_mle(fleet_units, "weibull_growth")
    ok, fit_ll, gen_ll = workloads.check_recurrent_dominance(fit.model.theta, fleet_units,
                                                             workloads.DMV_TRUTH)
    assert ok, (fit_ll, gen_ll)


def test_recurrent_check_fails_on_scaled_theta(fleet_units):
    fit = recurrent.fit_mle(fleet_units, "weibull_growth")
    scaled = [1.5 * v for v in fit.model.theta]
    ok, _, _ = workloads.check_recurrent_dominance(scaled, fleet_units, workloads.DMV_TRUTH)
    assert not ok


# ---------------------------------------------------------------------------
# bundled-cli: one-sided checks against recorded values


def bundled_job(tmp_path, kind, name, files):
    out = tmp_path / name
    out.mkdir()
    for file_name, payload in files.items():
        (out / file_name).write_text(json.dumps(payload))
    return Job(name, [], out, {"kind": kind})


@pytest.mark.parametrize("value, fails", [(-10.0, False), (-9.0, False), (-10.5, True)])
def test_bundled_log_lik_must_not_drop(tmp_path, value, fails):
    workload = workloads.BundledCLI({"fit-ep": {"ep_model.json:log_lik": -10.0}})
    job = bundled_job(tmp_path, "fit-ep", "fit-ep", {"ep_model.json": {"log_lik": value}})
    assert bool(workload.check(job).failures) == fails


@pytest.mark.parametrize("value, fails", [(4.0, False), (3.5, False), (4.0 * 1.5, True)])
def test_bundled_lhd_criterion_must_not_rise(tmp_path, value, fails):
    workload = workloads.BundledCLI({"design-lhd-n50": {"design.json:criterion": 4.0}})
    job = bundled_job(tmp_path, "design-lhd", "design-lhd-n50", {"design.json": {"criterion": value}})
    assert bool(workload.check(job).failures) == fails


def test_bundled_check_fails_on_missing_fit_file(tmp_path):
    workload = workloads.BundledCLI({"fit-recurrent-vehicle-hpp": {
        "fit-a.json:log_lik": -1.0, "fit-b.json:log_lik": -2.0}})
    job = bundled_job(tmp_path, "fit-recurrent", "fit-recurrent-vehicle-hpp",
                      {"fit-a.json": {"log_lik": -1.0}})
    assert workload.check(job).failures


def test_reference_covers_every_recorded_bundled_job():
    reference = json.loads(workloads.REFERENCE.read_text())
    specs = workloads.BundledCLI().job_specs(DATA)
    recorded_kinds = {"fit-recurrent", "fit-ep", "fit-srgm", "design-lhd"}
    assert {name for name, _, meta in specs if meta["kind"] in recorded_kinds} == set(reference)


def test_validation_check_fails_on_violation(tmp_path):
    data = tmp_path / "in.csv"
    data.write_text("a\n1\n2\n")
    out = tmp_path / "out"
    out.mkdir()
    (out / "report.json").write_text(json.dumps({"rows": 2, "violations": [{"row": 1}]}))
    outcome = workloads.Outcome()
    workloads.check_validation(Job("v", [], out, {"file": data}), outcome)
    assert outcome.failures and outcome.counts == {"rows_parsed": 2}


def test_nonzero_exit_counts_as_failed_job():
    job = Job("alt-af", [], None, {"kind": "alt-af"})
    done = run.Pass([job], [0.1], [1], 0.1)
    check = run.check_pass(workloads.BundledCLI({}), done)
    assert run.failed_jobs(check.failures) == {"alt-af"} and not check.broken


# ---------------------------------------------------------------------------
# determinism, exact-repeat counts, metrics arithmetic


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_setup_from_one_seed_is_byte_identical(tmp_path, name):
    digests = []
    for i in range(2):
        ctx = Context(tmp_path / str(i), 4, 1, DATA)
        workloads.WORKLOADS[name]().setup(ctx)
        digests.append(run.tree_digest(ctx.inputs))
    assert digests[0] == digests[1]


def test_setup_differs_between_seeds(tmp_path):
    digests = []
    for seed in (4, 5):
        ctx = Context(tmp_path / str(seed), seed, 1, DATA)
        workloads.DMVFleet().setup(ctx)
        digests.append(run.tree_digest(ctx.inputs))
    assert digests[0] != digests[1]


def test_ledger_flags_a_changed_count(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT", tmp_path)
    assert run.ledger_check("w", 1, "abc", {"a": 1}) == []
    assert run.ledger_check("w", 1, "abc", {"a": 1, "b": 2}) == []
    assert run.ledger_check("w", 1, "abc", {"a": 1, "b": 3})
    assert run.ledger_check("w", 2, "abc", {"a": 5}) == []


def test_tail_percentile_keeps_ten_samples_beyond():
    assert run.tail_percentile(list(range(19))) is None
    value, pct = run.tail_percentile([float(i) for i in range(1, 25)])
    assert pct == 58 and sum(1 for t in range(1, 25) if t > value) >= 10
    value, pct = run.tail_percentile([float(i) for i in range(1, 101)])
    assert pct == 90 and value == 90.0


def span(job, parent, start, end, layer="datasets"):
    return tracing.Span("f", layer, "parse", job, parent, start, end)


def test_self_times_add_up_with_nested_and_overlapping_children():
    spans = [
        tracing.Span("job", "cli", "job", 0, None, 0.0, 10.0),
        span(0, 0, 1.0, 5.0),   # two overlapping children (thread pool)
        span(0, 0, 3.0, 7.0),
        span(0, 1, 2.0, 3.0),   # nested inside the first child
    ]
    own = tracing.self_times(spans)
    assert sum(own) == pytest.approx(10.0)
    assert own[0] == pytest.approx(4.0)      # 0-1 and 7-10
    assert own[3] == pytest.approx(1.0)
    assert own[1] == pytest.approx(1.0 + 1.0)  # 1-2 alone, 3-5 shared
    assert own[2] == pytest.approx(1.0 + 2.0)  # 3-5 shared, 5-7 alone


def test_crashing_job_is_failed_and_reported(tmp_path):
    class Crashing:
        @staticmethod
        def main(argv):
            raise RuntimeError("boom")

    class OneJob:
        def jobs(self, ctx, pass_dir):
            return [Job("alt-af", [], pass_dir, {"kind": "alt-af"})]

    done = run.run_pass(Crashing, OneJob(), None, tmp_path)
    check = run.check_pass(workloads.BundledCLI({}), done)
    assert done.codes == [-1] and "crashed: RuntimeError('boom')" in check.failures[0]
    assert check.broken == check.failures


def test_benchmark_json_matches_the_printed_metrics():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.GATED)
    assert [m["name"] for m in spec["per_layer"]] == \
        list(run.FINAL_LAYER_METRICS + run.FINAL_COUNTS)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
