import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from aireliab.cli import DEFAULT_EP_SPEC, EXIT_OK, EXIT_VIOLATIONS, main

from conftest import REPO_ROOT


def run_cli(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_alt_af_lifetime_ratio(tmp_path, capsys):
    code, out, _ = run_cli(["alt-af", "--ln", "1000", "--la", "20",
                            "--out", str(tmp_path)], capsys)
    assert code == EXIT_OK
    assert out.strip() == "50"
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["command"] == "alt-af"
    assert manifest["version"]
    payload = json.loads((tmp_path / "alt.json").read_text())
    assert payload["acceleration_factor"] == 50.0


def test_alt_af_arrhenius(tmp_path, capsys):
    code, out, _ = run_cli(["alt-af", "--ea", "0.7", "--tuse", "300",
                            "--tstress", "350", "--out", str(tmp_path)], capsys)
    assert code == EXIT_OK
    assert abs(float(out.strip()) - 47.8) / 47.8 < 0.01


def test_alt_af_bad_inputs(tmp_path, capsys):
    code, _, err = run_cli(["alt-af", "--ln", "10", "--out", str(tmp_path)], capsys)
    assert code == 1
    assert "error" in err


def test_out_naming_a_file_is_an_error_line(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("kept\n", encoding="utf-8")
    code, out, err = run_cli(["alt-af", "--ln", "10", "--la", "2", "--out", str(taken)], capsys)
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and str(taken) in err and err.count("\n") == 1
    assert taken.read_text(encoding="utf-8") == "kept\n"
    assert list(tmp_path.iterdir()) == [taken]


def test_validate_conforming_file_exit_zero(tmp_path, capsys, data_dir):
    path = data_dir / "mixture-robustness" / "mixture.csv"
    code, out, _ = run_cli(["validate", str(path), "--schema", "mixture",
                            "--out", str(tmp_path)], capsys)
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["violations"] == []
    assert (tmp_path / "report.json").exists()


def test_validate_violations_exit_two(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text(
        "x1,x2,x3,z1,z2,c1,c2,c3,y1,y2\n0.7,0.25,0.25,1,0,1,0,0,0.9,-2.5\n",
        encoding="utf-8",
    )
    code, out, _ = run_cli(["validate", str(bad), "--schema", "mixture",
                            "--out", str(tmp_path / "o")], capsys)
    assert code == EXIT_VIOLATIONS
    report = json.loads((tmp_path / "o" / "report.json").read_text())
    assert report["violations"][0]["rule"] == "simplex sum"


def test_unknown_flag_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["alt-af", "--nope", "5"])
    assert exc.value.code == 2


def test_unknown_subcommand_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_summarize_by_dataset_name(tmp_path, capsys, data_dir, monkeypatch):
    monkeypatch.setenv("AIR_DATA_ROOT", str(data_dir))
    code, out, _ = run_cli(["summarize", "ai-incidents", "--out", str(tmp_path)], capsys)
    assert code == EXIT_OK
    summary = json.loads(out)
    assert summary["rows"] == 72
    assert (tmp_path / "summary.json").exists()


def test_summarize_by_path_autodetects_schema(tmp_path, capsys, data_dir):
    path = data_dir / "disengagements" / "disengagements.csv"
    code, out, _ = run_cli(["summarize", str(path), "--out", str(tmp_path)], capsys)
    assert code == EXIT_OK
    assert json.loads(out)["schema"] == "disengagement"


def test_design_lhd_deterministic(tmp_path, capsys):
    args = ["design-lhd", "--n", "4", "--p", "2", "--seed", "7", "--budget", "2000"]
    code1, _, _ = run_cli(args + ["--out", str(tmp_path / "a")], capsys)
    code2, _, _ = run_cli(args + ["--out", str(tmp_path / "b")], capsys)
    assert code1 == code2 == EXIT_OK
    assert (tmp_path / "a" / "design.csv").read_bytes() == \
        (tmp_path / "b" / "design.csv").read_bytes()
    sidecar = json.loads((tmp_path / "a" / "design.json").read_text())
    assert sidecar == {"n": 4, "p": 2, "k": 15, "m": 2.0,
                       "criterion": sidecar["criterion"], "seed": 7}
    rows = (tmp_path / "a" / "design.csv").read_text().strip().splitlines()
    assert len(rows) == 4 and len(rows[0].split(",")) == 2


def test_fit_recurrent_vehicle_level(tmp_path, capsys, data_dir):
    base = data_dir / "disengagements"
    code, out, _ = run_cli([
        "fit-recurrent", "--family", "hpp", "--level", "vehicle",
        "--events", str(base / "disengagements.csv"),
        "--mileage", str(base / "mileage.csv"),
        "--months", str(base / "months.csv"),
        "--manufacturer", "Waymo",
        "--out", str(tmp_path), "--threads", "1",
    ], capsys)
    assert code == EXIT_OK
    payload = json.loads((tmp_path / "fit-waymo.json").read_text())
    assert payload["family"] == "hpp"
    assert set(payload) >= {"family", "theta", "log_lik", "aic", "converged", "curve"}
    assert len(payload["curve"]) == 200
    assert all(set(pt) == {"t", "bif", "cbif"} for pt in payload["curve"][:3])
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert len(manifest["inputs"]) == 3


def test_fit_recurrent_manufacturer_level(tmp_path, capsys, data_dir):
    base = data_dir / "collisions"
    code, out, _ = run_cli([
        "fit-recurrent", "--family", "weibull_growth", "--level", "manufacturer",
        "--events", str(base / "collisions.csv"),
        "--mileage", str(base / "mileage.csv"),
        "--months", str(base / "months.csv"),
        "--out", str(tmp_path),
    ], capsys)
    assert code == EXIT_OK
    for maker in ("waymo", "cruise"):
        payload = json.loads((tmp_path / f"fit-{maker}.json").read_text())
        assert all(v > 0 for v in payload["theta"])
        cbif = [pt["cbif"] for pt in payload["curve"]]
        assert all(b <= a + 1e-9 for b, a in zip(cbif, cbif[1:]))


def test_threads_flag_accepted_without_effect(tmp_path, capsys, data_dir):
    # scripts (the benchmark among them) still pass --threads; fits run
    # serially whatever it says
    base = data_dir / "collisions"
    outputs = {}
    for threads in ("1", "4"):
        out = tmp_path / threads
        code, _, _ = run_cli([
            "fit-recurrent", "--family", "power_law", "--level", "manufacturer",
            "--events", str(base / "collisions.csv"),
            "--mileage", str(base / "mileage.csv"),
            "--months", str(base / "months.csv"),
            "--out", str(out), "--threads", threads,
        ], capsys)
        assert code == EXIT_OK
        outputs[threads] = {f.name: f.read_bytes() for f in sorted(out.glob("fit-*.json"))}
    assert len(outputs["1"]) > 1
    assert outputs["1"] == outputs["4"]


def test_fit_srgm_stepwise(tmp_path, capsys, data_dir):
    code, out, _ = run_cli([
        "fit-srgm", "--input", str(data_dir / "adversarial-attacks" / "adversarial.csv"),
        "--hazard", "gm", "--scenario", "1", "--stepwise",
        "--out", str(tmp_path),
    ], capsys)
    assert code == EXIT_OK
    payload = json.loads((tmp_path / "srgm.json").read_text())
    assert payload["omega"] > 0
    assert payload["hazard"]["family"] == "gm"
    assert isinstance(payload["beta"], dict)
    assert payload["trace"][0][0] == ""
    curve = (tmp_path / "cumulative.csv").read_text().strip().splitlines()
    assert curve[0] == "t,observed_cumulative,fitted_cumulative"
    assert len(curve) == 31


def test_fit_resilience(tmp_path, capsys, data_dir):
    code, out, _ = run_cli([
        "fit-resilience", "--input",
        str(data_dir / "adversarial-attacks" / "adversarial.csv"),
        "--form", "linear", "--scenario", "2",
        "--out", str(tmp_path),
    ], capsys)
    assert code == EXIT_OK
    payload = json.loads((tmp_path / "resilience.json").read_text())
    assert "holdout_mae" in payload and "intercept" in payload
    lines = (tmp_path / "reconstruction.csv").read_text().strip().splitlines()
    assert lines[0] == "t,observed,fitted"


def test_fit_mixture(tmp_path, capsys, data_dir):
    code, out, _ = run_cli([
        "fit-mixture", "--input", str(data_dir / "mixture-robustness" / "mixture.csv"),
        "--response", "y1", "--scenario", "c1", "--grid", "8",
        "--out", str(tmp_path),
    ], capsys)
    assert code == EXIT_OK
    payload = json.loads((tmp_path / "mixture.json").read_text())
    assert len(payload["coef"]) == 13
    lines = (tmp_path / "contour_grid.csv").read_text().strip().splitlines()
    assert lines[0] == "x1,x2,x3,yhat"
    assert len(lines) == 1 + 9 * 10 // 2
    sums = [sum(float(v) for v in line.split(",")[:3]) for line in lines[1:]]
    assert max(abs(s - 1.0) for s in sums) < 1e-12


def test_fit_ep_with_mae_table(tmp_path, capsys, data_dir):
    code, out, _ = run_cli([
        "fit-ep", "--log", str(data_dir / "module-errors" / "module_errors.csv"),
        "--mae-grid", "5", "--out", str(tmp_path),
    ], capsys)
    assert code == EXIT_OK
    payload = json.loads((tmp_path / "ep_model.json").read_text())
    assert set(payload["baseline"]) == {"2d", "3d", "localization"}
    assert set(payload["edges"]) == {"2d->localization", "3d->localization"}
    lines = (tmp_path / "mae.csv").read_text().strip().splitlines()
    assert lines[0].startswith("model,")
    assert {line.split(",")[0] for line in lines[1:]} == {"hpp", "nhpp", "ep"}


def test_fit_ep_nhpp_row_is_a_fresh_nhpp_fit(tmp_path, capsys, data_dir):
    # the nhpp competitor's MAE row must equal that of an independent fit
    # made from scratch
    from aireliab import datasets, propagation, simulate

    log = data_dir / "module-errors" / "module_errors.csv"
    code, _, _ = run_cli(["fit-ep", "--log", str(log), "--mae-grid", "4",
                          "--out", str(tmp_path)], capsys)
    assert code == EXIT_OK
    rows = [line.split(",") for line in (tmp_path / "mae.csv").read_text().splitlines()]
    grid = [float(v) for v in rows[0][1:-1]]
    written = [float(v) for v in next(row for row in rows if row[0] == "nhpp")[1:]]
    logs = list(simulate.module_event_log(datasets.load(log, "module_error")).values())
    model = propagation.fit_independent_nhpp(logs).model
    expected = [propagation.evaluate_mae(model, logs, [g]) for g in grid]
    expected.append(propagation.evaluate_mae(model, logs, grid))
    assert np.array_equal(np.array(written).view(np.int64), np.array(expected).view(np.int64))


def test_fit_ep_rejects_a_scenario_whose_rows_disagree(tmp_path, capsys, data_dir):
    from test_simulate import altered_module_errors

    log = altered_module_errors(data_dir, tmp_path, {"WindowEnd": "30.0", "EI2DProb": "0.1"})
    assert run_cli(["validate", str(log), "--schema", "module_error",
                    "--out", str(tmp_path / "v")], capsys)[0] == EXIT_OK
    code, _, err = run_cli(["fit-ep", "--log", str(log), "--out", str(tmp_path / "f")], capsys)
    assert code == 1
    assert "scenario 1: rows disagree on WindowEnd (20.0 and 30.0)" in err
    assert not (tmp_path / "f" / "ep_model.json").exists()


def test_nan_injection_time_fails_validate_and_fit_ep(tmp_path, capsys, data_dir):
    # every comparison with NaN is false, so a NaN start once passed the
    # injection-window rule
    from test_simulate import altered_module_errors

    log = altered_module_errors(data_dir, tmp_path, {"EI2DStart": "nan"}, every=True)
    code, _, _ = run_cli(["validate", str(log), "--schema", "module_error",
                          "--out", str(tmp_path / "v")], capsys)
    assert code == EXIT_VIOLATIONS
    rules = {(v["column"], v["rule"])
             for v in json.loads((tmp_path / "v" / "report.json").read_text())["violations"]}
    assert rules == {("EI2DStart", "injection window")}
    code, _, err = run_cli(["fit-ep", "--log", str(log), "--out", str(tmp_path / "f")], capsys)
    assert code == EXIT_VIOLATIONS
    assert "injection window" in err
    assert not (tmp_path / "f" / "ep_model.json").exists()


def test_fit_ep_rejects_held_out_windows_that_differ(tmp_path, capsys, data_dir):
    # the MAE grid runs over one window; scenario 2 cut to window 10 would be
    # scored on scenario 1's grid up to t = 20
    lines = (data_dir / "module-errors" / "module_errors.csv").read_text().splitlines()
    header = lines[0].split(",")
    kept = [lines[0]]
    for line in lines[1:]:
        cells = line.split(",")
        if cells[0] == "2":
            if float(cells[header.index("TimeStamp")]) > 10.0:
                continue
            for column in ("WindowEnd", "EI2DEnd", "EI3DEnd"):
                cells[header.index(column)] = "10.0"
        kept.append(",".join(cells))
    holdout = tmp_path / "holdout.csv"
    holdout.write_text("\n".join(kept) + "\n", encoding="utf-8")
    code, _, err = run_cli([
        "fit-ep", "--log", str(data_dir / "module-errors" / "module_errors.csv"),
        "--holdout", str(holdout), "--mae-grid", "4", "--out", str(tmp_path / "out")], capsys)
    assert code == 1
    assert "scenario 1: 20, scenario 2: 10, scenario 3: 20" in err
    assert [p.name for p in (tmp_path / "out").iterdir()] == ["manifest.json"]


def test_manifest_records_runtime_versions(tmp_path, capsys, data_dir):
    import platform

    import scipy

    code, _, _ = run_cli(["fit-ep", "--log", str(data_dir / "module-errors" / "module_errors.csv"),
                          "--out", str(tmp_path)], capsys)
    assert code == EXIT_OK
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["versions"] == {"python": platform.python_version(),
                                    "numpy": np.__version__, "scipy": scipy.__version__}


def test_simulate_mixture_roundtrips(tmp_path, capsys):
    code, out, _ = run_cli(["simulate", "mixture", "--seed", "3",
                            "--out", str(tmp_path)], capsys)
    assert code == EXIT_OK
    from aireliab.datasets import validate

    report = validate(tmp_path / "mixture.csv", "mixture")
    assert report.ok and report.rows == 252


def test_simulate_ep_cascade_roundtrips(tmp_path, capsys):
    code, out, _ = run_cli(["simulate", "ep-cascade", "--seed", "11",
                            "--out", str(tmp_path)], capsys)
    assert code == EXIT_OK
    from aireliab.datasets import validate

    report = validate(tmp_path / "module_errors.csv", "module_error")
    assert report.ok and report.rows > 0


def test_simulate_srgm_counts_roundtrips(tmp_path, capsys):
    code, out, _ = run_cli(["simulate", "srgm-counts", "--seed", "4", "--steps", "12",
                            "--omega", "80", "--out", str(tmp_path)], capsys)
    assert code == EXIT_OK
    from aireliab.datasets import validate

    report = validate(tmp_path / "adversarial.csv", "adversarial")
    assert report.ok and report.rows == 12


def test_simulate_nhpp_roundtrips(tmp_path, capsys, data_dir):
    base = data_dir / "disengagements"
    code, out, _ = run_cli([
        "simulate", "nhpp", "--seed", "5", "--family", "hpp", "--theta", "0.1",
        "--mileage", str(base / "mileage.csv"), "--months", str(base / "months.csv"),
        "--manufacture", "Zoox", "--out", str(tmp_path),
    ], capsys)
    assert code == EXIT_OK
    from aireliab.datasets import validate

    report = validate(tmp_path / "disengagements.csv", "disengagement")
    assert report.ok


@pytest.mark.parametrize("given", [[], ["--mileage"], ["--months"]])
def test_simulate_nhpp_without_exposure_files_is_an_error(tmp_path, capsys, data_dir, given):
    base = data_dir / "disengagements"
    paths = {"--mileage": base / "mileage.csv", "--months": base / "months.csv"}
    argv = ["simulate", "nhpp", "--out", str(tmp_path)]
    for flag in given:
        argv += [flag, str(paths[flag])]
    code, _, err = run_cli(argv, capsys)
    assert code == 1
    assert err.startswith("error:")
    assert "--mileage" in err and "--months" in err


@pytest.mark.parametrize("argv", [
    ["fit-srgm", "--hazard", "gm", "--covariates", "Alpha,Foo"],
    ["fit-srgm", "--hazard", "gm", "--covariates", "Alpha,FC"],
    ["fit-resilience", "--response", "Foo"],
    ["fit-resilience", "--covariates", "Scenario"],
    ["fit-resilience", "--response", "EpsilonRangeLow"],
])
def test_unknown_adversarial_column_is_named(tmp_path, capsys, data_dir, argv):
    path = data_dir / "adversarial-attacks" / "adversarial.csv"
    code, _, err = run_cli([*argv, "--input", str(path), "--out", str(tmp_path)], capsys)
    bad = argv[-1].split(",")[-1]
    assert code == 1
    assert err.startswith("error: unknown adversarial column")
    assert bad in err
    # the accepted names are listed: the twelve per-step columns, in schema order
    accepted = err.split("accepted: ")[1].strip()
    assert accepted == ("Alpha, F1, Epsilon, FGSM, PGD, TrainingAccuracy, TrainingLoss, "
                        "ValidationAccuracy, ValidationLoss, TestAccuracy, TestLoss, Memory")


def test_alt_af_rejects_mixed_inputs(tmp_path, capsys):
    # lifetimes and Arrhenius inputs together are ambiguous; none is ignored
    code, _, err = run_cli(["alt-af", "--ln", "1000", "--la", "20", "--ea", "0.7",
                            "--out", str(tmp_path)], capsys)
    assert code == 1
    assert "give either" in err
    assert not (tmp_path / "alt.json").exists()


@pytest.mark.parametrize("spec, named", [
    ({"baseline": {"2d": [1.0, 0.8], "localization-2d": [1.0, 2.0]},
      "edges": {"localization-2d": [2.0, 1.0]}, "window": 20.0,
      "scenarios": [{"weather": "clear"}]}, "'localization-2d'"),
    ({"baseline": {"2d": [1.0, 0.8]}, "edges": {"a<-b<-c": [2.0, 1.0]}, "window": 20.0,
      "scenarios": [{"weather": "clear"}]}, "'a<-b<-c'"),
    ({"baseline": {"2d": [1.0, 0.8]}, "window": 20.0}, "'scenarios'"),
])
def test_simulate_ep_cascade_bad_spec_is_named(tmp_path, capsys, spec, named):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec), encoding="utf-8")
    code, _, err = run_cli(["simulate", "ep-cascade", "--spec", str(path),
                            "--out", str(tmp_path / "o")], capsys)
    assert code == 1
    assert named in err
    assert "cascade spec lacks" in err or "is not of the form" in err


def test_summarize_reads_a_quoted_header(tmp_path, capsys, data_dir):
    lines = (data_dir / "disengagements" / "disengagements.csv").read_text().splitlines()
    header = ",".join(f'"{name}"' for name in lines[0].split(","))
    path = tmp_path / "quoted.csv"
    path.write_text("\n".join([header, *lines[1:]]) + "\n", encoding="utf-8")
    code, out, _ = run_cli(["summarize", str(path), "--out", str(tmp_path / "o")], capsys)
    assert code == EXIT_OK
    assert json.loads(out)["schema"] == "disengagement"


def test_summarize_does_not_detect_a_header_the_parser_rejects(tmp_path, capsys, data_dir):
    # the parser matches header cells verbatim, so detection must too: with
    # ", " separators no schema's columns are all present
    lines = (data_dir / "disengagements" / "disengagements.csv").read_text().splitlines()
    path = tmp_path / "spaced.csv"
    path.write_text("\n".join([lines[0].replace(",", ", "), *lines[1:]]) + "\n",
                    encoding="utf-8")
    code, _, err = run_cli(["summarize", str(path), "--out", str(tmp_path / "o")], capsys)
    assert code == 1
    assert "could not match" in err
    assert "malformed header" not in err


def test_data_root_is_a_summarize_flag_only(tmp_path, capsys, data_dir):
    path = data_dir / "ai-incidents" / "incidents.csv"
    with pytest.raises(SystemExit) as exc:
        main(["validate", str(path), "--schema", "incident", "--data-root", str(data_dir),
              "--out", str(tmp_path)])
    assert exc.value.code == 2
    code, out, _ = run_cli(["summarize", "ai-incidents", "--data-root", str(data_dir),
                            "--out", str(tmp_path)], capsys)
    assert code == EXIT_OK
    assert json.loads(out)["rows"] == 72


def test_simulate_ep_cascade_rejects_a_nan_decay(tmp_path, capsys):
    # json reads NaN, so a spec file can carry one
    spec = dict(DEFAULT_EP_SPEC, edges={"localization<-2d": [2.0, float("nan")]})
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec), encoding="utf-8")
    code, _, err = run_cli(["simulate", "ep-cascade", "--spec", str(path),
                            "--out", str(tmp_path / "o")], capsys)
    assert code == 1
    assert "edge 2d->localization" in err
    assert not (tmp_path / "o" / "module_errors.csv").exists()


HEAVY_SCIPY = ("scipy.optimize", "scipy.special", "scipy.linalg", "scipy.sparse",
               "scipy.spatial", "scipy.stats")


def fresh_interpreter(code, *args):
    """The JSON that ``code`` prints last, run in a fresh interpreter: this test
    process has imported scipy subpackages for its oracles."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(REPO_ROOT / "src"),
                                                       str(REPO_ROOT / "tests")]))
    done = subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True,
                          text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


IMPORT_SHAPE = """
import contextlib, io, json, sys
heavy = lambda: [m for m in %r if m in sys.modules]
import aireliab
seen = [["import aireliab", heavy()]]
from aireliab import cli
seen.append(["import aireliab.cli", heavy()])
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    seen.append([" ".join(argv), heavy() if code == 0 else f"exit {code}"])
print(json.dumps(seen))
""" % (HEAVY_SCIPY,)


def test_import_leaves_scipy_stats_out(tmp_path, data_dir):
    # neither the import nor a command that fits nothing loads a scipy subpackage
    files = {"disengagement": "disengagements/disengagements.csv",
             "mileage": "disengagements/mileage.csv", "month": "disengagements/months.csv",
             "collision": "collisions/collisions.csv", "mixture": "mixture-robustness/mixture.csv",
             "adversarial": "adversarial-attacks/adversarial.csv",
             "module_error": "module-errors/module_errors.csv",
             "incident": "ai-incidents/incidents.csv"}
    jobs = [["validate", str(data_dir / rel), "--schema", schema] for schema, rel in files.items()]
    jobs += [["summarize", name, "--data-root", str(data_dir)]
             for name in ("ai-incidents", "mixture-robustness", "adversarial-attacks",
                          "module-errors", "disengagements", "collisions")]
    jobs += [["simulate", "nhpp", "--mileage", str(data_dir / files["mileage"]),
              "--months", str(data_dir / files["month"]), "--manufacture", "Waymo",
              "--theta", "360,0.004,0.8"],
             ["simulate", "ep-cascade"], ["simulate", "srgm-counts"], ["simulate", "mixture"],
             ["alt-af", "--ln", "1000", "--la", "20"],
             ["fit-resilience", "--input", str(data_dir / files["adversarial"])]]
    jobs = [[*argv, "--out", str(tmp_path / str(i))] for i, argv in enumerate(jobs)]
    seen = fresh_interpreter(IMPORT_SHAPE, json.dumps(jobs))
    assert len(seen) == 2 + len(jobs)
    assert seen == [[step, []] for step, _ in seen]


PER_EVALUATION = """
import builtins, json, sys
from aireliab import design, propagation, recurrent, simulate, srgm
from conftest import unit_exposures
heavy = lambda: [m for m in %r if m in sys.modules]
loaded = {"before": heavy()}

def imports_during(call):
    real, count = builtins.__import__, 0
    def counted(*args, **kwargs):
        nonlocal count
        count += 1
        return real(*args, **kwargs)
    builtins.__import__ = counted
    try:
        call()
    finally:
        builtins.__import__ = real
    return count

model = propagation.EPModel(
    {"2d": (1.2, 2.0), "3d": (1.2, 2.0), "localization": (1.1, 3.0)},
    {("localization", "2d"): (0.3, 1.0), ("localization", "3d"): (0.3, 1.0)})
logs = lambda w: [simulate.simulate_ep_cascade(model, propagation.DEFAULT_SOURCES, w, seed=s)
                  for s in (1, 2)]
fleet = lambda n: simulate.simulate_fleet(
    recurrent.BaselineIntensityModel("power_law", (1.2, 5.0)), unit_exposures(n, 30.0), 30.0, 5)
series = lambda t: simulate.simulate_srgm_counts(60.0, srgm.DiscreteHazard("gm", (0.1,)),
                                                 [], None, t, 2)
cases = {
    "fit_ep": (lambda a: propagation.fit_ep(a, multistarts=1), logs(8.0), logs(20.0)),
    "fit_mle": (lambda a: recurrent.fit_mle(a, "power_law", multistarts=1), fleet(4), fleet(40)),
    "fit_srgm": (lambda a: srgm.fit_srgm(a, "gm"), series(10), series(40)),
    "search_mmlhd": (lambda b: design.search_mmlhd(8, 3, seed=1, budget=b), 100, 1000),
}
counts = {}
for name, (run, small, large) in cases.items():
    run(small)  # the warm-up loads what the routine needs
    loaded[name] = heavy()
    counts[name] = [imports_during(lambda: run(small)), imports_during(lambda: run(large))]
print(json.dumps({"loaded": loaded, "counts": counts}))
""" % (HEAVY_SCIPY[:5],)


def test_fits_and_lhd_search_import_once_per_call_not_per_evaluation():
    out = fresh_interpreter(PER_EVALUATION)
    # each routine loads the scipy subpackage it uses at its first call, not at import
    loaded = out["loaded"]
    assert loaded.pop("before") == []
    uses = {"fit_ep": "scipy.linalg", "fit_mle": "scipy.optimize", "fit_srgm": "scipy.special",
            "search_mmlhd": "scipy.spatial"}
    assert {name: uses[name] in mods for name, mods in loaded.items()} == dict.fromkeys(uses, True)
    # a warm routine's import statements run per call, never per evaluation:
    # the count stays small, and a larger problem adds none
    for name, (small, large) in out["counts"].items():
        assert small == large <= 8, (name, small, large)


def test_byte_order_mark_is_accepted_by_validate_and_summarize(tmp_path, capsys, data_dir):
    # spreadsheet programs often save CSVs with a leading UTF-8 BOM
    path = tmp_path / "bom.csv"
    path.write_bytes(b"\xef\xbb\xbf" + (data_dir / "mixture-robustness" / "mixture.csv").read_bytes())
    code, out, _ = run_cli(["validate", str(path), "--schema", "mixture",
                            "--out", str(tmp_path / "v")], capsys)
    assert code == EXIT_OK
    assert json.loads(out)["violations"] == []
    code, out, _ = run_cli(["summarize", str(path), "--out", str(tmp_path / "s")], capsys)
    assert code == EXIT_OK
    assert json.loads(out)["schema"] == "mixture"


@pytest.mark.parametrize("points", ["0", "-3"])
def test_fit_recurrent_rejects_too_few_grid_points(tmp_path, capsys, data_dir, points):
    base = data_dir / "collisions"
    code, _, err = run_cli([
        "fit-recurrent", "--family", "hpp", "--level", "manufacturer",
        "--events", str(base / "collisions.csv"),
        "--mileage", str(base / "mileage.csv"),
        "--months", str(base / "months.csv"),
        "--grid-points", points, "--out", str(tmp_path),
    ], capsys)
    assert code == 1
    assert err.startswith("error: --grid-points must be at least 1")
    assert not list(tmp_path.glob("fit-*.json"))


@pytest.mark.parametrize("command", [["fit-srgm", "--hazard", "gm"],
                                     ["fit-resilience", "--form", "linear"]])
@pytest.mark.parametrize("split", ["inf", "-inf", "nan"])
def test_fit_rejects_a_non_finite_split(tmp_path, capsys, data_dir, command, split):
    code, _, err = run_cli([
        *command, "--input", str(data_dir / "adversarial-attacks" / "adversarial.csv"),
        f"--split={split}", "--out", str(tmp_path),
    ], capsys)
    assert code == 1
    assert err.startswith(f"error: split must be finite, got {float(split)}")


@pytest.mark.parametrize("command, name, keys", [
    (["fit-srgm", "--hazard", "gm"], "srgm.json", ("holdout_mae",)),
    (["fit-resilience", "--form", "linear"], "resilience.json", ("holdout_mae", "baseline_mae")),
])
def test_json_outputs_write_non_finite_values_as_null(tmp_path, capsys, data_dir, command,
                                                      name, keys):
    # with --split 1 nothing is held out, so the held-out errors are NaN
    code, _, _ = run_cli([
        *command, "--input", str(data_dir / "adversarial-attacks" / "adversarial.csv"),
        "--split", "1", "--out", str(tmp_path),
    ], capsys)
    assert code == EXIT_OK

    def reject(token):
        raise ValueError(f"{token} is not JSON")

    payload = json.loads((tmp_path / name).read_text(), parse_constant=reject)
    assert all(payload[key] is None for key in keys)


def test_benchmark_tracer_wraps_and_restores_its_targets(tmp_path, capsys, data_dir,
                                                         monkeypatch):
    # the benchmark's tracer reaches the layers through module attributes
    # and reads counts off their results; a renamed target fails here
    import importlib
    import importlib.util

    spec = importlib.util.spec_from_file_location("bench_tracing",
                                                  REPO_ROOT / "bench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "bench_tracing", tracing)
    spec.loader.exec_module(tracing)
    originals = {(module, attr): getattr(importlib.import_module(module), attr)
                 for module, attr, _, _ in tracing.TARGETS}
    base = data_dir / "collisions"
    jobs = [
        ["fit-recurrent", "--family", "hpp", "--level", "manufacturer",
         "--events", str(base / "collisions.csv"), "--mileage", str(base / "mileage.csv"),
         "--months", str(base / "months.csv"), "--out", str(tmp_path / "fit")],
        ["design-lhd", "--n", "10", "--p", "3", "--out", str(tmp_path / "lhd")],
    ]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for index, argv in enumerate(jobs):
            tracer.begin_job(index, argv[0])
            code = main(argv)
            tracer.end_job(code != EXIT_OK)
            assert code == EXIT_OK
    finally:
        tracer.uninstall()
    capsys.readouterr()
    spans = {}
    for span in tracer.spans:
        spans.setdefault(span.name, []).append(span)
    assert spans["fit_mle"] and all("fit_iterations" in s.counts for s in spans["fit_mle"])
    assert len(spans["search_mmlhd"]) == 1
    assert spans["search_mmlhd"][0].counts["accepted_moves"] > 0
    assert not any(span.error for span in tracer.spans)
    for (module, attr), original in originals.items():
        assert getattr(importlib.import_module(module), attr) is original


def reject_constant(token):
    raise ValueError(f"{token} is not JSON")


@pytest.mark.parametrize("argv, name, shown", [
    (["validate", "disengagements/months.csv", "--schema", "month"], "report.json", None),
    (["summarize", "mixture-robustness/mixture.csv"], "summary.json", None),
    (["fit-ep", "--log", "module-errors/module_errors.csv"], "ep_model.json",
     ("log_lik", "aic", "converged")),
    (["fit-srgm", "--input", "adversarial-attacks/adversarial.csv", "--hazard", "gm"],
     "srgm.json", ("omega", "hazard", "beta", "holdout_mae")),
    (["fit-srgm", "--input", "adversarial-attacks/adversarial.csv", "--hazard", "gm",
      "--split", "1"], "srgm.json", ("omega", "hazard", "beta", "holdout_mae")),
    (["fit-resilience", "--input", "adversarial-attacks/adversarial.csv"],
     "resilience.json", ("form", "intercept", "coef", "holdout_mae")),
    (["fit-resilience", "--input", "adversarial-attacks/adversarial.csv", "--split", "1"],
     "resilience.json", ("form", "intercept", "coef", "holdout_mae")),
    (["fit-mixture", "--input", "mixture-robustness/mixture.csv", "--response", "y1",
      "--scenario", "c1"], "mixture.json", ("coef", "resid_sd")),
])
def test_printed_json_is_the_written_json(tmp_path, capsys, data_dir, argv, name, shown):
    # stdout goes through the encoder that writes the file: valid JSON,
    # non-finite values as null, and the file's values for the shown keys
    argv = [str(data_dir / a) if a.endswith(".csv") else a for a in argv]
    code, out, _ = run_cli([*argv, "--out", str(tmp_path)], capsys)
    assert code == EXIT_OK
    written = json.loads((tmp_path / name).read_text(), parse_constant=reject_constant)
    printed = json.loads(out, parse_constant=reject_constant)
    assert printed == (written if shown is None else {k: written[k] for k in shown})


@pytest.mark.parametrize("argv, message", [
    (["fit-ep", "--log", "{data}/module-errors/module_errors.csv", "--mae-grid", "-2"],
     "--mae-grid must be non-negative, got -2"),
    (["fit-ep", "--log", "{data}/module-errors/module_errors.csv", "--mae-grid", "5",
      "--holdout", "{tmp}/missing.csv"], "missing.csv"),
    (["fit-ep", "--log", "{data}/module-errors/module_errors.csv", "--mae-grid", "5",
      "--holdout", "{tmp}/empty.csv"], "empty.csv holds no module error rows"),
    (["fit-mixture", "--input", "{data}/mixture-robustness/mixture.csv", "--response", "y1",
      "--scenario", "c1", "--grid", "1"], "grid resolution must be at least 2"),
    (["fit-mixture", "--input", "{data}/mixture-robustness/mixture.csv", "--response", "y1",
      "--pooled", "--scenario", "c1"], "scenario filter and pooled fit are mutually exclusive"),
])
def test_bad_flags_fail_before_any_result_is_written(tmp_path, capsys, data_dir, argv, message):
    header = (data_dir / "module-errors" / "module_errors.csv").read_text().splitlines()[0]
    (tmp_path / "empty.csv").write_text(header + "\n")
    argv = [a.format(data=data_dir, tmp=tmp_path) for a in argv]
    code, _, err = run_cli([*argv, "--out", str(tmp_path / "out")], capsys)
    assert code == 1
    assert message in err
    assert [p.name for p in (tmp_path / "out").iterdir()] == ["manifest.json"]


@pytest.mark.parametrize("command, output, effects", [
    (["fit-srgm", "--hazard", "gm"], "srgm.json", "beta"),
    (["fit-resilience"], "resilience.json", "coef"),
])
def test_empty_covariates_select_none(tmp_path, capsys, data_dir, command, output, effects):
    # an empty --covariates is no covariate, not the default set: the
    # hazard-only srgm fit and the intercept-only resilience fit
    code, _, _ = run_cli([*command, "--input",
                          str(data_dir / "adversarial-attacks" / "adversarial.csv"),
                          "--covariates", "", "--out", str(tmp_path)], capsys)
    assert code == EXIT_OK
    payload = json.loads((tmp_path / output).read_text())
    assert payload[effects] == {}
    assert [name for name, _ in payload.get("trace", [])] in ([], [""])


@pytest.mark.parametrize("command, output", [(["fit-srgm", "--hazard", "gm"], "srgm.json"),
                                             (["fit-resilience"], "resilience.json")])
@pytest.mark.parametrize("split", ["-0.5", "0", "1.5"])
def test_fit_rejects_a_split_outside_the_unit_interval(tmp_path, capsys, data_dir, command,
                                                        output, split):
    code, _, err = run_cli([
        *command, "--input", str(data_dir / "adversarial-attacks" / "adversarial.csv"),
        f"--split={split}", "--out", str(tmp_path),
    ], capsys)
    assert code == 1
    assert err == f"error: split must lie in (0, 1], got {float(split)}\n"
    assert not (tmp_path / output).exists()


@pytest.mark.parametrize("argv, message", [
    (["design-lhd", "--n", "6", "--p", "2", "--m", "nan"], "distance power m must be >= 1, got nan"),
    (["alt-af", "--ln", "nan", "--la", "20"], "life_normal must be positive and finite, got nan"),
    (["alt-af", "--ln", "inf", "--la", "20"], "life_normal must be positive and finite, got inf"),
    (["alt-af", "--ea", "0.7", "--tuse", "300", "--tstress", "nan"],
     "temp_stress must be positive and finite, got nan"),
    (["simulate", "mixture", "--noise-y1", "nan"],
     "noise_sd_y1 must be finite and non-negative, got nan"),
    (["simulate", "mixture", "--noise-y1", "inf"],
     "noise_sd_y1 must be finite and non-negative, got inf"),
    (["simulate", "srgm-counts", "--omega", "nan"], "omega must be finite and non-negative, got nan"),
    (["simulate", "srgm-counts", "--steps", "-2"],
     "T, the number of steps, must be at least 2, got -2"),
], ids=["lhd-m-nan", "af-ln-nan", "af-ln-inf", "af-tstress-nan", "mixture-noise-nan",
        "mixture-noise-inf", "srgm-omega-nan", "srgm-steps-negative"])
def test_non_finite_or_out_of_range_numbers_are_named(tmp_path, capsys, argv, message):
    code, out, err = run_cli([*argv, "--out", str(tmp_path)], capsys)
    assert (code, out, err) == (1, "", f"error: {message}\n")
    assert [p.name for p in tmp_path.iterdir()] == ["manifest.json"]


@pytest.mark.parametrize("k", ["600", "100000"])
def test_design_lhd_rejects_a_criterion_power_that_would_overflow(tmp_path, capsys, k):
    # every distance in a 5-run design of 2 factors is at least sqrt(2) / 5, so
    # the criterion's 10 terms d**-k stay finite up to k = 560
    code, out, err = run_cli(["design-lhd", "--n", "5", "--p", "2", "--k", k,
                              "--out", str(tmp_path)], capsys)
    assert (code, out) == (1, "")
    assert err.startswith(f"error: criterion power k = {k} is too large for n = 5, p = 2")
    assert [p.name for p in tmp_path.iterdir()] == ["manifest.json"]


def test_design_lhd_searches_just_below_the_overflow_bound(tmp_path, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(["design-lhd", "--n", "5", "--p", "2", "--k", "500",
                                  "--out", str(tmp_path)], capsys)
    assert (code, err) == (EXIT_OK, "")
    assert math.isfinite(json.loads((tmp_path / "design.json").read_text())["criterion"])


@pytest.mark.parametrize("argv, output", [
    (["design-lhd", "--n", "6", "--p", "2", "--m", "inf"], "design.csv"),  # Chebyshev distance
    (["simulate", "srgm-counts", "--omega", "0"], "adversarial.csv"),
])
def test_edge_values_that_stay_valid(tmp_path, capsys, argv, output):
    code, _, err = run_cli([*argv, "--out", str(tmp_path)], capsys)
    assert (code, err) == (EXIT_OK, "")
    assert (tmp_path / output).exists()


@pytest.mark.parametrize("form", ["poly:0", "poly:-2"])
def test_fit_resilience_rejects_a_degree_below_one(tmp_path, capsys, data_dir, form):
    code, _, err = run_cli([
        "fit-resilience", "--input", str(data_dir / "adversarial-attacks" / "adversarial.csv"),
        "--form", form, "--out", str(tmp_path),
    ], capsys)
    assert code == 1
    assert err.startswith(f"error: polynomial degree must be at least 1, got {form[5:]}")
    assert not (tmp_path / "resilience.json").exists()


@pytest.mark.parametrize("grid", [[], ["--mae-grid", "0"]])
def test_fit_ep_holdout_needs_a_positive_mae_grid(tmp_path, capsys, data_dir, grid):
    # the holdout feeds only the MAE table; without one it would go unread
    code, _, err = run_cli([
        "fit-ep", "--log", str(data_dir / "module-errors" / "module_errors.csv"),
        "--holdout", str(tmp_path / "nonexistent.csv"), *grid, "--out", str(tmp_path / "out"),
    ], capsys)
    assert code == 1
    assert "--holdout" in err and "needs a positive --mae-grid" in err
    assert [p.name for p in (tmp_path / "out").iterdir()] == ["manifest.json"]


@pytest.mark.parametrize("level, directory, events", [
    ("vehicle", "disengagements", "disengagements.csv"),
    ("manufacturer", "collisions", "collisions.csv"),
])
def test_fit_recurrent_rejects_an_events_file_without_rows(tmp_path, capsys, data_dir, level,
                                                          directory, events):
    base = data_dir / directory
    empty = tmp_path / events
    empty.write_text((base / events).read_text().splitlines()[0] + "\n")
    code, _, err = run_cli([
        "fit-recurrent", "--family", "hpp", "--level", level, "--events", str(empty),
        "--mileage", str(base / "mileage.csv"), "--months", str(base / "months.csv"),
        "--out", str(tmp_path / "out"),
    ], capsys)
    assert code == 1
    assert err.startswith(f"error: {empty} holds no events")
    assert [p.name for p in (tmp_path / "out").iterdir()] == ["manifest.json"]


def adversarial_copy(data_dir, tmp_path, edit):
    """The bundled adversarial file with its data rows passed through ``edit``."""
    header, *rows = (data_dir / "adversarial-attacks" / "adversarial.csv").read_text().splitlines()
    path = tmp_path / "adversarial.csv"
    path.write_text("\n".join([header, *edit(rows)]) + "\n", encoding="utf-8")
    return path


def scenario_1_step(rows, t):
    return next(i for i, row in enumerate(rows) if row.startswith("1,") and
                row.split(",")[3] == str(t))


@pytest.mark.parametrize("edit", [
    lambda rows: rows[:scenario_1_step(rows, 3) + 1] + rows[scenario_1_step(rows, 3):],
    lambda rows: rows[:scenario_1_step(rows, 5)] + rows[scenario_1_step(rows, 5) + 1:],
], ids=["T=3 twice", "T=5 missing"])
def test_count_series_with_repeated_or_missing_steps_is_rejected(tmp_path, capsys, data_dir,
                                                                edit):
    # each row is valid on its own, so validate passes; the series is not
    path = adversarial_copy(data_dir, tmp_path, edit)
    assert run_cli(["validate", str(path), "--schema", "adversarial",
                    "--out", str(tmp_path / "v")], capsys)[0] == EXIT_OK
    for command in (["fit-srgm", "--hazard", "gm"], ["fit-resilience"]):
        code, _, err = run_cli([*command, "--input", str(path), "--scenario", "1",
                                "--out", str(tmp_path / command[0])], capsys)
        assert code == 1
        assert err.startswith("error: scenario 1: steps T must run 1..")


def test_count_series_rows_in_reversed_order_fit_alike(tmp_path, capsys, data_dir):
    path = adversarial_copy(data_dir, tmp_path, lambda rows: rows[::-1])
    written = []
    for source in (data_dir / "adversarial-attacks" / "adversarial.csv", path):
        out = tmp_path / str(len(written))
        code, _, _ = run_cli(["fit-srgm", "--hazard", "gm", "--input", str(source),
                              "--out", str(out)], capsys)
        assert code == EXIT_OK
        written.append([(out / name).read_bytes() for name in ("srgm.json", "cumulative.csv")])
    assert written[0] == written[1]


@pytest.mark.parametrize("spec, message", [
    ([DEFAULT_EP_SPEC], "cascade spec is not a JSON object"),
    (dict(DEFAULT_EP_SPEC, scenarios=[["clear"]]), "scenario 1 is not a JSON object"),
    (dict(DEFAULT_EP_SPEC, scenarios=[{"injection": ["2d"]}]),
     "scenario 1 injection is not a JSON object"),
    (dict(DEFAULT_EP_SPEC, scenarios=[{}, {"injection": {"2d": [0.0, 20.0]}}]),
     "scenario 2 injection '2d' is not a list of 3 numbers"),
    (dict(DEFAULT_EP_SPEC, scenarios=[{"injection": {"3d": ["0", 20.0, 0.5]}}]),
     "scenario 1 injection '3d' is not a list of 3 numbers"),
    (dict(DEFAULT_EP_SPEC, scenarios=[]), "cascade spec needs a non-empty list of scenarios"),
    (dict(DEFAULT_EP_SPEC, baseline=[[1.0, 0.8]]), "baseline is not a JSON object"),
    (dict(DEFAULT_EP_SPEC, edges={"localization<-2d": 2.0}),
     "edge 'localization<-2d' is not a list of numbers"),
    (dict(DEFAULT_EP_SPEC, sources=["2d"]), "sources is not a JSON object"),
    # a string would be read as its characters, '2' and 'd'
    (dict(DEFAULT_EP_SPEC, sources={"localization": "2d"}),
     "sources 'localization' is not a list of strings"),
    ({key: v for key, v in DEFAULT_EP_SPEC.items() if key != "sources"},
     "edge 'localization<-2d': sources 'localization' does not list '2d'"),
    (dict(DEFAULT_EP_SPEC, scenarios=[{"weather": 3}]), "scenario 1 weather is not a string"),
    (dict(DEFAULT_EP_SPEC, window=None), "window is not a number"),
    (dict(DEFAULT_EP_SPEC, window="20"), "window is not a number"),
    (dict(DEFAULT_EP_SPEC, window=True), "window is not a number"),
    # JSON true and false are not numbers, though Python takes them as ints
    (dict(DEFAULT_EP_SPEC, baseline=dict(DEFAULT_EP_SPEC["baseline"], **{"2d": [True, 0.8]})),
     "baseline '2d' is not a list of numbers"),
], ids=["array spec", "list scenario", "list injection", "short injection",
        "string injection", "no scenarios", "list baseline", "number edge", "list sources",
        "string sources", "unlisted edge source", "number weather", "null window",
        "string window", "boolean window", "boolean baseline"])
def test_simulate_ep_cascade_malformed_spec_is_an_error_line(tmp_path, spec, message):
    # a fresh interpreter, so an escaping exception would print its traceback
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec), encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    done = subprocess.run([sys.executable, "-m", "aireliab.cli", "simulate", "ep-cascade",
                           "--spec", str(path), "--out", str(tmp_path / "o")],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 1
    assert done.stderr == f"error: {message}\n"
    assert not (tmp_path / "o" / "module_errors.csv").exists()


def test_bundled_jobs_read_tables_by_column(tmp_path, capsys, data_dir, monkeypatch):
    from aireliab.datasets import RecordTable

    def refuse(table):
        raise AssertionError(f"a {table.schema.name} table was read record by record")

    monkeypatch.setattr(RecordTable, "__iter__", refuse)
    adversarial = str(data_dir / "adversarial-attacks" / "adversarial.csv")
    mixture = str(data_dir / "mixture-robustness" / "mixture.csv")
    disengagements, collisions = data_dir / "disengagements", data_dir / "collisions"
    jobs = [
        ["fit-recurrent", "--family", "power_law", "--level", "vehicle",
         "--events", str(disengagements / "disengagements.csv"),
         "--mileage", str(disengagements / "mileage.csv"),
         "--months", str(disengagements / "months.csv"), "--manufacturer", "Waymo"],
        ["fit-recurrent", "--family", "weibull_growth", "--level", "manufacturer",
         "--events", str(collisions / "collisions.csv"),
         "--mileage", str(collisions / "mileage.csv"),
         "--months", str(collisions / "months.csv")],
        ["simulate", "nhpp", "--seed", "5", "--family", "hpp", "--theta", "0.1",
         "--mileage", str(disengagements / "mileage.csv"),
         "--months", str(disengagements / "months.csv"), "--manufacture", "Zoox"],
        ["fit-ep", "--log", str(data_dir / "module-errors" / "module_errors.csv"),
         "--mae-grid", "10"],
        ["fit-srgm", "--input", adversarial, "--hazard", "gm", "--stepwise"],
        ["fit-resilience", "--input", adversarial],
        ["fit-mixture", "--input", mixture, "--response", "y1", "--scenario", "c2"],
        ["fit-mixture", "--input", mixture, "--response", "y2", "--pooled"],
        ["simulate", "ep-cascade", "--seed", "3"],
        ["simulate", "srgm-counts", "--seed", "3"],
        ["simulate", "mixture", "--seed", "3"],
    ]
    for i, argv in enumerate(jobs):
        code, _, err = run_cli([*argv, "--out", str(tmp_path / str(i))], capsys)
        assert (code, err) == (EXIT_OK, ""), argv
