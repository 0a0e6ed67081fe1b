"""``tools/compare_outputs.py`` on planted pass directories.

Each test writes two small output trees, as two passes of a workload
would, and compares them: a last-bit change must be found and named with
its relative change, a new key must pass ``--only-new-keys`` and fail the
default, and a changed value must fail both.
"""

import importlib.util
import json
import sys

import numpy as np
import pytest

from conftest import REPO_ROOT

spec = importlib.util.spec_from_file_location("compare_outputs",
                                              REPO_ROOT / "tools" / "compare_outputs.py")
compare_outputs = sys.modules["compare_outputs"] = importlib.util.module_from_spec(spec)
spec.loader.exec_module(compare_outputs)

FIT = {"family": "power_law", "theta": [0.7037929736965381, 0.5113273931442577],
       "log_lik": -430.2921, "converged": True}
MANIFEST = {"command": "fit-recurrent", "flags": {"family": "power_law", "out": "/a/fit"},
            "started": "2026-01-01T00:00:00+00:00", "finished": "2026-01-01T00:00:01+00:00"}
TABLE = "model,log_lik,mae\nhpp,-12.5,0.25\nep,-10.125,0.125\n"


def plant(root, fit=FIT, manifest=MANIFEST, table=TABLE):
    (root / "job").mkdir(parents=True)
    (root / "job" / "fit.json").write_text(json.dumps(fit, indent=2) + "\n")
    (root / "job" / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")
    (root / "job" / "mae.csv").write_text(table)
    return root


def compare(tmp_path, **new):
    result = compare_outputs.compare_trees(plant(tmp_path / "old"), plant(tmp_path / "new", **new))
    return result, "\n".join(result.report())


def test_identical_passes_pass_both_gates(tmp_path):
    result, report = compare(tmp_path)
    assert result.identical == ["job/fit.json", "job/mae.csv", "job/manifest.json"]
    assert not compare_outputs.failed(result, False) and not compare_outputs.failed(result, True)
    assert "3 identical, 0 changed" in report


def test_the_manifest_is_compared_without_its_run_keys(tmp_path):
    manifest = dict(MANIFEST, started="2027-05-05T10:00:00+00:00", finished="later",
                    flags={"family": "power_law", "out": "/b/fit"})
    result, _ = compare(tmp_path, manifest=manifest)
    assert "job/manifest.json" in result.identical
    changed = dict(MANIFEST, flags={"family": "weibull_growth", "out": "/a/fit"})
    result, report = compare(tmp_path / "again", manifest=changed)
    assert "changed job/manifest.json" in report
    assert "changed flags.family: 'power_law' -> 'weibull_growth'" in report


def test_a_last_bit_change_is_found_and_named(tmp_path):
    theta = FIT["theta"][1]
    moved = float(np.nextafter(theta, 1.0))
    result, report = compare(tmp_path, fit=dict(FIT, theta=[FIT["theta"][0], moved]))
    change = (moved - theta) / theta
    assert 0 < change < 1e-15
    assert list(result.changed) == ["job/fit.json"]
    assert f"moved theta[]: 1 of 2 values, largest relative change {change:.3g}" in report
    assert compare_outputs.failed(result, False) and compare_outputs.failed(result, True)


def test_a_csv_cell_that_moves_is_named_by_its_column(tmp_path):
    result, report = compare(tmp_path, table=TABLE.replace("0.125", "0.1250000000000001"))
    assert "changed job/mae.csv" in report
    assert "moved column mae: 1 of 2 values, largest relative change 8.88e-16" in report
    assert compare_outputs.failed(result, True)


def test_a_new_key_passes_only_new_keys(tmp_path):
    fit = dict(FIT, estimate={"start": 2, "evaluations": [10, 12]})
    table = TABLE.replace("mae\n", "mae,ks\n").replace("0.25\n", "0.25,0.5\n")
    table = table.replace("0.125\n", "0.125,0.75\n")
    result, report = compare(tmp_path, fit=fit, table=table)
    assert "added estimate.evaluations[] (2 values)" in report
    assert "added estimate.start" in report and "added column ks (2 values)" in report
    assert compare_outputs.failed(result, False)
    assert not compare_outputs.failed(result, True)


@pytest.mark.parametrize("fit", [dict(FIT, log_lik=-430.0), dict(FIT, converged=False),
                                 {k: v for k, v in FIT.items() if k != "log_lik"}],
                         ids=["number", "flag", "removed"])
def test_a_changed_value_fails_only_new_keys(tmp_path, fit):
    result, report = compare(tmp_path, fit=dict(fit, estimate={"start": 0}))
    assert "added estimate.start" in report
    assert compare_outputs.failed(result, True)


def test_files_added_and_removed(tmp_path):
    old, new = plant(tmp_path / "old"), plant(tmp_path / "new")
    (new / "job" / "trace.json").write_text("{}\n")
    result = compare_outputs.compare_trees(old, new)
    assert result.added == ["job/trace.json"]
    assert compare_outputs.failed(result, False) and not compare_outputs.failed(result, True)
    (old / "job" / "curve.csv").write_text("t\n1\n")
    result = compare_outputs.compare_trees(old, new)
    assert result.removed == ["job/curve.csv"] and compare_outputs.failed(result, True)


def test_a_bundled_cli_pass_compares_equal_to_itself(capsys):
    # two fresh processes on this checkout: every written file must repeat
    assert compare_outputs.main([str(REPO_ROOT), "--workload", "bundled-cli"]) == 0
    identical, summary = capsys.readouterr().out.splitlines()[-1].split(" identical, ")
    assert int(identical) > 100 and summary == "0 changed, 0 added, 0 removed files"
