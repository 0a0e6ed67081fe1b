"""``tools/trace_lines.py`` on one ``alt-af`` job and on a one-test pytest
run: the lines they run are not listed, and a function they never call
is listed whole."""

import importlib.util
import subprocess
import sys
from pathlib import Path

from conftest import REPO_ROOT


def load_tool(monkeypatch):
    monkeypatch.syspath_prepend(str(REPO_ROOT / "tools"))  # for its compare_outputs import
    spec = importlib.util.spec_from_file_location("trace_lines",
                                                  REPO_ROOT / "tools" / "trace_lines.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_alt_af_job_lists_the_search_and_not_the_lifetime_ratio(tmp_path, monkeypatch):
    trace_lines = load_tool(monkeypatch)
    failed = []
    argv = ["alt-af", "--ln", "10", "--la", "2", "--out", str(tmp_path)]
    missed = trace_lines.unreached(trace_lines.trace([trace_lines.cli_call("alt-af", argv,
                                                                           failed)]))
    assert failed == []
    path = trace_lines.PACKAGE / "design.py"
    listed = {number for run in missed[path] for number in run}
    text = path.read_text(encoding="utf-8").splitlines()

    def line_of(fragment):
        [number] = [i for i, line in enumerate(text, 1) if fragment in line]
        return number

    start, end = line_of("def search_mmlhd("), line_of("def _check_positive(")
    search = {n for n in trace_lines.function_lines(path) if start <= n < end}
    assert search and search <= listed
    for reached in ("life_args = (life_normal, life_accelerated)",
                    "return float(life_normal) / float(life_accelerated)"):
        assert line_of(reached) not in listed
    assert line_of("return float(np.exp(activation_energy") in listed


def test_pytest_run_lists_what_its_tests_do_not_reach(tmp_path):
    # the tool runs pytest in its own process, so this session's tracer,
    # conftest and plugins stay apart from the traced run
    test_file = tmp_path / "test_lifetime_ratio.py"
    test_file.write_text(
        "from aireliab.design import acceleration_factor\n\n\n"
        "def test_lifetime_ratio():\n"
        "    assert acceleration_factor(life_normal=10.0, life_accelerated=2.0) == 5.0\n",
        encoding="utf-8")
    done = subprocess.run(
        [sys.executable, str(REPO_ROOT / "tools" / "trace_lines.py"), "--pytest", "-q",
         "-p", "no:cacheprovider", str(test_file)],
        capture_output=True, text=True, cwd=tmp_path, timeout=120)
    assert done.returncode == 0, done.stderr
    assert "1 passed" in done.stdout
    [row] = [line for line in done.stdout.splitlines()
             if line.startswith(str(Path("src", "aireliab", "design.py")) + ": ")]
    listed = {number for part in row.split(": ")[1].split(", ")
              for number in range(int(part.split("-")[0]), int(part.split("-")[-1]) + 1)}
    path = REPO_ROOT / "src" / "aireliab" / "design.py"
    text = path.read_text(encoding="utf-8").splitlines()

    def line_of(fragment):
        [number] = [i for i, line in enumerate(text, 1) if fragment in line]
        return number

    assert line_of("return float(life_normal) / float(life_accelerated)") not in listed
    assert line_of("return float(np.exp(activation_energy") in listed
    assert line_of("def search_mmlhd(") in listed
