"""``tools/trace_lines.py`` on one ``alt-af`` job: the lines the job runs
are not listed, and a function it never calls is listed whole."""

import importlib.util

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
