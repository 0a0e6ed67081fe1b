"""List the lines of ``src/aireliab`` that benchmark workloads or tests do not reach.

    python3 tools/trace_lines.py [--workload {bundled-cli,dmv-fleet,ep-scale} ...]
        [--seed N] [--demos] [--pytest [ARGS ...]]

Each named workload (all three by default, none by default with
``--pytest``) builds its inputs in a temporary directory with
``tools/compare_outputs.py``'s ``workload_jobs``, which is not traced.
Then one pass of its jobs runs in process through ``aireliab.cli.main``
under ``sys.settrace``, which follows only frames of files under
``src/aireliab``.  With ``--demos`` the five narrative demos run too, each
as ``__main__``; ``demos/build_sample_data.py`` does not, since it
rewrites ``data/``.  With ``--pytest`` the rest of the command line is
passed to ``pytest.main``, which runs in process under the same tracer:
``--pytest -q tests`` lists the lines that no test reaches.  A test that
sets its own tracer hides the lines it runs meanwhile.

The tool prints, per file, the lines inside functions (lambdas and
comprehensions included, module and class bodies not) that nothing
reached, as ranges that no reached function line splits, then their
count.  A function's ``def`` line counts as reached when the function is
called.  Code that runs in a child process is not seen.  The exit status
is pytest's under ``--pytest`` and 0 otherwise.
"""

import argparse
import contextlib
import inspect
import io
import runpy
import sys
import tempfile
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "aireliab"
DEMOS = ("design_and_accelerated_testing", "error_propagation_benchmark",
         "mixture_robustness_surface", "recurrent_events_dmv",
         "reliability_growth_and_resilience")
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from aireliab import cli  # noqa: E402
from compare_outputs import WORKLOADS, workload_jobs  # noqa: E402


def function_lines(path: Path) -> set[int]:
    """The lines that hold instructions of the functions of one source file."""
    lines = set()
    stack = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while stack:
        code = stack.pop()
        if code.co_flags & inspect.CO_OPTIMIZED:  # a function, not a module or class body
            lines.update(line for *_, line in code.co_lines() if line is not None)
        stack.extend(const for const in code.co_consts if isinstance(const, types.CodeType))
    return lines


def trace(calls) -> dict[Path, set[int]]:
    """Run each of the argument-free ``calls`` under the tracer; the lines
    reached in each file of the package."""
    reached: dict[str, set[int]] = {}
    ours: dict[str, bool] = {}  # by code file name

    def line(frame, event, arg):
        if event == "line":
            reached[frame.f_code.co_filename].add(frame.f_lineno)
        return line

    def call(frame, event, arg):
        code = frame.f_code
        name = code.co_filename
        if name not in ours:
            ours[name] = PACKAGE in Path(name).resolve().parents
        if not ours[name]:
            return None
        reached.setdefault(name, set()).add(code.co_firstlineno)
        return line

    previous = sys.gettrace()
    sys.settrace(call)
    try:
        for run in calls:
            run()
    finally:
        sys.settrace(previous)
    return {Path(name).resolve(): lines for name, lines in reached.items()}


def unreached(reached: dict[Path, set[int]]) -> dict[Path, list[list[int]]]:
    """Per package file, its function lines not in ``reached``, grouped
    into runs that no reached function line splits."""
    out = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        hit = reached.get(path.resolve(), set())
        runs: list[list[int]] = []
        extend = False
        for number in sorted(function_lines(path)):
            if number in hit:
                extend = False
            elif extend:
                runs[-1].append(number)
            else:
                runs.append([number])
                extend = True
        if runs:
            out[path] = runs
    return out


def cli_call(name, argv, failed):
    def run():
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
        if code != 0:
            failed.append(name)
    return run


def demo_call(name):
    def run():
        with contextlib.redirect_stdout(io.StringIO()):
            runpy.run_path(str(ROOT / "demos" / f"{name}.py"), run_name="__main__")
    return run


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, action="append",
                        help="a workload to run (repeatable; default: all three)")
    parser.add_argument("--seed", type=int, default=5, help="the workload seed (default 5)")
    parser.add_argument("--demos", action="store_true", help="run the narrative demos too")
    parser.add_argument("--pytest", nargs=argparse.REMAINDER, metavar="ARGS",
                        help="run pytest.main(ARGS) too; takes the rest of the command line")
    args = parser.parse_args(argv)
    reached: dict[Path, set[int]] = {}
    failed: list[str] = []
    for workload in args.workload or ([] if args.pytest is not None else WORKLOADS):
        with tempfile.TemporaryDirectory() as tmp:
            jobs = zip(*workload_jobs(workload, args.seed, Path(tmp)))
            for path, lines in trace(cli_call(*job, failed) for job in jobs).items():
                reached.setdefault(path, set()).update(lines)
    if args.demos:
        for path, lines in trace(demo_call(name) for name in DEMOS).items():
            reached.setdefault(path, set()).update(lines)
    status = 0
    if args.pytest is not None:
        import pytest

        def run_tests():
            nonlocal status
            status = int(pytest.main(args.pytest))
        for path, lines in trace([run_tests]).items():
            reached.setdefault(path, set()).update(lines)
    missed = unreached(reached)
    for path, runs in missed.items():
        print(f"{path.relative_to(ROOT)}: "
              + ", ".join(str(r[0]) if len(r) == 1 else f"{r[0]}-{r[-1]}" for r in runs))
    total = sum(len(r) for runs in missed.values() for r in runs)
    print(f"{total} function lines in {len(missed)} files not reached")
    if failed:
        print(f"jobs that exited non-zero: {', '.join(failed)}", file=sys.stderr)
    return status


if __name__ == "__main__":
    sys.exit(main())
