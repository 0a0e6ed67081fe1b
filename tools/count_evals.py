"""Count the search work of one pass of the bundled-cli benchmark jobs.

Runs each job of ``bench.workloads.BundledCLI.job_specs`` once, in order
and in process, through ``aireliab.cli.main`` on the bundled ``data/``
tree, and prints for each fitter (the module that calls
``_optim.maximize``) the number of searches, the starts they were given,
the simplex runs, the starts dropped before any search, the simplex
evaluations (each run's ``nfev``, its start's value included) and every
objective evaluation made inside ``maximize`` (start values, simplex and
L-BFGS-B polish).  These counts do not depend on the clock, so they can
back a claim of less search work where wall time on a busy host cannot.

    python3 tools/count_evals.py
"""

import contextlib
import io
import sys
import tempfile
from pathlib import Path
from unittest import mock

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from aireliab import _optim, cli, propagation, recurrent, regression, srgm  # noqa: E402
from bench.workloads import BundledCLI  # noqa: E402

FITTERS = {"propagation": propagation, "recurrent": recurrent, "srgm": srgm,
           "regression": regression}
COLUMNS = ("searches", "starts", "simplex", "dropped", "simplex_evals", "evals")


def count_pass(data_root: Path, out: Path) -> tuple[dict, list[str]]:
    """The per-fitter counts of one pass, and the names of jobs that exited non-zero."""
    counts = {name: dict.fromkeys(COLUMNS, 0) for name in FITTERS}
    running = []  # the tally of the search in progress
    real_maximize, real_nelder_mead = _optim.maximize, _optim._nelder_mead

    def nelder_mead(*args):
        result = real_nelder_mead(*args)
        running[-1]["simplex"] += 1
        running[-1]["simplex_evals"] += result[3]
        return result

    def counted(tally):
        def maximize(negloglik_z, z0_list, tol, max_iter):
            def objective(z):
                tally["evals"] += 1
                return negloglik_z(z)

            z0_list = list(z0_list)
            tally["searches"] += 1
            tally["starts"] += len(z0_list)
            runs = tally["simplex"]
            running.append(tally)
            try:
                return real_maximize(objective, z0_list, tol, max_iter)
            finally:
                running.pop()
                tally["dropped"] += len(z0_list) - (tally["simplex"] - runs)
        return maximize

    failed = []
    with contextlib.ExitStack() as stack:
        stack.enter_context(mock.patch.object(_optim, "_nelder_mead", nelder_mead))
        for name, module in FITTERS.items():
            stack.enter_context(mock.patch.object(module, "maximize", counted(counts[name])))
        for name, argv, _ in BundledCLI().job_specs(data_root):
            sink = io.StringIO()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                code = cli.main([*argv, "--out", str(out / name)])
            if code != 0:
                failed.append(name)
    return counts, failed


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        counts, failed = count_pass(ROOT / "data", Path(tmp))
    rows = [[name, *tally.values()] for name, tally in counts.items()]
    rows.append(["total", *(sum(col) for col in zip(*(row[1:] for row in rows)))])
    widths = [max(len(str(v)) for v in col) for col in zip(["fitter", *COLUMNS], *rows)]
    for row in [["fitter", *COLUMNS], *rows]:
        print("  ".join(str(v).ljust(w) if i == 0 else str(v).rjust(w)
                        for i, (v, w) in enumerate(zip(row, widths))))
    if failed:
        print(f"jobs that exited non-zero: {', '.join(failed)}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
