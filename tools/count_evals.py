"""Count the search work of one pass of a benchmark workload's jobs.

Runs each job of one pass once, in order and in process, through
``aireliab.cli.main``, and prints for each fitter (the module that calls
``_optim.maximize``) these counts.  An EP module without in-edges is
fitted by ``recurrent.fit_mle``, so its search runs inside ``recurrent``
and counts in that row.

- ``searches``: calls of ``maximize``.
- ``starts``: the starts they were given.
- ``dropped``: starts whose first value is not finite, which get no search.
- ``gradient``: L-BFGS-B runs on an exact score, one per searched start
  of an objective that returns its gradient with its value; a fallback's
  scored polish is not one of them.
- ``fallbacks``: those of them that went on through the simplex.
- ``simplex``: simplex runs, fallbacks included.
- ``simplex_evals``: the simplex runs' evaluations (each run's ``nfev``,
  its start's value included).
- ``score_evals``: calls of an objective that returns its gradient, each
  giving a value and a gradient (a fallback's simplex and polish calls
  included).
- ``evals``: every evaluation inside ``maximize``: start values, simplex,
  finite-difference polish and score calls.

The pass is the one that ``tools/compare_outputs.py`` runs: the jobs of
the workload in ``bench.workloads``, on the inputs that its ``setup``
builds for seed 5 in a temporary directory (``bundled-cli`` reads the
bundled ``data/`` tree).  These counts do not depend on the clock, so they
can back a claim of less search work where wall time on a busy host
cannot.

    python3 tools/count_evals.py [--workload {bundled-cli,dmv-fleet,ep-scale}]
"""

import argparse
import contextlib
import io
import sys
import tempfile
from pathlib import Path
from unittest import mock

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import scipy.optimize  # noqa: E402

from aireliab import _optim, cli, propagation, recurrent, srgm  # noqa: E402
from compare_outputs import WORKLOADS, workload_jobs  # noqa: E402

FITTERS = {"propagation": propagation, "recurrent": recurrent, "srgm": srgm}
COLUMNS = ("searches", "starts", "dropped", "gradient", "fallbacks", "simplex", "simplex_evals",
           "score_evals", "evals")
SEED = 5


def count_pass(jobs) -> tuple[dict, list[str]]:
    """The per-fitter counts of one pass over ``jobs``, and the jobs that exited non-zero."""
    counts = {name: dict.fromkeys(COLUMNS, 0) for name in FITTERS}
    running = []  # the tally of the search in progress, and whether its objective is scored
    polishing = []  # set while a fallback's scored polish runs
    real_maximize, real_nelder_mead = _optim.maximize, _optim._nelder_mead
    real_minimize, real_scaled_polish = scipy.optimize.minimize, _optim._scaled_polish

    def nelder_mead(*args):
        result = real_nelder_mead(*args)
        tally, scored = running[-1]
        tally["simplex"] += 1
        tally["fallbacks"] += scored[0]
        tally["simplex_evals"] += result[3]
        return result

    def minimize(*args, **kwargs):
        if kwargs.get("jac") is True and not polishing:
            running[-1][0]["gradient"] += 1
        return real_minimize(*args, **kwargs)

    def scaled_polish(*args):
        polishing.append(True)
        try:
            return real_scaled_polish(*args)
        finally:
            polishing.pop()

    def counted(tally):
        def maximize(objective, z0_list, tol, max_iter):
            scored = [False]  # set by the first value that comes with a gradient

            def counted_objective(z):
                result = objective(z)
                scored[0] = scored[0] or isinstance(result, tuple)
                tally["evals"] += 1
                tally["score_evals"] += isinstance(result, tuple)
                return result

            z0_list = list(z0_list)
            tally["searches"] += 1
            tally["starts"] += len(z0_list)
            searched = tally["gradient"], tally["simplex"]
            running.append((tally, scored))
            try:
                return real_maximize(counted_objective, z0_list, tol, max_iter)
            finally:
                running.pop()
                now = tally["gradient"], tally["simplex"]
                tally["dropped"] += len(z0_list) - (now[0] - searched[0] if scored[0]
                                                    else now[1] - searched[1])
        return maximize

    failed = []
    with contextlib.ExitStack() as stack:
        stack.enter_context(mock.patch.object(_optim, "_nelder_mead", nelder_mead))
        stack.enter_context(mock.patch.object(_optim, "_scaled_polish", scaled_polish))
        # ``maximize`` imports ``minimize`` from ``scipy.optimize`` when it is called
        stack.enter_context(mock.patch.object(scipy.optimize, "minimize", minimize))
        for name, module in FITTERS.items():
            stack.enter_context(mock.patch.object(module, "maximize", counted(counts[name])))
        for name, argv in jobs:
            sink = io.StringIO()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                code = cli.main(argv)
            if code != 0:
                failed.append(name)
    return counts, failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, default="bundled-cli")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        counts, failed = count_pass(zip(*workload_jobs(args.workload, SEED, Path(tmp))))
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
