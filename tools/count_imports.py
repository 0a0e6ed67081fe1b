"""Show which scipy subpackages each bundled ``air`` subcommand loads, and its start-up cost.

Runs ``import aireliab.cli`` alone, then each job of
``bench.workloads.BundledCLI.job_specs`` (the README's subcommands on
the bundled ``data/`` tree), each in a fresh interpreter, three times.
For each it prints the exit code, the median wall time of the whole
process and the heavy scipy subpackages the process had loaded when the
command returned.  The module sets do not depend on the clock, so they
show a change in what a command loads where wall time on a busy host
cannot; the times show what that is worth to a user.

    python3 tools/count_imports.py
"""

import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from bench.workloads import BundledCLI  # noqa: E402

HEAVY = ("optimize", "special", "linalg", "sparse", "spatial", "stats")
RUNS = 3
PROBE = f"""
import contextlib, io, json, sys
from aireliab import cli
argv = json.loads(sys.argv[1])
code = 0
if argv:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
print(json.dumps([code, [m for m in {HEAVY!r} if "scipy." + m in sys.modules]]))
"""


def probe(argv: list[str]) -> tuple[int, list[str], float]:
    """Exit code, loaded heavy subpackages and median process wall time of one job."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    seen, times = set(), []
    for _ in range(RUNS):
        start = time.perf_counter()
        done = subprocess.run([sys.executable, "-c", PROBE, json.dumps(argv)], env=env,
                              capture_output=True, text=True, timeout=600, check=True)
        times.append(time.perf_counter() - start)
        code, loaded = json.loads(done.stdout.strip().splitlines()[-1])
        seen.add((code, tuple(loaded)))
    if len(seen) != 1:
        raise RuntimeError(f"{argv}: runs disagree on exit code or modules: {sorted(seen)}")
    (code, loaded), = seen
    return code, list(loaded), statistics.median(times)


def main() -> int:
    rows, failed = [], []
    with tempfile.TemporaryDirectory() as tmp:
        jobs = [("import aireliab.cli", [])]
        jobs += [(name, [*argv, "--out", str(Path(tmp) / name)])
                 for name, argv, _ in BundledCLI().job_specs(ROOT / "data")]
        for name, argv in jobs:
            code, loaded, seconds = probe(argv)
            if code != 0:
                failed.append(name)
            rows.append([name, str(code), f"{seconds:.2f}", " ".join(loaded) or "-"])
    header = ["job", "exit", "median_s", "scipy subpackages loaded"]
    widths = [max(len(row[i]) for row in [header, *rows]) for i in range(3)]
    for row in [header, *rows]:
        print("  ".join([row[0].ljust(widths[0]), *(v.rjust(w) for v, w in
                                                    zip(row[1:3], widths[1:])), row[3]]))
    if failed:
        print(f"jobs that exited non-zero: {', '.join(failed)}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
