"""Record the bundled-cli reference values the benchmark's checks compare with.

Run from the root of a checkout, on the commit whose outputs become the
reference:

    python3 bench/record_reference.py

It runs every bundled-cli job once and writes ``bench/reference.json``:
each fit's ``log_lik`` (later runs must reach at least it) and each
``design-lhd`` criterion (later runs must not exceed it).
"""

from __future__ import annotations

import json
import shutil
import sys

import run


def main() -> int:
    run.import_seconds()
    from aireliab import cli

    import workloads

    workload = workloads.BundledCLI(reference={})
    work = run.WORK / "record-reference"
    try:
        ctx = workloads.Context(work / "inputs", 0, 1, run.DATA)
        workload.setup(ctx)
        done = run.run_pass(cli, workload, ctx, work / "pass")
        failed = [job.name for job, code in zip(done.jobs, done.codes) if code != 0]
        if failed:
            print(f"jobs failed: {failed}", file=sys.stderr)
            return 1
        reference = {job.name: workload.recorded(job) for job in done.jobs}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    reference = {name: values for name, values in sorted(reference.items()) if values}
    workloads.REFERENCE.write_text(json.dumps(reference, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {workloads.REFERENCE} ({len(reference)} jobs)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
