"""Benchmark of the ``air`` command line, end to end and layer by layer.

Run from the root of a checkout:

    python3 bench/run.py --workload ep-scale --seed 1 --seconds 30 --trace 0

One process runs one workload as a closed loop with a single client: each
``air`` invocation (a job) goes through ``aireliab.cli.main(argv)`` after
the previous one has returned.  The run sets up the workload's seeded
inputs, then times whole passes over the job list, as many as fill about
``--seconds`` at the workload's typical pass time (at least two), and
checks every job's outputs after each pass, outside the timed region.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs one
untraced and one traced pass and prints the per-layer metrics taken from
spans recorded around the layers' public functions (see ``tracing.py``).
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; a full report
(every figure, counts, provenance) goes to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import tracemalloc
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
DATA = ROOT / "data"
OUT = ROOT / ".bench_out"
WORK = ROOT / ".bench_work"
SETUP_REPEATS = 3
MIN_PASSES = 2
IMPORT_CODE = ("import time; t = time.perf_counter(); import aireliab.cli; "
               "print(time.perf_counter() - t)")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


# ---------------------------------------------------------------------------
# provenance


def openblas_threads():
    """Thread count reported by the OpenBLAS library numpy loaded, if any."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as handle:
            libs = sorted({line.split()[-1] for line in handle if "openblas" in line})
    except OSError:
        return None
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_commit():
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10, check=False)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def provenance(args, threads: int) -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "openblas_threads": openblas_threads(),
        "job_threads": threads,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_commit": git_commit(),
        "src_sha256": source_digest(),
    }


# ---------------------------------------------------------------------------
# set-up


def import_seconds() -> float:
    """Median wall time of importing the package, over fresh interpreters."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    samples = []
    for _ in range(SETUP_REPEATS - 1):
        done = subprocess.run([sys.executable, "-c", IMPORT_CODE], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import aireliab.cli  # noqa: F401  (the in-process import is the last sample)

    samples.append(time.perf_counter() - start)
    if Path(aireliab.cli.__file__).resolve().parent.parent != SRC.resolve():
        fail(f"imported aireliab from {aireliab.cli.__file__}, not from {SRC}")
    return statistics.median(samples)


def tree_digest(directory: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(p for p in directory.rglob("*") if p.is_file()):
        digest.update(str(path.relative_to(directory)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def run_argv(cli, argv) -> int:
    try:
        return cli.main(argv)
    except SystemExit as exc:  # argparse rejects a command line
        return exc.code if isinstance(exc.code, int) else 1


# ---------------------------------------------------------------------------
# passes


@dataclass
class Pass:
    jobs: list
    times: list[float]
    codes: list[int]
    wall: float
    cpu: float = 0.0
    tracer: object = None
    crashes: dict = field(default_factory=dict)


def run_pass(cli, workload, ctx, pass_dir: Path, tracer=None) -> Pass:
    """Run one pass's jobs back to back; only the jobs are inside the timed region."""
    done = Pass(workload.jobs(ctx, pass_dir), [], [], 0.0, tracer=tracer)
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        if tracer is not None:
            tracer.install()
        try:
            start, cpu = time.perf_counter(), time.process_time()
            for index, job in enumerate(done.jobs):
                if tracer is not None:
                    tracer.begin_job(index, job.name)
                t0 = time.perf_counter()
                try:
                    code = run_argv(cli, job.argv)
                except Exception as exc:  # a crash is a failed job, not a failed run
                    done.crashes[index] = repr(exc)
                    code = -1
                done.times.append(time.perf_counter() - t0)
                done.codes.append(code)
                if tracer is not None:
                    tracer.end_job(code != 0)
                sink.seek(0)
                sink.truncate()
            done.wall = time.perf_counter() - start
            done.cpu = time.process_time() - cpu
        finally:
            if tracer is not None:
                tracer.uninstall()
    return done


def pass_count(workload, seconds: float) -> int:
    """Whole passes that fill about ``seconds``, from the workload's typical pass time.

    The count depends on nothing measured, so every run of one seed
    measures the same replicates and the same number of jobs.
    """
    return max(MIN_PASSES, round(seconds / workload.pass_seconds))


@dataclass
class PassCheck:
    counts: dict = field(default_factory=dict)
    failures: list[str] = field(default_factory=list)  # failed jobs, one line each
    broken: list[str] = field(default_factory=list)    # crashes and unreadable outputs
    figures: dict = field(default_factory=dict)


def check_pass(workload, done: Pass) -> PassCheck:
    """Check every job of a pass; exit codes first, then the workload's output checks."""
    result = PassCheck()
    for index, (job, code) in enumerate(zip(done.jobs, done.codes)):
        if index in done.crashes:
            line = f"{job.name}: crashed: {done.crashes[index]}"
            result.failures.append(line)
            result.broken.append(line)
            continue
        if code != 0:
            result.failures.append(f"{job.name}: exit code {code}")
            continue
        try:
            outcome = workload.check(job)
        except (OSError, KeyError, ValueError, TypeError) as exc:
            line = f"{job.name}: unreadable output: {exc!r}"
            result.failures.append(line)
            result.broken.append(line)
            continue
        result.failures.extend(f"{job.name}: {line}" for line in outcome.failures)
        result.counts.update({f"{job.name}.{k}": v for k, v in outcome.counts.items()})
        result.figures.update({f"{job.name}.{k}": v for k, v in outcome.figures.items()})
    return result


def failed_jobs(failures) -> set:
    return {line.split(":", 1)[0] for line in failures}


# ---------------------------------------------------------------------------
# metrics


def tail_percentile(times) -> tuple[float, int] | None:
    """Highest whole percentile with at least ten samples beyond it (None below 20)."""
    n = len(times)
    if n < 20:
        return None
    pct = math.floor(100 * (n - 10) / n)
    while pct > 0 and n - math.ceil(n * pct / 100) < 10:
        pct -= 1
    ordered = sorted(times)
    return ordered[math.ceil(n * pct / 100) - 1], pct


# end-to-end metrics on the last line, each gated by a bound in BENCHMARK.json;
# job_s_p50, job_s_tail, error_rate and ep_holdout_mae are printed and reported
GATED = ("wall_s", "peak_rss_mb", "setup_s")


def end_to_end(passes, setup_s, rss_mb) -> dict:
    job_times = [t for p in passes for t in p.times]
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (statistics.median(p.wall for p in passes), "s"),
        "job_s_p50": (statistics.median(job_times), "s"),
        "job_s_tail": (tail_percentile(job_times)[0], "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


# per-layer metrics every workload reports on its last line
FINAL_LAYER_METRICS = (
    "cli.self_s", "datasets.parse_s", "datasets.format_s", "datasets.parse_rows_per_s",
    "datasets.format_rows_per_s", "simulate.gen_s", "simulate.convert_s",
    "simulate.gen_events_per_s", "optimizer.fit_s",
    "trace.wall_s", "trace.overhead_s",
)
COUNTED = {
    "cli": ("calls", "errors"),
    "datasets": ("calls", "rows_parsed", "rows_written", "errors"),
    "simulate": ("calls", "events_generated", "errors"),
    "recurrent": ("calls", "fit_iterations", "errors"),
    "propagation": ("calls", "fit_iterations", "errors"),
    "srgm": ("calls", "fit_iterations", "errors"),
    "regression": ("calls", "errors"),
    "design": ("calls", "accepted_moves", "errors"),
}
RATES = (
    ("datasets.parse_rows_per_s", "datasets.rows_parsed", "datasets.parse_s"),
    ("datasets.format_rows_per_s", "datasets.rows_written", "datasets.format_s"),
    ("simulate.gen_events_per_s", "simulate.events_generated", "simulate.gen_s"),
    ("design.moves_per_s", "design.moves", "design.lhd_s"),
)
OPTIMIZED = ("recurrent", "propagation", "srgm")  # layers whose fits run the optimizer
FINAL_COUNTS = tuple(f"{layer}.{name}" for layer, names in COUNTED.items() for name in names) \
    + ("optimizer.fit_iterations",)


def layer_metrics(traced: Pass, untraced: Pass, probes: dict) -> dict:
    """Every per-layer figure of the traced pass: name -> (value, unit).

    Times are self times summed per layer and span kind, overall and per
    size of the workload's ladder (suffix ``.w200``, ``.v2000``, ``.n200``).
    """
    import tracing

    spans = traced.tracer.spans
    own = tracing.self_times(spans)
    seconds: dict[str, float] = {}
    counts: dict[str, int] = {f"{layer}.{name}": 0
                              for layer, names in COUNTED.items() for name in names}
    for span, self_s in zip(spans, own):
        size = traced.jobs[span.job].meta.get("size")
        kind = "self" if span.kind == "job" else span.kind
        keys = [f"{span.layer}.{kind}_s"] + ([f"{span.layer}.{kind}_s.{size}"] if size else [])
        bumps = {"calls": 1, "errors": int(span.error), **span.counts}
        for key in keys:
            seconds[key] = seconds.get(key, 0.0) + self_s
            suffix = key[len(f"{span.layer}.{kind}_s"):]
            for name, value in bumps.items():
                counts[f"{span.layer}.{name}{suffix}"] = \
                    counts.get(f"{span.layer}.{name}{suffix}", 0) + value
    detail = {key: (value, "s") for key, value in seconds.items()}
    for key in ("datasets.parse_s", "datasets.format_s", "simulate.gen_s",
                "simulate.convert_s", "cli.self_s"):
        detail.setdefault(key, (0.0, "s"))

    sizes = sorted({job.meta["size"] for job in traced.jobs if job.meta.get("size")})
    for suffix in [""] + [f".{size}" for size in sizes]:
        for name, count_key, time_key in RATES:
            spent = seconds.get(time_key + suffix, 0.0)
            if spent > 0 or not suffix:
                done = counts.get(count_key + suffix, 0)
                detail[name + suffix] = (done / spent if spent > 0 else 0.0, "1/s")
        if counts.get(f"design.moves{suffix}"):
            detail[f"design.accept_ratio{suffix}"] = (
                counts[f"design.accepted_moves{suffix}"] / counts[f"design.moves{suffix}"], "ratio")
    job_seconds = sum(s.end - s.start for s in spans if s.kind == "job")
    detail.update({
        "optimizer.fit_s": (sum(seconds.get(f"{layer}.fit_s", 0.0) for layer in OPTIMIZED), "s"),
        "optimizer.fit_iterations": (sum(counts[f"{layer}.fit_iterations"]
                                         for layer in OPTIMIZED), "count"),
        "trace.wall_s": (traced.wall, "s"),
        "trace.overhead_s": (traced.wall - untraced.wall, "s"),
        "trace.self_time_gap_s": (abs(sum(own) - job_seconds), "s"),
    })
    detail.update(probes)
    detail.update({key: (value, "count") for key, value in counts.items()})
    return detail


# ---------------------------------------------------------------------------
# exact-repeat counts


def ledger_check(workload: str, seed: int, digest: str, counts: dict) -> list[str]:
    """Compare counts with earlier runs of this seed on the same sources."""
    path = OUT / "counts" / f"{workload}-s{seed}-{digest[:16]}.json"
    previous = {}
    if path.is_file():
        with open(path, encoding="utf-8") as handle:
            previous = json.load(handle)
    mismatches = [f"{key}: {previous[key]} earlier, {value} now"
                  for key, value in counts.items() if key in previous and previous[key] != value]
    if not mismatches:
        merged = {**previous, **counts}
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(f".{os.getpid()}.tmp")
        tmp.write_text(json.dumps(merged, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        tmp.replace(path)
    return mismatches


# ---------------------------------------------------------------------------
# main


def run_probes(workload, jobs) -> dict:
    """Per probe name, the median over replicates of its time or peak memory."""
    samples: dict[tuple[str, str], list[float]] = {}
    for job in jobs:
        for name, unit, call in workload.probe(job):
            if unit == "MB":
                tracemalloc.start()
                try:
                    call()
                    value = tracemalloc.get_traced_memory()[1] / 2 ** 20
                finally:
                    tracemalloc.stop()
            else:
                start = time.perf_counter()
                call()
                value = time.perf_counter() - start
            samples.setdefault((name, unit), []).append(value)
    return {name: (statistics.median(values), unit) for (name, unit), values in samples.items()}


def span_counts(traced: Pass) -> dict:
    """Exact-repeat counts recorded by the spans, per job and layer."""
    counts: dict[str, int] = {}
    for span in traced.tracer.spans:
        for name, value in span.counts.items():
            key = f"{traced.jobs[span.job].name}.{span.layer}.{name}"
            counts[key] = counts.get(key, 0) + value
    return counts


def set_up(cli, workload, replicate) -> tuple[list[float], list[str]]:
    """Set up replicate 0 and warm up, ``SETUP_REPEATS`` times; returns times and problems."""
    times, digests, problems = [], [], []
    for copy in range(SETUP_REPEATS):
        ctx = replicate(0, copy)
        start = time.perf_counter()
        workload.setup(ctx)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            codes = [run_argv(cli, argv)
                     for argv in workload.warmup(ctx, ctx.inputs.parent / f"warm{copy}")]
        times.append(time.perf_counter() - start)
        digests.append(tree_digest(ctx.inputs))
        if any(codes):
            problems.append(f"warm-up exited with {codes}")
    if len(set(digests)) != 1:
        problems.append("set-up from one seed produced different input files")
    return times, problems


def measure(cli, workload, replicate, n_passes: int, trace: bool):
    """Timed passes, each checked after it ends.

    Without tracing, pass *i* measures replicate *i*.  With tracing,
    replicate 0 runs untraced and then traced, and the probes run at the
    traced pass's fitted models.
    """
    import tracing

    passes, checks, counts, problems, probes = [], [], {}, [], {}
    ctx = replicate(0)
    for number in range(n_passes):
        index = 0 if trace else number
        if index > 0:
            ctx = replicate(index)
            workload.setup(ctx)
        tracer = tracing.Tracer() if trace and number > 0 else None
        pass_dir = ctx.inputs.parent / f"pass{number}"
        done = run_pass(cli, workload, ctx, pass_dir, tracer)
        check = check_pass(workload, done)
        if tracer is not None:
            probes = run_probes(workload, done.jobs)
            check.counts.update(span_counts(done))
        shutil.rmtree(pass_dir, ignore_errors=True)
        for key, value in check.counts.items():
            key = f"r{index}.{key}"
            if counts.setdefault(key, value) != value:
                problems.append(f"count {key} changed between passes: {counts[key]} then {value}")
        passes.append(done)
        checks.append(check)
    return passes, checks, counts, problems, probes


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "aireliab" / "__init__.py").is_file() or not (DATA / "DataList.csv").is_file():
        fail(f"{ROOT} is not a checkout of the repository: src/aireliab or data/ is missing")
    if args.seconds <= 0:
        fail("--seconds must be positive")
    import_s = import_seconds()
    from aireliab import cli

    import workloads

    if args.workload not in workloads.WORKLOADS:
        fail(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]()
    threads = min(2, len(os.sched_getaffinity(0)))
    work = WORK / f"{args.workload}-s{args.seed}-{os.getpid()}"

    def replicate(index: int, copy: int = 0):
        return workloads.Context(work / f"r{index}-{copy}" / "inputs", args.seed, threads, DATA,
                                 index)

    n_passes = 2 if args.trace else pass_count(workload, args.seconds)
    try:
        setup_times, problems = set_up(cli, workload, replicate)
        passes, checks, counts, pass_problems, probes = measure(
            cli, workload, replicate, n_passes, bool(args.trace))
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        shutil.rmtree(work, ignore_errors=True)
    setup_s = import_s + statistics.median(setup_times)
    problems += pass_problems + [line for check in checks for line in check.broken]
    problems += [f"count differs from an earlier run: {line}"
                 for line in ledger_check(args.workload, args.seed, source_digest(), counts)]

    attempted = sum(len(p.jobs) for p in passes)
    failed = sum(len(failed_jobs(check.failures)) for check in checks)
    figures = {f"pass{i}.{k}": v for i, check in enumerate(checks) for k, v in check.figures.items()}
    report = {
        "provenance": provenance(args, threads),
        "setup": {"import_s": import_s, "setup_repeats_s": setup_times},
        "passes": [{"wall_s": p.wall, "cpu_s": p.cpu, "traced": p.tracer is not None,
                    "jobs": {j.name: t for j, t in zip(p.jobs, p.times)}} for p in passes],
        "failures": [check.failures for check in checks],
        "counts": counts,
        "figures": figures,
    }
    tail = None
    if args.trace:
        untraced, traced = passes
        shown = layer_metrics(traced, untraced, probes)
        if shown["trace.self_time_gap_s"][0] > 1e-6 * max(sum(traced.times), 1.0):
            problems.append("per-layer self times do not add up to the job times")
        final = {name: shown[name] for name in FINAL_LAYER_METRICS + FINAL_COUNTS}
        report["per_layer"] = {k: {"value": v, "unit": u} for k, (v, u) in sorted(shown.items())}
    else:
        metrics = end_to_end(passes, setup_s, rss_mb)
        tail = tail_percentile([t for p in passes for t in p.times])
        shown = dict(metrics)
        shown["error_rate"] = (failed / attempted, "ratio")
        mae = [v for k, v in figures.items() if k.endswith("ep_holdout_mae")]
        if mae:
            shown["ep_holdout_mae"] = (statistics.median(mae), "events")
        final = {name: metrics[name] for name in GATED}
        report["end_to_end"] = {k: {"value": v, "unit": u} for k, (v, u) in shown.items()}
        report["job_s_tail"] = {"percentile": tail[1], "samples": attempted}
    report["problems"] = problems
    report["correct"] = not problems

    (OUT / "results").mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%d-%H%M%S")
    name = f"{args.workload}-s{args.seed}-t{args.trace}-{stamp}-{os.getpid()}.json"
    (OUT / "results" / name).write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")

    for line in problems:
        print(f"bench: {line}", file=sys.stderr)
    for number, check in enumerate(checks):
        for line in check.failures:
            print(f"failed in pass {number}: {line}")
    for key, (value, unit) in sorted(shown.items()):
        print(f"{args.workload:12s} {key:40s} {value:16.6g} {unit}")
    if tail:
        print(f"{args.workload:12s} job_s_tail is p{tail[1]} of {attempted} job times")
    print(f"{args.workload:12s} attempted {attempted}, failed {failed}; "
          f"report .bench_out/results/{name}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in final.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
