"""The benchmark's workloads: seeded inputs, the ``air`` job list, output checks.

Each workload builds its inputs from the workload seed alone, lists the
``air`` invocations of one pass, and checks every job's outputs after the
pass, outside the timed region.  A check returns the job's failures, the
counts that must repeat exactly on one commit, and any figures of merit.

Checks that the fitted model dominates its generator compare
log-likelihoods on the same data: the maximum-likelihood fit must reach at
least the generating model's log-likelihood minus ``LOGLIK_RTOL`` relative.
"""

from __future__ import annotations

import csv
import json
import math
import shutil
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from aireliab import datasets, propagation, recurrent, simulate

LOGLIK_RTOL = 1e-6
# bundled-cli values recorded at the benchmark's own commit may differ in
# the last bits between BLAS builds; anything beyond that counts
REFERENCE_RTOL = 1e-9


@dataclass
class Context:
    """One replicate of a workload: where its inputs live and how its jobs run.

    Every pass of a run measures another replicate, whose inputs come from
    the workload seed and the replicate index alone.
    """

    inputs: Path
    seed: int
    threads: int
    data_root: Path
    replicate: int = 0


@dataclass
class Job:
    name: str
    argv: list[str]
    out: Path
    meta: dict = field(default_factory=dict)


@dataclass
class Outcome:
    failures: list[str] = field(default_factory=list)
    counts: dict = field(default_factory=dict)
    figures: dict = field(default_factory=dict)


def sub_seed(*key: int) -> int:
    """A 32-bit seed for one job, mixed from the workload seed and a key."""
    return int(np.random.SeedSequence([int(k) for k in key]).generate_state(1)[0])


def _rng(*key: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence([int(k) for k in key])))


def _csv_rows(path: Path) -> int:
    with open(path, encoding="utf-8", newline="") as handle:
        return sum(1 for _ in csv.reader(handle)) - 1


def _read_json(path: Path):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def dominates(fitted_ll: float, generator_ll: float, rtol: float = LOGLIK_RTOL) -> bool:
    """True when a fit reaches the generator's log-likelihood within ``rtol``."""
    return math.isfinite(fitted_ll) and fitted_ll >= generator_ll - rtol * abs(generator_ll)


# ---------------------------------------------------------------------------
# ep-scale


# The bundled EP truth of demos/build_sample_data.py.
EP_TRUTH = {
    "baseline": {"2d": [1.1, 0.9], "3d": [1.0, 1.0], "localization": [1.0, 2.5]},
    "edges": {"localization<-2d": [1.5, 1.2], "localization<-3d": [1.5, 1.2]},
    "sources": {"localization": ["2d", "3d"]},
}
CHECKED_MODULE = "localization"


def ep_spec(window: float) -> dict:
    """Cascade spec with injection over [0, W) and over [W/2, W), both at p = 0.8."""
    return dict(EP_TRUTH, window=float(window), scenarios=[
        {"weather": "clear", "injection": {"2d": [0.0, window, 0.8], "3d": [0.0, window, 0.8]}},
        {"weather": "snowy", "injection": {"2d": [window / 2, window, 0.8],
                                           "3d": [window / 2, window, 0.8]}},
    ])


def model_from_spec(spec: dict) -> propagation.EPModel:
    """The generating model of a cascade spec (edge keys ``target<-source``)."""
    return propagation.EPModel(
        {m: tuple(v) for m, v in spec["baseline"].items()},
        {tuple(key.split("<-")): tuple(v) for key, v in spec["edges"].items()},
    )


def model_from_fit(payload: dict) -> propagation.EPModel:
    """The fitted model in ``ep_model.json`` (edge keys ``source->target``)."""
    return propagation.EPModel(
        {m: tuple(v) for m, v in payload["baseline"].items()},
        {tuple(reversed(key.split("->"))): tuple(v) for key, v in payload["edges"].items()},
    )


def restricted(model: propagation.EPModel, module: str = CHECKED_MODULE) -> propagation.EPModel:
    """The model of one module: its baseline and its in-edges."""
    return propagation.EPModel({module: model.baseline[module]},
                               {key: v for key, v in model.edges.items() if key[0] == module})


def load_ep_logs(path: Path):
    return list(simulate.module_event_log(datasets.load(path, "module_error")).values())


def check_ep_dominance(fitted: propagation.EPModel, logs) -> tuple[bool, float, float]:
    """MLE dominance of the fit over the generator on ``logs``, for the checked module."""
    fit_ll = propagation.ep_log_likelihood(restricted(fitted), logs)
    gen_ll = propagation.ep_log_likelihood(restricted(model_from_spec(EP_TRUTH)), logs)
    return dominates(fit_ll, gen_ll), fit_ll, gen_ll


class EPScale:
    name = "ep-scale"
    windows = (25, 50, 100, 200)
    ladders = 2  # per pass: one ladder's time varies by a fifth with its inputs
    pass_seconds = 23.0

    def setup(self, ctx: Context) -> None:
        ctx.inputs.mkdir(parents=True, exist_ok=True)
        for w in (10, *self.windows):  # W = 10 serves the warm-up fit
            (ctx.inputs / f"spec-w{w}.json").write_text(
                json.dumps(ep_spec(w), indent=2) + "\n", encoding="utf-8")

    def warmup(self, ctx: Context, warm_dir: Path) -> list[list[str]]:
        log = warm_dir / "sim"
        threads = ["--threads", str(ctx.threads)]
        return [
            ["simulate", "ep-cascade", "--spec", str(ctx.inputs / "spec-w10.json"),
             "--seed", str(sub_seed(ctx.seed, ctx.replicate, 10)), "--out", str(log), *threads],
            ["fit-ep", "--log", str(log / "module_errors.csv"), "--out", str(warm_dir / "fit"),
             *threads],
        ]

    def jobs(self, ctx: Context, pass_dir: Path) -> list[Job]:
        jobs = []
        threads = ["--threads", str(ctx.threads)]
        for k in range(self.ladders):
            for w in self.windows:
                tag = f"w{w}.l{k}"
                logs = {}
                for role, label in ((1, "fit"), (2, "holdout")):
                    out = pass_dir / f"{tag}.simulate-{label}"
                    jobs.append(Job(f"{tag}.simulate-{label}", [
                        "simulate", "ep-cascade", "--spec", str(ctx.inputs / f"spec-w{w}.json"),
                        "--seed", str(sub_seed(ctx.seed, ctx.replicate, k, w, role)),
                        "--out", str(out), *threads],
                        out, {"kind": "simulate", "csv": "module_errors.csv", "size": f"w{w}"}))
                    logs[label] = out / "module_errors.csv"
                out = pass_dir / f"{tag}.fit-ep"
                jobs.append(Job(f"{tag}.fit-ep", [
                    "fit-ep", "--log", str(logs["fit"]), "--holdout", str(logs["holdout"]),
                    "--mae-grid", "10", "--out", str(out), *threads],
                    out, {"kind": "fit-ep", "log": logs["fit"], "size": f"w{w}"}))
        return jobs

    def check(self, job: Job) -> Outcome:
        outcome = Outcome()
        if job.meta["kind"] == "simulate":
            rows = _csv_rows(job.out / job.meta["csv"])
            outcome.counts["rows_written"] = rows
            if rows <= 0:
                outcome.failures.append("simulated log is empty")
            return outcome
        payload = _read_json(job.out / "ep_model.json")
        ok, fit_ll, gen_ll = check_ep_dominance(model_from_fit(payload),
                                                load_ep_logs(job.meta["log"]))
        outcome.figures["localization_loglik_fit"] = fit_ll
        outcome.figures["localization_loglik_generator"] = gen_ll
        if not ok:
            outcome.failures.append(
                f"MLE short of generator on {CHECKED_MODULE}: {fit_ll:.6f} < {gen_ll:.6f}")
        mae = read_mae(job.out / "mae.csv")
        if not all(math.isfinite(v) for v in mae.values()) or set(mae) != {"hpp", "nhpp", "ep"}:
            outcome.failures.append(f"malformed mae.csv: {mae}")
        else:
            outcome.figures["ep_holdout_mae"] = mae["ep"]
        return outcome

    def probe(self, job: Job) -> list:
        """Traced-run probes at each fitted model: (metric, unit, call)."""
        if job.meta["kind"] != "fit-ep":
            return []
        model = model_from_fit(_read_json(job.out / "ep_model.json"))
        logs = load_ep_logs(job.meta["log"])
        size = job.meta["size"]
        return [
            (f"propagation.loglik_eval_s.{size}", "s",
             lambda: propagation.ep_log_likelihood(model, logs)),
            # one start, one iteration: the gap tables plus one evaluation
            (f"propagation.fit_peak_mb.{size}", "MB",
             lambda: propagation.fit_ep(logs, multistarts=1, max_iter=1)),
        ]


def read_mae(path: Path) -> dict:
    with open(path, encoding="utf-8", newline="") as handle:
        rows = list(csv.reader(handle))
    return {row[0]: float(row[-1]) for row in rows[1:]}


# ---------------------------------------------------------------------------
# dmv-fleet


DMV_TRUTH = ("weibull_growth", (360.0, 0.004, 0.8))
# the bundled collision model of the same-shaped fleet (Waymo)
COLLISION_TRUTH = ("weibull_growth", (107.0, 0.002, 1.0))
MAKER = "Acme"


def write_fleet(directory: Path, n_vehicles: int, seed: int, months_csv: Path) -> None:
    """Mileage U(0.3, 2.5) per vehicle-month, plus manufacturer-level collisions."""
    directory.mkdir(parents=True, exist_ok=True)
    shutil.copyfile(months_csv, directory / "months.csv")
    table = datasets.MonthTable(datasets.load(directory / "months.csv", "month"))
    rng = _rng(seed)
    miles = np.round(rng.uniform(0.3, 2.5, size=(n_vehicles, len(table))), 3)
    rows = [datasets.MileageRow(MAKER, f"ACME{i:05d}", tuple(float(v) for v in miles[i]))
            for i in range(n_vehicles)]
    datasets.dump(rows, "mileage", directory / "mileage.csv")
    fleet = datasets.sum_schedules(datasets.derive_exposure(rows, table), unit_id=MAKER)
    model = recurrent.BaselineIntensityModel(*COLLISION_TRUTH)
    series = simulate.simulate_nhpp(model, fleet, table.tau, sub_seed(seed, 1))
    datasets.dump(simulate.collision_records(series.event_times, table, MAKER), "collision",
                  directory / "collisions.csv")


def vehicle_units(events: Path, fleet_dir: Path):
    table = datasets.MonthTable(datasets.load(fleet_dir / "months.csv", "month"))
    mileage = datasets.load(fleet_dir / "mileage.csv", "mileage")
    records = datasets.load(events, "disengagement")
    return simulate.event_series_from_disengagements(records, mileage, table, MAKER)


def manufacturer_units(fleet_dir: Path):
    table = datasets.MonthTable(datasets.load(fleet_dir / "months.csv", "month"))
    mileage = datasets.load(fleet_dir / "mileage.csv", "mileage")
    times = simulate.collision_times(datasets.load(fleet_dir / "collisions.csv", "collision"),
                                     table, MAKER)
    fleet = datasets.sum_schedules(datasets.derive_exposure(mileage, table))
    return [recurrent.EventSeries("fleet", times, fleet.tau, fleet)]


def check_recurrent_dominance(theta, units, truth) -> tuple[bool, float, float]:
    family, generator_theta = truth
    fit_ll = recurrent.log_likelihood(units, recurrent.BaselineIntensityModel(family, tuple(theta)))
    gen_ll = recurrent.log_likelihood(units, recurrent.BaselineIntensityModel(family,
                                                                              generator_theta))
    return dominates(fit_ll, gen_ll), fit_ll, gen_ll


class DMVFleet:
    name = "dmv-fleet"
    sizes = (250, 2000)
    pass_seconds = 12.5

    def setup(self, ctx: Context) -> None:
        for n in self.sizes:
            write_fleet(ctx.inputs / f"v{n}", n, sub_seed(ctx.seed, ctx.replicate, n),
                        ctx.data_root / "disengagements" / "months.csv")

    def warmup(self, ctx: Context, warm_dir: Path) -> list[list[str]]:
        fleet = ctx.inputs / f"v{self.sizes[0]}"
        return [["fit-recurrent", "--family", "power_law", "--level", "manufacturer",
                 "--events", str(fleet / "collisions.csv"), "--mileage", str(fleet / "mileage.csv"),
                 "--months", str(fleet / "months.csv"), "--out", str(warm_dir / "fit"),
                 "--threads", str(ctx.threads)]]

    def jobs(self, ctx: Context, pass_dir: Path) -> list[Job]:
        jobs = []
        common = ["--threads", str(ctx.threads)]
        family, theta = DMV_TRUTH
        for n in self.sizes:
            tag, fleet = f"v{n}", ctx.inputs / f"v{n}"
            files = ["--mileage", str(fleet / "mileage.csv"), "--months", str(fleet / "months.csv")]
            sim = pass_dir / f"{tag}.simulate"
            events = sim / "disengagements.csv"
            size_jobs = [Job(f"{tag}.simulate", [
                "simulate", "nhpp", "--family", family, "--theta", ",".join(map(str, theta)),
                *files, "--manufacture", MAKER, "--seed", str(sub_seed(ctx.seed, ctx.replicate, n, 2)),
                "--out", str(sim), *common], sim, {"kind": "simulate", "csv": "disengagements.csv"})]
            for label, path, schema in (("events", events, "disengagement"),
                                        ("mileage", fleet / "mileage.csv", "mileage")):
                out = pass_dir / f"{tag}.validate-{label}"
                size_jobs.append(Job(f"{tag}.validate-{label}", [
                    "validate", str(path), "--schema", schema, "--out", str(out), *common],
                    out, {"kind": "validate", "file": path}))
            out = pass_dir / f"{tag}.summarize"
            size_jobs.append(Job(f"{tag}.summarize", [
                "summarize", str(events), "--schema", "disengagement", "--out", str(out), *common],
                out, {"kind": "summarize"}))
            for level, event_file, truth in (("vehicle", events, DMV_TRUTH),
                                             ("manufacturer", fleet / "collisions.csv",
                                              COLLISION_TRUTH)):
                for fam in recurrent.FAMILIES:
                    out = pass_dir / f"{tag}.fit-{level}-{fam}"
                    size_jobs.append(Job(f"{tag}.fit-{level}-{fam}", [
                        "fit-recurrent", "--family", fam, "--level", level,
                        "--events", str(event_file), *files, "--out", str(out), *common],
                        out, {"kind": "fit", "family": fam, "level": level, "truth": truth,
                              "events": event_file, "fleet": fleet}))
            for job in size_jobs:
                job.meta["size"] = tag
            jobs.extend(size_jobs)
        return jobs

    def check(self, job: Job) -> Outcome:
        outcome = Outcome()
        kind = job.meta["kind"]
        if kind == "simulate":
            rows = _csv_rows(job.out / job.meta["csv"])
            outcome.counts["rows_written"] = rows
            if rows <= 0:
                outcome.failures.append("no events simulated")
        elif kind == "validate":
            check_validation(job, outcome)
        elif kind == "summarize":
            summary = _read_json(job.out / "summary.json")
            if not summary:
                outcome.failures.append("empty summary")
        else:
            payload = _read_json(job.out / f"fit-{MAKER.lower()}.json")
            if payload["family"] != job.meta["family"] or not math.isfinite(payload["log_lik"]):
                outcome.failures.append(f"malformed fit: {payload['family']} {payload['log_lik']}")
            elif job.meta["family"] == job.meta["truth"][0]:
                units = (vehicle_units(job.meta["events"], job.meta["fleet"])
                         if job.meta["level"] == "vehicle" else manufacturer_units(job.meta["fleet"]))
                ok, fit_ll, gen_ll = check_recurrent_dominance(payload["theta"], units,
                                                               job.meta["truth"])
                outcome.figures["loglik_fit"] = fit_ll
                outcome.figures["loglik_generator"] = gen_ll
                if not ok:
                    outcome.failures.append(f"MLE short of generator: {fit_ll:.6f} < {gen_ll:.6f}")
        return outcome

    def probe(self, job: Job) -> list:
        """Traced-run probes at the vehicle-level generator-family fit."""
        meta = job.meta
        if meta["kind"] != "fit" or meta["level"] != "vehicle" or meta["family"] != DMV_TRUTH[0]:
            return []
        payload = _read_json(job.out / f"fit-{MAKER.lower()}.json")
        model = recurrent.BaselineIntensityModel(meta["family"], tuple(payload["theta"]))
        units = vehicle_units(meta["events"], meta["fleet"])
        size = meta["size"]
        return [
            (f"recurrent.loglik_eval_s.{size}", "s", lambda: recurrent.log_likelihood(units, model)),
            (f"recurrent.fit_peak_mb.{size}", "MB",
             lambda: recurrent.fit_mle(units, meta["family"], multistarts=1, max_iter=1)),
        ]


def check_validation(job: Job, outcome: Outcome) -> None:
    report = _read_json(job.out / "report.json")
    outcome.counts["rows_parsed"] = report["rows"]
    if report["violations"] or report["rows"] != _csv_rows(job.meta["file"]):
        outcome.failures.append(f"validation report: {report['rows']} rows, "
                                f"{len(report['violations'])} violation(s)")


# ---------------------------------------------------------------------------
# bundled-cli


BUNDLED_FILES = (
    ("disengagements/disengagements.csv", "disengagement"),
    ("disengagements/mileage.csv", "mileage"),
    ("disengagements/months.csv", "month"),
    ("collisions/collisions.csv", "collision"),
    ("mixture-robustness/mixture.csv", "mixture"),
    ("adversarial-attacks/adversarial.csv", "adversarial"),
    ("module-errors/module_errors.csv", "module_error"),
    ("ai-incidents/incidents.csv", "incident"),
)
BUNDLED_DATASETS = ("ai-incidents", "mixture-robustness", "adversarial-attacks",
                    "module-errors", "disengagements", "collisions")
HAZARDS = ("dw2", "dw3", "gm", "nb2", "s", "tl")
MIXTURE_FITS = (("y1", "--scenario", "c1"), ("y2", "--scenario", "c2"),
                ("y1", "--pooled"), ("y2", "--pooled"))
LHD_SIZES = (10, 50, 200)
LHD_SEED = 7
SIMULATE_SEED = 11
REFERENCE = Path(__file__).resolve().parent / "reference.json"


class BundledCLI:
    """The README's subcommands over the bundled data/ tree.

    The inputs are the committed files, so the workload seed and the
    replicate only fix the order in which the jobs run.
    """

    name = "bundled-cli"
    pass_seconds = 13.5

    def __init__(self, reference: dict | None = None):
        self.reference = _read_json(REFERENCE) if reference is None else reference

    def setup(self, ctx: Context) -> None:
        ctx.inputs.mkdir(parents=True, exist_ok=True)
        order = _rng(ctx.seed, ctx.replicate).permutation(len(self.job_specs(ctx.data_root)))
        (ctx.inputs / "order.json").write_text(json.dumps([int(i) for i in order]) + "\n",
                                           encoding="utf-8")

    def warmup(self, ctx: Context, warm_dir: Path) -> list[list[str]]:
        root = ctx.data_root
        return [["fit-recurrent", "--family", "power_law", "--level", "manufacturer",
                 "--events", str(root / "collisions/collisions.csv"),
                 "--mileage", str(root / "collisions/mileage.csv"),
                 "--months", str(root / "collisions/months.csv"),
                 "--out", str(warm_dir / "fit"), "--threads", str(ctx.threads)]]

    def job_specs(self, root: Path) -> list[tuple[str, list[str], dict]]:
        specs = []
        for rel, schema in BUNDLED_FILES:
            specs.append((f"validate-{schema}", ["validate", str(root / rel), "--schema", schema],
                          {"kind": "validate", "file": root / rel}))
        for name in BUNDLED_DATASETS:
            specs.append((f"summarize-{name}", ["summarize", name, "--data-root", str(root)],
                          {"kind": "summarize"}))
        for level, sub in (("vehicle", "disengagements"), ("manufacturer", "collisions")):
            for family in recurrent.FAMILIES:
                specs.append((f"fit-recurrent-{level}-{family}", [
                    "fit-recurrent", "--family", family, "--level", level,
                    "--events", str(root / sub / f"{sub}.csv"),
                    "--mileage", str(root / sub / "mileage.csv"),
                    "--months", str(root / sub / "months.csv")], {"kind": "fit-recurrent"}))
        specs.append(("fit-ep", ["fit-ep", "--log", str(root / "module-errors/module_errors.csv"),
                                 "--mae-grid", "10"], {"kind": "fit-ep"}))
        adversarial = str(root / "adversarial-attacks/adversarial.csv")
        for hazard in HAZARDS:
            specs.append((f"fit-srgm-{hazard}", ["fit-srgm", "--input", adversarial,
                                                 "--hazard", hazard, "--stepwise"],
                          {"kind": "fit-srgm"}))
        for form in ("linear", "interactions", "poly:2"):
            specs.append((f"fit-resilience-{form.replace(':', '')}",
                          ["fit-resilience", "--input", adversarial, "--form", form],
                          {"kind": "fit-resilience"}))
        mixture = str(root / "mixture-robustness/mixture.csv")
        for response, *rest in MIXTURE_FITS:
            specs.append((f"fit-mixture-{response}-{rest[-1].lstrip('-')}",
                          ["fit-mixture", "--input", mixture, "--response", response, *rest],
                          {"kind": "fit-mixture"}))
        for n in LHD_SIZES:
            specs.append((f"design-lhd-n{n}", ["design-lhd", "--n", str(n), "--p", "3",
                                               "--seed", str(LHD_SEED)],
                          {"kind": "design-lhd", "size": f"n{n}"}))
        specs.append(("alt-af", ["alt-af", "--ln", "1000", "--la", "20"], {"kind": "alt-af"}))
        seed = ["--seed", str(SIMULATE_SEED)]
        specs.append(("simulate-nhpp", [
            "simulate", "nhpp", "--mileage", str(root / "disengagements/mileage.csv"),
            "--months", str(root / "disengagements/months.csv"), "--manufacture", "Waymo",
            "--theta", "360,0.004,0.8", *seed], {"kind": "simulate", "csv": "disengagements.csv"}))
        specs.append(("simulate-ep-cascade", ["simulate", "ep-cascade", *seed],
                      {"kind": "simulate", "csv": "module_errors.csv"}))
        specs.append(("simulate-srgm-counts", ["simulate", "srgm-counts", *seed],
                      {"kind": "simulate", "csv": "adversarial.csv"}))
        specs.append(("simulate-mixture", ["simulate", "mixture", *seed],
                      {"kind": "simulate", "csv": "mixture.csv"}))
        return specs

    def jobs(self, ctx: Context, pass_dir: Path) -> list[Job]:
        specs = self.job_specs(ctx.data_root)
        jobs = []
        for i in _read_json(ctx.inputs / "order.json"):
            name, argv, meta = specs[i]
            out = pass_dir / name
            jobs.append(Job(name, [*argv, "--out", str(out), "--threads", str(ctx.threads)],
                            out, meta))
        return jobs

    def recorded(self, job: Job) -> dict:
        """Values the checks compare against: log_lik per fit file, LHD criterion."""
        kind = job.meta["kind"]
        if kind in ("fit-recurrent", "fit-ep", "fit-srgm"):
            files = sorted(job.out.glob("fit-*.json")) if kind == "fit-recurrent" else \
                [job.out / ("ep_model.json" if kind == "fit-ep" else "srgm.json")]
            return {f"{path.name}:log_lik": _read_json(path)["log_lik"] for path in files}
        if kind == "design-lhd":
            return {"design.json:criterion": _read_json(job.out / "design.json")["criterion"]}
        return {}

    def check(self, job: Job) -> Outcome:
        outcome = Outcome()
        kind = job.meta["kind"]
        if kind == "validate":
            check_validation(job, outcome)
            return outcome
        if kind == "simulate":
            outcome.counts["rows_written"] = _csv_rows(job.out / job.meta["csv"])
            return outcome
        values = self.recorded(job)
        expected = self.reference.get(job.name, {})
        if values and set(values) != set(expected):
            outcome.failures.append(f"outputs {sorted(values)} do not match the recorded "
                                    f"{sorted(expected)}")
            return outcome
        for key, value in values.items():
            ref = expected[key]
            slack = REFERENCE_RTOL * abs(ref)
            worse = value > ref + slack if key.endswith("criterion") else value < ref - slack
            if not math.isfinite(value) or worse:
                outcome.failures.append(f"{key} = {value!r}, recorded {ref!r}")
        return outcome

    def probe(self, job: Job) -> list:
        return []


WORKLOADS = {cls.name: cls for cls in (EPScale, DMVFleet, BundledCLI)}
