"""The ``air`` command line: ingestion, fitting, design, and simulation.

Every subcommand writes its results plus a ``manifest.json`` (command,
flags, input digests, seed, the package, Python, numpy and scipy
versions, timestamps) to an output directory, ``./air-out/<timestamp>``
unless ``--out`` says otherwise.  Exit codes: 0 on success, 2 when
validation finds violations (the report is still written), 1 on other
errors.
"""

from __future__ import annotations

import argparse
import csv
import datetime as dt
import hashlib
import json
import math
import sys
from pathlib import Path

import numpy as np
import scipy

from . import __version__, datasets, design, propagation, recurrent, regression, simulate, srgm
from .datasets.repository import DATA_ROOT_ENV

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_VIOLATIONS = 2


def _fmt17(value) -> str:
    return f"{float(value):.17g}"


def _sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _finite(value):
    """``value`` with every non-finite float in it, at any depth, as None."""
    if isinstance(value, dict):
        return {k: _finite(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite(v) for v in value]
    return None if isinstance(value, float) and not math.isfinite(value) else value


def _dumps(value) -> str:
    """JSON with every non-finite float written as null."""
    return json.dumps(_finite(value), indent=2)


class Run:
    """Output directory plus the manifest that describes the run."""

    def __init__(self, args):
        self.started = dt.datetime.now(dt.timezone.utc)
        out = getattr(args, "out", None)
        if out is None:
            stamp = self.started.strftime("%Y%m%d-%H%M%S-%f")
            out = Path("air-out") / stamp
        self.dir = Path(out)
        self.dir.mkdir(parents=True, exist_ok=True)
        self.args = args
        self.inputs: dict[str, str] = {}

    def track_input(self, path) -> Path:
        path = Path(path)
        self.inputs[str(path)] = _sha256(path)
        return path

    def write_json(self, name: str, payload) -> Path:
        return self.write_text(name, _dumps(payload) + "\n")

    def report(self, name: str, payload, *shown) -> Path:
        """``payload`` written as ``name`` and printed, whole or only its
        ``shown`` keys, both through the same encoder."""
        target = self.write_json(name, payload)
        print(_dumps({k: payload[k] for k in shown} if shown else payload))
        return target

    def write_text(self, name: str, text: str) -> Path:
        target = self.dir / name
        target.write_text(text, encoding="utf-8")
        return target

    def write_table(self, name: str, rows) -> Path:
        """CSV lines: string cells verbatim, numbers at 17 significant digits."""
        lines = [",".join(c if isinstance(c, str) else _fmt17(c) for c in row) for row in rows]
        return self.write_text(name, "\n".join(lines) + "\n")

    def finish(self) -> None:
        flags = {
            k: (str(v) if isinstance(v, Path) else v)
            for k, v in vars(self.args).items()
            if k != "func" and not k.startswith("_")
        }
        manifest = {
            "command": self.args.command,
            "flags": flags,
            "inputs": self.inputs,
            "seed": getattr(self.args, "seed", None),
            "version": __version__,
            "versions": {"python": sys.version.split()[0], "numpy": np.__version__,
                         "scipy": scipy.__version__},
            "started": self.started.isoformat(),
            "finished": dt.datetime.now(dt.timezone.utc).isoformat(),
        }
        self.write_json("manifest.json", manifest)


def _detect_schema(path) -> str:
    # header cells as the parser matches them: verbatim, spaces included
    with open(path, "r", encoding="utf-8-sig", newline="") as handle:
        header_set = set(next(csv.reader(handle), []))
    matches = [n for n, schema in datasets.SCHEMAS.items() if set(schema.columns) <= header_set]
    # prefer the most specific match (largest required column set)
    if matches:
        return max(matches, key=lambda n: len(datasets.SCHEMAS[n].columns))
    raise datasets.SchemaError(f"could not match {path} to any registered schema")


def _resolve_dataset(args) -> tuple[Path, str]:
    """A CSV path (with schema) from a file path or an index name."""
    candidate = Path(args.dataset)
    if candidate.is_file():
        schema = args.schema or _detect_schema(candidate)
        return candidate, schema
    root = datasets.resolve_data_root(args.data_root)
    index = datasets.load_index(root)
    directory = index.directory(args.dataset)
    csvs = sorted(directory.glob("*.csv"))
    for path in csvs:
        try:
            schema = args.schema or _detect_schema(path)
        except datasets.SchemaError:
            continue
        if args.schema is None or schema == args.schema:
            return path, schema
    raise FileNotFoundError(f"no schema-matching CSV under {directory}")


# ---------------------------------------------------------------------------
# subcommands


def cmd_validate(args, run: Run) -> int:
    path = run.track_input(args.file)
    options = {}
    if args.schema == "adversarial":
        options["accuracy_scale"] = args.accuracy_scale
    report = datasets.validate(path, args.schema, **options)
    run.report("report.json", report.to_dict())
    return EXIT_OK if report.ok else EXIT_VIOLATIONS


def cmd_summarize(args, run: Run) -> int:
    path, schema = _resolve_dataset(args)
    run.track_input(path)
    records = datasets.load(path, schema)
    summary = datasets.summarize(records, schema)
    run.report("summary.json", summary)
    return EXIT_OK


def _curve_payload(model, tau, grid_points):
    grid = np.linspace(tau / grid_points, tau, grid_points)
    t, bif, cbif = recurrent.curve_table(model, grid)
    return [
        {"t": float(a), "bif": float(b), "cbif": float(c)}
        for a, b, c in zip(t, bif, cbif)
    ]


def _fit_payload(fit, tau, grid_points):
    payload = {
        "family": fit.model.family,
        "theta": list(fit.model.theta),
        "log_lik": fit.log_lik,
        "aic": fit.aic,
        "converged": fit.converged,
        "curve": _curve_payload(fit.model, tau, grid_points),
    }
    if fit.stderr is not None:
        payload["stderr"] = list(fit.stderr)
    return payload


def cmd_fit_recurrent(args, run: Run) -> int:
    if args.grid_points < 1:
        raise ValueError(f"--grid-points must be at least 1, got {args.grid_points}")
    months = datasets.MonthTable(datasets.load(run.track_input(args.months), "month"))
    mileage = datasets.load(run.track_input(args.mileage), "mileage")
    schema = "disengagement" if args.level == "vehicle" else "collision"
    events = datasets.load(run.track_input(args.events), schema)
    if not events:
        raise ValueError(f"{args.events} holds no events")
    manufacturers = sorted(set(datasets.column(events, "manufacture")))
    if args.manufacturer:
        if args.manufacturer not in manufacturers:
            raise ValueError(f"no events for manufacturer {args.manufacturer!r}")
        manufacturers = [args.manufacturer]

    for name in manufacturers:
        if args.level == "vehicle":
            units = simulate.event_series_from_disengagements(events, mileage, months, name)
            fit = recurrent.fit_mle(units, args.family)
        else:
            times = simulate.collision_times(events, months, name)
            fleet = datasets.derive_exposure(datasets.select(mileage, "manufacture", name), months)
            fit = recurrent.fit_manufacturer_level(times, fleet, args.family)
        payload = _fit_payload(fit, months.tau, args.grid_points)
        payload["manufacturer"] = name
        run.write_json(f"fit-{name.lower().replace(' ', '-')}.json", payload)
        print(f"{name}: family={args.family} theta={fit.model.theta} "
              f"log_lik={fit.log_lik:.4f} aic={fit.aic:.4f} converged={fit.converged}")
    return EXIT_OK


def _module_logs(run: Run, path):
    """The scenario logs of a module_error CSV, which must hold at least one row."""
    records = datasets.load(run.track_input(path), "module_error")
    if not records:
        raise ValueError(f"{path} holds no module error rows")
    return list(simulate.module_event_log(records).values())


def cmd_fit_ep(args, run: Run) -> int:
    if args.mae_grid < 0:
        raise ValueError(f"--mae-grid must be non-negative, got {args.mae_grid}")
    if args.holdout is not None and not args.mae_grid:
        raise ValueError("--holdout is read only for the MAE table; it needs a positive --mae-grid")
    logs = _module_logs(run, args.log)
    held = _module_logs(run, args.holdout) if args.holdout else logs
    if args.mae_grid and len({log.window for log in held}) > 1:
        windows = ", ".join(f"scenario {log.scenario_id}: {log.window:g}" for log in held)
        raise ValueError(f"the MAE grid needs one window for every held-out scenario, got {windows}")
    fit = propagation.fit_ep(logs)
    payload = {
        "modules": list(fit.model.baseline),
        "baseline": {m: list(v) for m, v in fit.model.baseline.items()},
        "edges": {f"{src}->{tgt}": list(v) for (tgt, src), v in fit.model.edges.items()},
        "log_lik": fit.log_lik,
        "aic": fit.aic,
        "converged": fit.converged,
    }
    run.report("ep_model.json", payload, "log_lik", "aic", "converged")
    if args.mae_grid:
        window = held[0].window
        grid = np.linspace(window / args.mae_grid, window, args.mae_grid)
        competitors = {
            "hpp": propagation.fit_independent_hpp(logs).model,
            "nhpp": propagation.fit_independent_nhpp(logs).model,
            "ep": fit.model,
        }
        rows = [["model", *grid, "overall"]]
        for name, model in competitors.items():
            per_point = [propagation.evaluate_mae(model, held, [g]) for g in grid]
            overall = propagation.evaluate_mae(model, held, grid)
            rows.append([name, *per_point, overall])
            print(f"MAE[{name}] = {overall:.6g}")
        run.write_table("mae.csv", rows)
    return EXIT_OK


def _covariates(value, default):
    """The names of ``--covariates``: ``default`` when it is absent, none
    when it is empty, else its comma-separated names."""
    if value is None:
        return default
    return tuple(value.split(",")) if value else ()


def cmd_fit_srgm(args, run: Run) -> int:
    records = datasets.load(run.track_input(args.input), "adversarial")
    covariates = _covariates(args.covariates, ("Alpha", "F1", "Epsilon", "FGSM"))
    series = simulate.interval_series_from_adversarial(records, args.scenario, covariates)
    if args.stepwise:
        fit = srgm.forward_stepwise(series, args.hazard, covariates, split=args.split)
    else:
        fit = srgm.fit_srgm(series, args.hazard, covariates=covariates, split=args.split)
    payload = {
        "omega": fit.omega,
        "hazard": {"family": fit.hazard.family, "params": list(fit.hazard.params)},
        "beta": fit.beta,
        "trace": [[name, aic] for name, aic in fit.trace],
        "holdout_mae": fit.holdout_mae,
        "log_lik": fit.log_lik,
        "aic": fit.aic,
        "converged": fit.converged,
        "n_fit": fit.n_fit,
    }
    run.report("srgm.json", payload, "omega", "hazard", "beta", "holdout_mae")
    observed = np.cumsum(series.counts)
    run.write_table("cumulative.csv", [("t", "observed_cumulative", "fitted_cumulative"),
                                       *zip(range(1, series.n_steps + 1), observed, fit.fitted)])
    return EXIT_OK


def cmd_fit_resilience(args, run: Run) -> int:
    records = datasets.load(run.track_input(args.input), "adversarial")
    covariates = _covariates(args.covariates, ("Alpha", "Epsilon", "FGSM"))
    series = simulate.interval_series_from_adversarial(
        records, args.scenario, covariates, performance_column=args.response
    )
    form, degree = args.form, 2
    if form.startswith("poly:"):
        form, degree = "poly", int(args.form.split(":", 1)[1])
    fit = srgm.fit_resilience(series, form, covariates, degree=degree, split=args.split)
    payload = {
        "form": args.form,
        "intercept": fit.intercept,
        "coef": fit.coef,
        "trace": [[name, aic] for name, aic in fit.trace],
        "holdout_mae": fit.holdout_mae,
        "baseline_mae": fit.baseline_mae,
        "n_fit": fit.n_fit,
    }
    run.report("resilience.json", payload, "form", "intercept", "coef", "holdout_mae")
    steps = range(1, series.n_steps + 1)
    run.write_table("reconstruction.csv", [("t", "observed", "fitted"),
                                           *zip(steps, series.performance, fit.reconstructed)])
    return EXIT_OK


def cmd_fit_mixture(args, run: Run) -> int:
    records = datasets.load(run.track_input(args.input), "mixture")
    fit = regression.fit_mixture(records, args.response, scenario=args.scenario,
                                 pooled=args.pooled)
    payload = {
        "response": args.response,
        "scenario": fit.scenario,
        "pooled": args.pooled,
        "coef": fit.coef_dict(),
        "stderr": dict(zip(fit.terms, (float(s) for s in fit.stderr))),
        "resid_sd": fit.resid_sd,
        "n": fit.n,
    }
    z = [args.z1, args.z2] + ([0, 0] if args.pooled else [])
    table = regression.predict_simplex_grid(fit, z, args.grid)
    run.report("mixture.json", payload, "coef", "resid_sd")
    run.write_table("contour_grid.csv", [("x1", "x2", "x3", "yhat"), *table])
    return EXIT_OK


def cmd_design_lhd(args, run: Run) -> int:
    result = design.search_mmlhd(args.n, args.p, k=args.k, m=args.m,
                                 seed=args.seed, budget=args.budget)
    run.write_table("design.csv", result.design.matrix)
    run.write_json("design.json", {
        "n": args.n, "p": args.p, "k": args.k, "m": args.m,
        "criterion": result.criterion, "seed": args.seed,
    })
    print(f"criterion = {result.criterion:.12g} (n={args.n}, p={args.p}, "
          f"k={args.k}, m={args.m}, seed={args.seed})")
    return EXIT_OK


def cmd_alt_af(args, run: Run) -> int:
    flags = {"life_normal": args.ln, "life_accelerated": args.la,
             "activation_energy": args.ea, "temp_use": args.tuse, "temp_stress": args.tstress}
    inputs = {name: value for name, value in flags.items() if value is not None}
    factor = design.acceleration_factor(**inputs)
    run.write_json("alt.json", {"acceleration_factor": factor, **inputs})
    print(f"{factor:g}")
    return EXIT_OK


DEFAULT_EP_SPEC = {
    "baseline": {"2d": [1.0, 0.8], "3d": [1.0, 0.9], "localization": [1.0, 2.0]},
    "edges": {"localization<-2d": [2.0, 1.0], "localization<-3d": [2.0, 1.0]},
    "sources": {"localization": ["2d", "3d"]},
    "window": 20.0,
    "scenarios": [
        {"weather": "clear", "injection": {"2d": [0.0, 20.0, 0.8], "3d": [0.0, 20.0, 0.8]}},
        {"weather": "snowy", "injection": {"2d": [10.0, 20.0, 0.8], "3d": [10.0, 20.0, 0.8]}},
    ],
}


def _object(value, what: str) -> dict:
    """``value`` if it is a JSON object, else a ValueError naming ``what``."""
    if not isinstance(value, dict):
        raise ValueError(f"{what} is not a JSON object")
    return value


def _is_number(value) -> bool:
    """Whether ``value`` is a JSON number (``true`` and ``false`` are not)."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _numbers(value, what: str, n: int | None = None) -> tuple:
    """``value`` as a tuple if it is a JSON list of numbers (``n`` of them
    when given), else a ValueError naming ``what``."""
    if not (isinstance(value, list) and all(map(_is_number, value))
            and len(value) == (n or len(value))):
        raise ValueError(f"{what} is not a list of {'' if n is None else f'{n} '}numbers")
    return tuple(value)


def cmd_simulate(args, run: Run) -> int:
    if args.generator == "nhpp":
        if args.mileage is None or args.months is None:
            raise ValueError("simulate nhpp needs both --mileage and --months")
        months = datasets.MonthTable(datasets.load(run.track_input(args.months), "month"))
        mileage = datasets.select(datasets.load(run.track_input(args.mileage), "mileage"),
                                  "manufacture", args.manufacture)
        if not mileage:
            raise ValueError(f"no mileage rows for {args.manufacture!r}")
        theta = tuple(float(v) for v in args.theta.split(","))
        model = recurrent.BaselineIntensityModel(args.family, theta)
        exposures = datasets.derive_exposure(mileage, months)
        series = simulate.simulate_fleet(model, exposures, months.tau, args.seed)
        records = simulate.disengagement_records(series, months, args.manufacture)
        datasets.dump(records, "disengagement", run.dir / "disengagements.csv")
        print(f"wrote {len(records)} events for {len(series)} vehicles")
    elif args.generator == "ep-cascade":
        spec = DEFAULT_EP_SPEC
        if args.spec:
            spec = _object(json.loads(Path(run.track_input(args.spec)).read_text(encoding="utf-8")),
                           "cascade spec")
        missing = [key for key in ("baseline", "window", "scenarios") if key not in spec]
        if missing:
            raise ValueError(f"cascade spec lacks the key(s) {missing}")
        if not _is_number(spec["window"]):
            raise ValueError("window is not a number")
        edges = {tuple(key.split("<-")): _numbers(v, f"edge {key!r}")
                 for key, v in _object(spec.get("edges", {}), "edges").items()}
        bad = ["<-".join(pair) for pair in edges if len(pair) != 2]
        if bad:
            raise ValueError(f"edge key {bad[0]!r} is not of the form '<target><-<source>'")
        model = propagation.EPModel({m: _numbers(v, f"baseline {m!r}") for m, v in
                                     _object(spec["baseline"], "baseline").items()}, edges)
        sources = _object(spec.get("sources", {}), "sources")
        for m, v in sources.items():
            if not (isinstance(v, list) and all(isinstance(s, str) for s in v)):
                raise ValueError(f"sources {m!r} is not a list of strings")
        sources = {m: tuple(v) for m, v in sources.items()}
        unlisted = [(t, s) for t, s in edges if s not in sources.get(t, ())]
        if unlisted:
            target, source = unlisted[0]
            raise ValueError(f"edge '{target}<-{source}': sources {target!r} does not list "
                             f"{source!r}")
        if not isinstance(spec["scenarios"], list) or not spec["scenarios"]:
            raise ValueError("cascade spec needs a non-empty list of scenarios")
        tables = []
        for idx, scenario in enumerate(spec["scenarios"], start=1):
            scenario = _object(scenario, f"scenario {idx}")
            if not isinstance(scenario.get("weather", ""), str):
                raise ValueError(f"scenario {idx} weather is not a string")
            injection = {
                m: propagation.InjectionWindow(*_numbers(v, f"scenario {idx} injection {m!r}", 3))
                for m, v in _object(scenario.get("injection", {}),
                                    f"scenario {idx} injection").items()
            }
            log = simulate.simulate_ep_cascade(
                model, sources, float(spec["window"]), injection,
                seed=simulate.derive_seed(args.seed, idx), scenario_id=idx,
                weather=scenario.get("weather"),
            )
            tables.append(simulate.module_error_records(log))
        rows = datasets.concat(tables)
        datasets.dump(rows, "module_error", run.dir / "module_errors.csv")
        print(f"wrote {len(rows)} module error rows over {len(spec['scenarios'])} scenarios")
    elif args.generator == "srgm-counts":
        hazard = srgm.DiscreteHazard(args.hazard, tuple(float(v) for v in args.params.split(",")))
        series = simulate.simulate_srgm_counts(args.omega, hazard, [], None, args.steps, args.seed)
        records = simulate.adversarial_records(series, scenario=args.scenario)
        datasets.dump(records, "adversarial", run.dir / "adversarial.csv")
        print(f"wrote {len(records)} interval rows, total failures {int(series.counts.sum())}")
    elif args.generator == "mixture":
        terms = regression.mixture_terms()
        base = np.array([0.85, 0.75, 0.8, 0.1, 0.05, 0.08, 0.04, 0.03, 0.05,
                         0.02, 0.03, 0.04, 0.01])
        coef_y2 = np.full(len(terms), -1.0)
        records = simulate.simulate_mixture_records(
            base, coef_y2, noise_sd_y1=args.noise_y1, noise_sd_y2=args.noise_y2,
            seed=args.seed,
        )
        datasets.dump(records, "mixture", run.dir / "mixture.csv")
        print(f"wrote {len(records)} mixture rows")
    else:
        raise ValueError(f"unknown generator {args.generator!r}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="air",
        description="AI reliability toolkit: validate data, fit models, design tests",
    )
    parser.add_argument("--version", action="version", version=f"air {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, seed=False):
        p.add_argument("--out", type=Path, default=None, help="output directory")
        p.add_argument("--threads", type=int, default=1,
                       help="accepted for compatibility; fits run serially")
        if seed:
            p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("validate", help="validate a CSV against a schema")
    p.add_argument("file", type=Path)
    p.add_argument("--schema", required=True, choices=sorted(datasets.SCHEMAS))
    p.add_argument("--accuracy-scale", dest="accuracy_scale", default="auto",
                   choices=("auto", "proportion", "percent"))
    common(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("summarize", help="tabulate a dataset")
    p.add_argument("dataset", help="CSV path or dataset name from DataList.csv")
    p.add_argument("--schema", default=None, choices=sorted(datasets.SCHEMAS))
    p.add_argument("--data-root", dest="data_root", default=None,
                   help=f"dataset root (default: ${DATA_ROOT_ENV})")
    common(p)
    p.set_defaults(func=cmd_summarize)

    p = sub.add_parser("fit-recurrent", help="fit exposure-adjusted event models")
    p.add_argument("--family", required=True, choices=recurrent.FAMILIES)
    p.add_argument("--level", default="vehicle", choices=("vehicle", "manufacturer"))
    p.add_argument("--events", type=Path, required=True)
    p.add_argument("--mileage", type=Path, required=True)
    p.add_argument("--months", type=Path, required=True)
    p.add_argument("--manufacturer", default=None)
    p.add_argument("--grid-points", dest="grid_points", type=int, default=200)
    common(p)
    p.set_defaults(func=cmd_fit_recurrent)

    p = sub.add_parser("fit-ep", help="fit the error-propagation process")
    p.add_argument("--log", type=Path, required=True, help="module_error CSV")
    p.add_argument("--holdout", type=Path, default=None)
    p.add_argument("--mae-grid", dest="mae_grid", type=int, default=0,
                   help="grid points for the MAE comparison table")
    common(p)
    p.set_defaults(func=cmd_fit_ep)

    p = sub.add_parser("fit-srgm", help="fit a covariate reliability-growth model")
    p.add_argument("--input", type=Path, required=True, help="adversarial CSV")
    p.add_argument("--hazard", required=True, choices=sorted(srgm.HAZARD_FAMILIES))
    p.add_argument("--scenario", type=int, default=1)
    p.add_argument("--covariates", default=None, help="comma-separated column names")
    p.add_argument("--stepwise", action="store_true")
    p.add_argument("--split", type=float, default=0.9)
    common(p)
    p.set_defaults(func=cmd_fit_srgm)

    p = sub.add_parser("fit-resilience", help="fit a performance-change regression")
    p.add_argument("--input", type=Path, required=True, help="adversarial CSV")
    p.add_argument("--form", default="linear",
                   help="linear, interactions, or poly:<degree>")
    p.add_argument("--scenario", type=int, default=1)
    p.add_argument("--response", default="TestAccuracy")
    p.add_argument("--covariates", default=None)
    p.add_argument("--split", type=float, default=0.9)
    common(p)
    p.set_defaults(func=cmd_fit_resilience)

    p = sub.add_parser("fit-mixture", help="fit the simplex mixture model")
    p.add_argument("--input", type=Path, required=True, help="mixture CSV")
    p.add_argument("--response", required=True, choices=("y1", "y2"))
    p.add_argument("--scenario", default=None, choices=regression.SCENARIOS)
    p.add_argument("--pooled", action="store_true")
    p.add_argument("--z1", type=int, default=0, choices=(0, 1))
    p.add_argument("--z2", type=int, default=0, choices=(0, 1))
    p.add_argument("--grid", type=int, default=40)
    common(p)
    p.set_defaults(func=cmd_fit_mixture)

    p = sub.add_parser("design-lhd", help="search a maximin Latin hypercube design")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--k", type=int, default=15)
    p.add_argument("--m", type=float, default=2.0)
    p.add_argument("--budget", type=int, default=10_000)
    common(p, seed=True)
    p.set_defaults(func=cmd_design_lhd)

    p = sub.add_parser("alt-af", help="acceleration factor from lifetimes or Arrhenius")
    p.add_argument("--ln", type=float, default=None, help="life under normal conditions")
    p.add_argument("--la", type=float, default=None, help="life under accelerated stress")
    p.add_argument("--ea", type=float, default=None, help="activation energy (eV)")
    p.add_argument("--tuse", type=float, default=None, help="use temperature (K)")
    p.add_argument("--tstress", type=float, default=None, help="stress temperature (K)")
    common(p)
    p.set_defaults(func=cmd_alt_af)

    p = sub.add_parser("simulate", help="generate fixture data in the dataset schemas")
    p.add_argument("generator", choices=("nhpp", "ep-cascade", "srgm-counts", "mixture"))
    p.add_argument("--family", default="weibull_growth", choices=recurrent.FAMILIES)
    p.add_argument("--theta", default="1.0,0.01,1.0", help="comma-separated parameters")
    p.add_argument("--mileage", type=Path, default=None)
    p.add_argument("--months", type=Path, default=None)
    p.add_argument("--manufacture", default="Acme")
    p.add_argument("--spec", type=Path, default=None, help="cascade spec JSON")
    p.add_argument("--omega", type=float, default=300.0)
    p.add_argument("--hazard", default="gm", choices=sorted(srgm.HAZARD_FAMILIES))
    p.add_argument("--params", default="0.1")
    p.add_argument("--steps", type=int, default=30)
    p.add_argument("--scenario", type=int, default=1)
    p.add_argument("--noise-y1", dest="noise_y1", type=float, default=0.01)
    p.add_argument("--noise-y2", dest="noise_y2", type=float, default=0.05)
    common(p, seed=True)
    p.set_defaults(func=cmd_simulate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        run = Run(args)
    except OSError as exc:  # --out names a file, or a path that cannot be made
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    try:
        code = args.func(args, run)
    except datasets.SchemaViolationError as exc:
        run.write_json("report.json", exc.report.to_dict())
        print(f"error: {exc}", file=sys.stderr)
        code = EXIT_VIOLATIONS
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = EXIT_ERROR
    finally:
        run.finish()
    return code


if __name__ == "__main__":
    sys.exit(main())
