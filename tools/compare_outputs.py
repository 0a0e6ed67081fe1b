"""Compare the files that one pass of a benchmark workload writes on two checkouts.

    python3 tools/compare_outputs.py PARENT_CHECKOUT --workload {bundled-cli,dmv-fleet,ep-scale}
        [--seed N] [--only-new-keys]

The workload's inputs are generated once, by this checkout's
``bench.workloads`` setup for the seed, in a temporary directory.  Then
one pass of the workload's jobs runs on PARENT_CHECKOUT and one on this
checkout, each in a fresh Python process on that checkout's ``src``.  Both
passes write to the same path, which is moved aside after each, so a path
that a job writes into its outputs compares equal; each pass keeps its own
directory.

The tool prints every file that is identical and every file that changed.
``manifest.json`` is compared without ``started``, ``finished`` and
``flags.out``.  For a changed JSON or CSV file it prints each numeric leaf
that moved, with its largest relative change (list indices and CSV rows are
folded into one leaf), each other leaf that changed, and the keys (CSV
columns and rows) added or removed.  A job whose exit code differs is
printed too.

The exit status is non-zero on any difference.  With ``--only-new-keys``
it is non-zero only when something that exists in the parent's pass
differs: a leaf that changed, a key or file that was removed, a changed
file that is neither JSON nor CSV, or an exit code.  Added keys and files
pass.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("bundled-cli", "dmv-fleet", "ep-scale")

RUNNER = """
import contextlib, io, json, sys
from aireliab import cli
print(json.dumps(cli.__file__))
for argv in json.load(sys.stdin):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # a crash is this job's outcome; the pass goes on
            code = f"raised {exc!r}"
    print(json.dumps(code))
"""


# ---------------------------------------------------------------------------
# running the passes


def workload_jobs(workload: str, seed: int, work: Path) -> tuple[list[str], list[list[str]]]:
    """The names and argvs of one pass of ``workload``, writing under ``work / "pass"``,
    with its inputs set up under ``work / "inputs"``."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from bench.workloads import WORKLOADS as CLASSES, Context

    ctx = Context(work / "inputs", seed, 1, ROOT / "data")
    spec = CLASSES[workload]()
    spec.setup(ctx)
    jobs = spec.jobs(ctx, work / "pass")
    return [job.name for job in jobs], [job.argv for job in jobs]


def run_pass(checkout: Path, argvs: list[list[str]], work: Path) -> list[int]:
    """Run ``argvs`` through ``aireliab.cli.main`` in one fresh process on
    ``checkout / "src"``, in ``work``; the exit code of each."""
    src = (checkout / "src").resolve()
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run([sys.executable, "-c", RUNNER], input=json.dumps(argvs), env=env,
                          cwd=work, capture_output=True, text=True, check=False)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or len(lines) != len(argvs) + 1:
        raise RuntimeError(f"the pass on {checkout} stopped:\n{done.stderr}")
    loaded = Path(json.loads(lines[0])).resolve()
    if src not in loaded.parents:
        raise RuntimeError(f"the pass on {checkout} loaded {loaded}, not its own src")
    return [json.loads(line) for line in lines[1:]]


# ---------------------------------------------------------------------------
# comparing the outputs


@dataclass
class FileDiff:
    lines: list[str] = field(default_factory=list)
    existing_differs: bool = False  # something the old file holds changed or went

    def note(self, line: str, existing: bool = True) -> None:
        self.lines.append(line)
        self.existing_differs |= existing


def _leaves(value, path=()):
    """(path, leaf) for every leaf of a parsed JSON value."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _leaves(item, (*path, str(key)))
    elif isinstance(value, list):
        for index, item in enumerate(value):
            yield from _leaves(item, (*path, index))
    else:
        yield path, value


def _label(path) -> str:
    """A leaf path with its list indices folded: ``curve.t[]``."""
    out = ""
    for part in path:
        out += "[]" if isinstance(part, int) else (f".{part}" if out else part)
    return out or "(root)"


def _number(value):
    """``value`` as a float when it is a JSON number or a numeric CSV cell, else None."""
    if isinstance(value, bool):
        return None
    try:
        return float(value)
    except (TypeError, ValueError):
        return None


def relative_change(old: float, new: float) -> float:
    if old == new:
        return 0.0
    if old == 0 or not math.isfinite(old) or not math.isfinite(new):
        return math.inf
    return abs(new - old) / abs(old)


def diff_leaves(old: dict, new: dict, label=_label) -> FileDiff:
    """The difference of two ``{path: leaf}`` maps, leaves grouped by ``label``."""
    diff = FileDiff()
    moved: dict[str, list] = {}  # label -> [values moved, values compared, largest change]
    for path, a in old.items():
        if path not in new:
            continue
        b = new[path]
        x, y = _number(a), _number(b)
        numeric = x is not None and y is not None
        if numeric:
            entry = moved.setdefault(label(path), [0, 0, 0.0])
            entry[1] += 1
        if repr(a) == repr(b):  # equal, NaN included
            continue
        change = relative_change(x, y) if numeric else 0.0
        if change:
            entry[0] += 1
            entry[2] = max(entry[2], change)
        else:  # not numeric, or the same number written otherwise
            diff.note(f"  changed {label(path)}: {a!r} -> {b!r}")
    for name, (n_moved, n_values, largest) in moved.items():
        if n_moved:
            diff.note(f"  moved {name}: {n_moved} of {n_values} values, "
                      f"largest relative change {largest:.3g}")
    for kind, paths, existing in (("removed", old.keys() - new.keys(), True),
                                  ("added", new.keys() - old.keys(), False)):
        counts: dict[str, int] = {}
        for path in paths:
            counts[label(path)] = counts.get(label(path), 0) + 1
        for name, n in sorted(counts.items()):
            diff.note(f"  {kind} {name}" + (f" ({n} values)" if n > 1 else ""), existing)
    return diff


def _json_leaves(path: Path, manifest: bool) -> dict:
    """The leaves of a JSON file; of a manifest, without the keys that change from run to run."""
    value = json.loads(path.read_text(encoding="utf-8"))
    if manifest:
        value.pop("started", None)
        value.pop("finished", None)
        value.get("flags", {}).pop("out", None)
    return dict(_leaves(value))


def _csv_leaves(path: Path) -> dict:
    """Each cell of a CSV below its header row, keyed by (column name, row)."""
    with open(path, encoding="utf-8", newline="") as handle:
        rows = list(csv.reader(handle))
    header = rows[0] if rows else []
    return {(name, i): cell for i, row in enumerate(rows[1:]) for name, cell in zip(header, row)}


def _column(path) -> str:
    return f"column {path[0]}"


def compare_file(old: Path, new: Path) -> FileDiff | None:
    """None when the two files are the same (``manifest.json`` without its
    volatile keys), else their difference."""
    if old.read_bytes() == new.read_bytes():
        return None
    diff = FileDiff()
    try:
        if old.suffix == ".json":
            manifest = old.name == "manifest.json"
            diff = diff_leaves(_json_leaves(old, manifest), _json_leaves(new, manifest))
            if manifest and not diff.lines:
                return None
        elif old.suffix == ".csv":
            diff = diff_leaves(_csv_leaves(old), _csv_leaves(new), _column)
    except (ValueError, UnicodeDecodeError):
        pass
    if not diff.lines:
        diff.note("  the bytes differ")
    return diff


@dataclass
class Comparison:
    identical: list[str] = field(default_factory=list)
    changed: dict[str, FileDiff] = field(default_factory=dict)
    added: list[str] = field(default_factory=list)
    removed: list[str] = field(default_factory=list)
    codes: list[str] = field(default_factory=list)

    @property
    def any_difference(self) -> bool:
        return bool(self.changed or self.added or self.removed or self.codes)

    @property
    def existing_differs(self) -> bool:
        return bool(self.removed or self.codes
                    or any(diff.existing_differs for diff in self.changed.values()))

    def report(self) -> list[str]:
        lines = [f"identical {name}" for name in self.identical]
        for name, diff in self.changed.items():
            lines += [f"changed {name}", *diff.lines]
        lines += [f"added {name}" for name in self.added]
        lines += [f"removed {name}" for name in self.removed]
        lines += self.codes
        lines.append(f"{len(self.identical)} identical, {len(self.changed)} changed, "
                     f"{len(self.added)} added, {len(self.removed)} removed files")
        return lines


def compare_trees(old: Path, new: Path) -> Comparison:
    """Every file under ``old`` and ``new``, by relative path."""
    files = [{str(p.relative_to(root)) for p in root.rglob("*") if p.is_file()}
             for root in (old, new)]
    result = Comparison(added=sorted(files[1] - files[0]), removed=sorted(files[0] - files[1]))
    for name in sorted(files[0] & files[1]):
        diff = compare_file(old / name, new / name)
        if diff is None:
            result.identical.append(name)
        else:
            result.changed[name] = diff
    return result


def failed(result: Comparison, only_new_keys: bool) -> bool:
    return result.existing_differs if only_new_keys else result.any_difference


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="the checkout to compare against")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=5, help="the workload seed (default 5)")
    parser.add_argument("--only-new-keys", action="store_true",
                        help="fail only when something in the parent's outputs differs")
    args = parser.parse_args(argv)
    if not (args.parent / "src" / "aireliab" / "cli.py").is_file():
        parser.error(f"{args.parent} is not a checkout: src/aireliab/cli.py is missing")
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        names, argvs = workload_jobs(args.workload, args.seed, work)
        codes = {}
        for label, checkout in (("parent", args.parent), ("this", ROOT)):
            codes[label] = run_pass(checkout, argvs, work)
            shutil.move(work / "pass", work / label)
        result = compare_trees(work / "parent", work / "this")
    result.codes = [f"exit code of {name}: {a} -> {b}"
                    for name, a, b in zip(names, codes["parent"], codes["this"]) if a != b]
    print("\n".join(result.report()))
    return 1 if failed(result, args.only_new_keys) else 0


if __name__ == "__main__":
    sys.exit(main())
