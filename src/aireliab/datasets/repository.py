"""Data-root resolution and the repository index file.

A data root is a directory holding ``DataList.csv`` (columns: name,
path, description) and one subdirectory per dataset, each containing a
``DataDescription.txt`` plus its CSV files.  The root comes from an
explicit argument, else the AIR_DATA_ROOT environment variable.
"""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass
from pathlib import Path

DATA_ROOT_ENV = "AIR_DATA_ROOT"
INDEX_FILE = "DataList.csv"
DESCRIPTION_FILE = "DataDescription.txt"


@dataclass(frozen=True)
class IndexEntry:
    name: str
    path: str
    description: str


@dataclass(frozen=True)
class DatasetIndex:
    root: Path
    entries: tuple[IndexEntry, ...]

    def names(self) -> tuple[str, ...]:
        return tuple(e.name for e in self.entries)

    def directory(self, name: str) -> Path:
        for entry in self.entries:
            if entry.name == name:
                return self.root / entry.path
        raise KeyError(f"dataset {name!r} not in index; available: {list(self.names())}")


def resolve_data_root(override=None) -> Path:
    """Data root from the override argument or the environment."""
    if override is not None:
        return Path(override)
    env = os.environ.get(DATA_ROOT_ENV)
    if env:
        return Path(env)
    raise ValueError(f"no data root: pass one explicitly or set {DATA_ROOT_ENV}")


def load_index(root) -> DatasetIndex:
    root = Path(root)
    index_path = root / INDEX_FILE
    if not index_path.exists():
        raise FileNotFoundError(f"{index_path} not found")
    entries = []
    with open(index_path, "r", encoding="utf-8-sig", newline="") as handle:
        reader = csv.DictReader(handle)
        for col in ("name", "path", "description"):
            if reader.fieldnames is None or col not in reader.fieldnames:
                raise ValueError(f"{INDEX_FILE} must have a {col!r} column")
        for raw in reader:
            entries.append(IndexEntry(raw["name"], raw["path"], raw["description"]))
    names = [e.name for e in entries]
    if len(set(names)) != len(names):
        raise ValueError("dataset names in the index must be unique")
    for entry in entries:
        if not (root / entry.path).is_dir():
            raise ValueError(f"index entry {entry.name!r}: {entry.path!r} is not a subdirectory")
    return DatasetIndex(root, tuple(entries))


def read_description(root, name: str) -> str:
    index = load_index(root)
    path = index.directory(name) / DESCRIPTION_FILE
    return path.read_text(encoding="utf-8")
