"""The record types built from the column specs against the hand-written
classes they replaced.

``datasets.schemas`` builds each schema's frozen record type from its
spec.  Before that, the eight record classes were written out by hand;
they are kept here verbatim, under their own names, and every generated
type must match them in fields, defaults, ``repr`` and values, and be
frozen and picklable as they were.
"""

from __future__ import annotations

import dataclasses
import datetime as dt
import pickle
from dataclasses import dataclass, field

import pytest

from aireliab import datasets
from aireliab.datasets import exposure, schemas

# ---------------------------------------------------------------------------
# the hand-written record classes, verbatim


@dataclass(frozen=True)
class DisengagementRecord:
    manufacture: str
    vin: str
    date: dt.date
    month: str
    month_id: int
    extras: dict = field(default_factory=dict)


@dataclass(frozen=True)
class CollisionRecord:
    manufacture: str
    vin: str | None
    date: dt.date
    month: str
    month_id: int
    event_id: int
    extras: dict = field(default_factory=dict)


@dataclass(frozen=True)
class ModuleErrorRecord:
    scenario_id: int
    weather: str
    window: tuple[float, float]
    ei_time_2d: tuple[float, float]
    ei_prob_2d: float
    ei_time_3d: tuple[float, float]
    ei_prob_3d: float
    timestamp: float
    err_2d: int
    err_3d: int
    err_loc: int
    extras: dict = field(default_factory=dict)


@dataclass(frozen=True)
class MixtureRecord:
    x1: float
    x2: float
    x3: float
    z1: int
    z2: int
    c1: int
    c2: int
    c3: int
    y1: float
    y2: float
    extras: dict = field(default_factory=dict)


@dataclass(frozen=True)
class AdversarialCountRecord:
    scenario: int
    epsilon_range: tuple[float, float]
    t: int
    fc: int
    alpha: float
    f1: float
    epsilon: float
    fgsm_pct: float
    pgd_pct: float
    train_acc: float
    train_loss: float
    val_acc: float
    val_loss: float
    test_acc: float
    test_loss: float
    memory: float
    extras: dict = field(default_factory=dict)


@dataclass(frozen=True)
class IncidentRecord:
    incident_no: int
    company: str
    sector: str
    system: str
    algorithm: str
    cause: str
    description: str
    casuality: int
    injured: int
    comment: str
    extras: dict = field(default_factory=dict)


@dataclass(frozen=True)
class MonthRow:
    """One calendar month of the observation period."""

    month_id: int
    start_date: dt.date
    end_date: dt.date
    n_days: int


@dataclass(frozen=True)
class MileageRow:
    """Monthly mileage (thousands of miles) for one vehicle."""

    manufacture: str
    vin: str
    monthly_miles: tuple[float, ...]


# ---------------------------------------------------------------------------

#: schema -> (the hand-written class, a bundled file of that schema)
ORACLE = {
    "disengagement": (DisengagementRecord, "disengagements/disengagements.csv"),
    "collision": (CollisionRecord, "collisions/collisions.csv"),
    "mileage": (MileageRow, "collisions/mileage.csv"),
    "month": (MonthRow, "disengagements/months.csv"),
    "module_error": (ModuleErrorRecord, "module-errors/module_errors.csv"),
    "mixture": (MixtureRecord, "mixture-robustness/mixture.csv"),
    "adversarial": (AdversarialCountRecord, "adversarial-attacks/adversarial.csv"),
    "incident": (IncidentRecord, "ai-incidents/incidents.csv"),
}
AUXILIARY = ("mileage", "month")

per_schema = pytest.mark.parametrize("name", sorted(ORACLE))


def test_every_schema_has_an_oracle():
    assert set(ORACLE) == set(datasets.SCHEMAS)


def field_values(name, data_dir):
    """The field values, without extras, of the first bundled record."""
    oracle, path = ORACLE[name]
    record = datasets.load(data_dir / path, name)[0]
    return [getattr(record, f.name) for f in dataclasses.fields(oracle) if f.name != "extras"]


@per_schema
def test_fields_and_defaults_match(name):
    generated = [(f.name, f.default, f.default_factory)
                 for f in dataclasses.fields(datasets.SCHEMAS[name].record_type)]
    expected = [(f.name, f.default, f.default_factory)
                for f in dataclasses.fields(ORACLE[name][0])]
    assert generated == expected
    assert ("extras", dataclasses.MISSING, dict) in generated or name in AUXILIARY


@per_schema
def test_repr_and_equality_match(name, data_dir):
    record_type, oracle = datasets.SCHEMAS[name].record_type, ORACLE[name][0]
    values = field_values(name, data_dir)
    extras = {} if name in AUXILIARY else {"extras": {"Note": "kept"}}
    for kwargs in ({}, extras):
        record, twin = record_type(*values, **kwargs), record_type(*values, **kwargs)
        assert repr(record) == repr(oracle(*values, **kwargs))
        assert record == twin
        assert dataclasses.astuple(record) == dataclasses.astuple(oracle(*values, **kwargs))
    by_name = dict(zip([f.name for f in dataclasses.fields(oracle)], values))
    assert record_type(**by_name) == record_type(*values)
    assert record_type(*values[1:], values[0]) != record_type(*values)


@per_schema
def test_fields_are_frozen(name, data_dir):
    record = datasets.SCHEMAS[name].record_type(*field_values(name, data_dir))
    for f in dataclasses.fields(record):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(record, f.name, None)


@per_schema
def test_pickle_round_trip(name, data_dir):
    record_type = datasets.SCHEMAS[name].record_type
    kwargs = {} if name in AUXILIARY else {"extras": {"Note": "kept"}}
    record = record_type(*field_values(name, data_dir), **kwargs)
    copy = pickle.loads(pickle.dumps(record))
    assert copy == record and type(copy) is record_type


@per_schema
def test_public_names_are_the_schema_types(name):
    record_type = datasets.SCHEMAS[name].record_type
    type_name = ORACLE[name][0].__name__
    assert record_type.__name__ == record_type.__qualname__ == type_name
    assert record_type.__module__ == "aireliab.datasets.schemas"
    assert record_type is getattr(datasets, type_name) is getattr(schemas, type_name)
    if name in AUXILIARY:
        assert record_type is getattr(exposure, type_name)
