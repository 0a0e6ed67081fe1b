"""The column converters of ``simulate`` and ``regression`` against the
record loops they replaced, and ``datasets.concat`` against joined lists.

``module_event_log``, ``interval_series_from_adversarial`` and the row
extraction of ``fit_mixture`` once built one record per row of the table
they were given.  Those bodies are kept below verbatim as oracles.  On
generated tables, and on the record lists those tables read as, the column
versions must give what the oracles give on the records: the same logs,
series and fits bit for bit, or the same error with the same message.
Rows come shuffled over several scenarios, with NaN setting cells, rows
that disagree with their scenario, empty covariate lists and pooled and
per-scenario mixture fits.  The one rule the oracle lacks, that a count
series has the steps 1..n once each, is held apart: the generated series
have it, and other step sets must raise.  ``concat`` of tables must dump as
the joined record lists dump.
"""

import io
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from aireliab.datasets import (
    SCHEMAS,
    AdversarialCountRecord,
    MixtureRecord,
    ModuleErrorRecord,
    RecordTable,
    concat,
    dumps,
    parse_records,
)
from aireliab.datasets.schemas import MODULE_FLAGS
from aireliab.propagation import DEFAULT_SOURCES, InjectionWindow, ModuleEventLog
from aireliab.regression import SCENARIOS, MixtureFit, _check_rank, fit_mixture, mixture_design
from aireliab.simulate import (
    _ADVERSARIAL_COLUMNS,
    IntervalCountSeries,
    interval_series_from_adversarial,
    module_error_records,
    module_event_log,
)
from conftest import PROPERTY
from test_data_path_oracle import same_outcome
from test_simulate_oracle import assert_same_bits

# ---------------------------------------------------------------------------
# oracles: the record loops as they were, verbatim


def oracle_module_event_log(records) -> dict[int, ModuleEventLog]:
    """Event logs with the default sources from module-error rows; a scenario's rows must agree."""
    by_scenario: dict[int, list[ModuleErrorRecord]] = {}
    for rec in records:
        by_scenario.setdefault(rec.scenario_id, []).append(rec)
    logs = {}
    for scenario, rows in sorted(by_scenario.items()):
        first, *rest = [(r.weather, *r.window, *r.ei_time_2d, r.ei_prob_2d, *r.ei_time_3d,
                         r.ei_prob_3d) for r in rows]
        for cells in dict.fromkeys(rest):
            for column, was, now in zip(SCHEMAS["module_error"].spec[1:], first, cells):
                if was != now and (was == was or now == now):  # two NaN cells agree
                    raise ValueError(f"scenario {scenario}: rows disagree on {column.name} "
                                     f"({was!r} and {now!r})")
        weather, start, end, start_2d, end_2d, p_2d, start_3d, end_3d, p_3d = first
        logs[scenario] = ModuleEventLog(
            events={m: np.sort([rec.timestamp - start for rec in rows if getattr(rec, attr)])
                    for m, attr in MODULE_FLAGS.items()},
            window=end - start,
            sources=dict(DEFAULT_SOURCES),
            weather=weather,
            injection={"2d": InjectionWindow(start_2d - start, end_2d - start, p_2d),
                       "3d": InjectionWindow(start_3d - start, end_3d - start, p_3d)},
            scenario_id=scenario,
        )
    return logs


def oracle_interval_series_from_adversarial(records, scenario: int,
                                            covariates=("Alpha", "F1", "Epsilon", "FGSM"),
                                            performance_column: str = "TestAccuracy"
                                            ) -> IntervalCountSeries:
    named = (*covariates, performance_column) if performance_column else tuple(covariates)
    unknown = [c for c in named if c not in _ADVERSARIAL_COLUMNS]
    if unknown:
        raise ValueError(f"unknown adversarial column(s) {', '.join(unknown)}; "
                         f"accepted: {', '.join(_ADVERSARIAL_COLUMNS)}")
    rows = sorted((r for r in records if r.scenario == scenario), key=lambda r: r.t)
    if not rows:
        raise ValueError(f"no rows for scenario {scenario}")
    attr = _ADVERSARIAL_COLUMNS
    counts = np.array([r.fc for r in rows], dtype=float)
    X = np.column_stack([[getattr(r, attr[c]) for r in rows] for c in covariates]) \
        if covariates else np.zeros((len(rows), 0))
    perf = np.array([getattr(r, attr[performance_column]) for r in rows]) \
        if performance_column else None
    return IntervalCountSeries(counts, X, tuple(covariates), performance=perf)


def oracle_fit_mixture(records, response: str = "y1", *, scenario: str | None = None,
                       pooled: bool = False) -> MixtureFit:
    if response not in ("y1", "y2"):
        raise ValueError("response must be 'y1' or 'y2'")
    records = list(records)
    if pooled:
        if scenario is not None:
            raise ValueError("scenario filter and pooled fit are mutually exclusive")
        rows = records
        z_names = ("z1", "z2", "c2", "c3")
        z = np.array([[r.z1, r.z2, r.c2, r.c3] for r in rows], dtype=float)
    else:
        if scenario not in SCENARIOS:
            raise ValueError(f"scenario must be one of {SCENARIOS} (or use pooled=True)")
        rows = [r for r in records if getattr(r, scenario) == 1]
        if not rows:
            raise ValueError(f"no rows in scenario {scenario}")
        z_names = ("z1", "z2")
        z = np.array([[r.z1, r.z2] for r in rows], dtype=float)
    x = np.array([[r.x1, r.x2, r.x3] for r in rows], dtype=float)
    y = np.array([getattr(r, response) for r in rows], dtype=float)
    D, terms = mixture_design(x, z, z_names)
    # one-hot scenario flags make some z products identically zero in the
    # pooled fit; such terms have no support and are dropped
    support = np.any(D != 0.0, axis=0)
    D = D[:, support]
    terms = tuple(t for t, keep in zip(terms, support) if keep)
    if D.shape[0] <= D.shape[1]:
        raise ValueError("need more rows than coefficients")
    _check_rank(D, terms)
    coef, *_ = np.linalg.lstsq(D, y, rcond=None)
    resid = y - D @ coef
    df = D.shape[0] - D.shape[1]
    sigma2 = float(resid @ resid) / df
    return MixtureFit(
        response=response,
        scenario=scenario,
        z_names=z_names,
        terms=terms,
        coef=coef,
        stderr=np.sqrt(np.diag(sigma2 * np.linalg.inv(D.T @ D))),
        resid_sd=float(np.sqrt(sigma2)),
        n=D.shape[0],
        df_resid=df,
    )


# ---------------------------------------------------------------------------
# tables and comparisons


def table_of(records, schema_name):
    """The table a parse of ``records`` would give: a float array for each
    number attribute ((n, k) where k columns share it), else a list."""
    schema = SCHEMAS[schema_name]
    columns = {}
    for attr, js in schema._slots().items():
        values = [getattr(r, attr) for r in records]
        if schema.spec[js[0]].cell.array:
            values = np.array(values, dtype=float).reshape(len(records), len(js))
            values = values[:, 0] if len(js) == 1 else values
        columns[attr] = values
    table = RecordTable(schema, columns, {} if schema.extras else None)
    assert repr(list(table)) == repr(list(records))  # NaN cells included
    return table


def assert_same_logs(got, want):
    assert list(got) == list(want)
    for scenario, log in want.items():
        assert list(got[scenario].events) == list(log.events)
        for module, times in log.events.items():
            assert_same_bits(got[scenario].events[module], times)
        assert repr((got[scenario].window, got[scenario].sources, got[scenario].weather,
                     got[scenario].injection, got[scenario].scenario_id)) == \
            repr((log.window, log.sources, log.weather, log.injection, log.scenario_id))


def assert_same_series(got, want):
    assert_same_bits(got.counts, want.counts)
    assert_same_bits(got.covariates, want.covariates)
    assert got.covariates.flags.c_contiguous == want.covariates.flags.c_contiguous
    assert got.covariate_names == want.covariate_names
    if want.performance is None:
        assert got.performance is None
    else:
        assert_same_bits(got.performance, want.performance)


def assert_same_fit(got, want):
    for field in ("response", "scenario", "z_names", "terms", "n", "df_resid"):
        assert getattr(got, field) == getattr(want, field)
    assert_same_bits(got.coef, want.coef)
    assert_same_bits(got.stderr, want.stderr)
    assert repr(got.resid_sd) == repr(want.resid_sd)


# ---------------------------------------------------------------------------
# strategies

#: the setting cells of a module-error row in spec order after ScenarioID
SETTING_CELLS = ("Weather", "WindowStart", "WindowEnd", "EI2DStart", "EI2DEnd", "EI2DProb",
                 "EI3DStart", "EI3DEnd", "EI3DProb")


@st.composite
def module_error_rows(draw):
    """Module-error records of one to three scenarios, shuffled.  A
    scenario's rows share its settings, up to a NaN setting cell in every
    row and a few rows that change one setting cell (to NaN, to -0.0, or to
    another value)."""
    records = []
    for scenario in draw(st.lists(st.integers(0, 6), min_size=1, max_size=3, unique=True)):
        start = draw(st.sampled_from([0.0, 2.5]))
        window = draw(st.sampled_from([10.0, 20.0]))
        late = draw(st.sampled_from([0.0, 4.0]))
        setting = [draw(st.sampled_from(["clear", "snowy"])), start, start + window,
                   start + late, start + window, draw(st.sampled_from([0.8, 1.0])),
                   start, start + window - late, draw(st.sampled_from([0.0, 0.5]))]
        if draw(st.integers(0, 4)) == 0:
            setting[draw(st.integers(1, 8))] = math.nan
        rows = [list(setting) for _ in range(draw(st.integers(1, 6)))]
        for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
            row, j = draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, 8))
            rows[row][j] = draw(st.sampled_from(["rainy", "clear"])) if j == 0 else \
                draw(st.sampled_from([math.nan, -0.0, 0.0, 7.5, rows[row][j]]))
        for cells in rows:
            flags = draw(st.lists(st.integers(0, 1), min_size=3, max_size=3))
            records.append(ModuleErrorRecord(
                scenario_id=scenario, weather=cells[0], window=tuple(cells[1:3]),
                ei_time_2d=tuple(cells[3:5]), ei_prob_2d=cells[5], ei_time_3d=tuple(cells[6:8]),
                ei_prob_3d=cells[8], timestamp=start + draw(st.integers(1, 8 * int(window))) / 8,
                err_2d=flags[0], err_3d=flags[1], err_loc=flags[2]))
    return draw(st.permutations(records))


numbers = st.floats(-1e6, 1e6) | st.just(math.nan)


@st.composite
def adversarial_rows(draw, steps=None):
    """Adversarial records of one to three scenarios, shuffled; each
    scenario's steps are 1..n (n from 1) unless ``steps`` draws them."""
    records = []
    for scenario in draw(st.lists(st.integers(1, 5), min_size=1, max_size=3, unique=True)):
        n = draw(st.integers(1, 8))
        for t in (range(1, n + 1) if steps is None else draw(steps)):
            records.append(AdversarialCountRecord(
                scenario=scenario, epsilon_range=(0.0, 1.0), t=t, fc=draw(st.integers(0, 9)),
                **{attr: draw(numbers) for attr in _ADVERSARIAL_COLUMNS.values()}))
    return draw(st.permutations(records))


column_names = st.sampled_from([*_ADVERSARIAL_COLUMNS, "Bogus"])
proportions = st.floats(0.0, 1.0)


@st.composite
def mixture_rows(draw):
    """Mixture records with scenario flags one-hot or not, zero to 80 rows."""
    records = []
    for _ in range(draw(st.integers(0, 80))):
        c1, c2, c3 = draw(st.sampled_from([(1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 0, 0), (1, 1, 0)]))
        records.append(MixtureRecord(
            x1=draw(proportions), x2=draw(proportions), x3=draw(proportions),
            z1=draw(st.integers(0, 1)), z2=draw(st.integers(0, 1)), c1=c1, c2=c2, c3=c3,
            y1=draw(proportions), y2=draw(st.floats(-5.0, 5.0))))
    return records


# ---------------------------------------------------------------------------
# properties


@PROPERTY
@given(records=module_error_rows())
def test_module_event_log_matches_oracle(records):
    table = table_of(records, "module_error")
    for rows in (table, records):
        got, want = same_outcome(lambda: module_event_log(rows),
                                 lambda: oracle_module_event_log(records))
        if want is not None:
            assert_same_logs(got, want)


@PROPERTY
@given(records=adversarial_rows(), data=st.data())
def test_interval_series_matches_oracle(records, data):
    scenario = data.draw(st.sampled_from(sorted({r.scenario for r in records}) + [9]))
    covariates = tuple(data.draw(st.lists(column_names, unique=True, max_size=4)))
    performance = data.draw(st.sampled_from([None, "", "TestAccuracy", "F1", "Bogus"]))
    table = table_of(records, "adversarial")
    for rows in (table, records):
        got, want = same_outcome(
            lambda: interval_series_from_adversarial(rows, scenario, covariates, performance),
            lambda: oracle_interval_series_from_adversarial(records, scenario, covariates,
                                                            performance))
        if want is not None:
            assert_same_series(got, want)


@PROPERTY
@given(records=adversarial_rows(st.lists(st.integers(0, 6), min_size=1, max_size=8)))
def test_interval_series_needs_each_step_once(records):
    scenario = records[0].scenario
    steps = sorted(r.t for r in records if r.scenario == scenario)
    for rows in (table_of(records, "adversarial"), records):
        if steps == list(range(1, len(steps) + 1)):
            got, want = same_outcome(
                lambda: interval_series_from_adversarial(rows, scenario, ()),
                lambda: oracle_interval_series_from_adversarial(records, scenario, ()))
            if want is not None:
                assert_same_series(got, want)
        else:
            with pytest.raises(ValueError, match=f"^scenario {scenario}: steps T must run "):
                interval_series_from_adversarial(rows, scenario, ())


@PROPERTY
@given(records=mixture_rows(),
       response=st.sampled_from(["y1", "y2"]),
       mode=st.sampled_from([*SCENARIOS, "pooled", "c4"]))
def test_fit_mixture_matches_oracle(records, response, mode):
    options = {"pooled": True} if mode == "pooled" else {"scenario": mode}
    table = table_of(records, "mixture")
    for rows in (table, records):
        if not records and mode == "pooled":  # an empty design now fails in the least squares
            with pytest.raises(ValueError):
                fit_mixture(rows, response, **options)
            continue
        got, want = same_outcome(lambda: fit_mixture(rows, response, **options),
                                 lambda: oracle_fit_mixture(records, response, **options))
        if want is not None:
            assert_same_fit(got, want)


@PROPERTY
@given(parts=st.lists(module_error_rows() | st.just([]), min_size=1, max_size=3))
def test_concat_dumps_as_the_joined_record_lists(parts):
    joined = [record for part in parts for record in part]
    tables = [table_of(part, "module_error") for part in parts]
    assert dumps(concat(tables), "module_error") == dumps(joined, "module_error")
    assert repr(list(concat(tables))) == repr(joined)


def test_concat_of_emitted_and_parsed_tables(data_dir):
    # emitted tables hold list columns and no extras; parsed ones carry extras
    path = data_dir / "module-errors" / "module_errors.csv"
    logs = module_event_log(parse_records(path, "module_error")[0])
    tables = [module_error_records(log) for log in logs.values()]
    assert dumps(concat(tables), "module_error") == \
        dumps([r for t in tables for r in t], "module_error")
    text = path.read_text().splitlines()
    text = [text[0] + ",note", *(f"{line},n{i}" for i, line in enumerate(text[1:]))]
    table = parse_records(io.StringIO("\n".join(text) + "\n"), "module_error")[0]
    halves = [table.take(range(0, 7)), table.take(range(7, len(table)))]
    assert dumps(concat(halves), "module_error") == dumps(table, "module_error")
