from dataclasses import replace

import numpy as np
import pytest

from aireliab.regression import (
    RankDeficiencyError,
    fit_mixture,
    mixture_design,
    predict_simplex_grid,
    simplex_lattice,
)
from aireliab.datasets import column, select
from aireliab.simulate import simulate_mixture_records
from aireliab._rng import derive_seed


def noisy_c1_fit(seed):
    """A scenario-c1 fit of noisy mixture records, with its design and response."""
    rng = np.random.default_rng(seed)
    records = simulate_mixture_records(rng.normal(0.5, 0.2, 13), np.zeros(13),
                                       noise_sd_y1=0.1, seed=seed)
    rows = select(records, "c1", 1)
    D, _ = mixture_design(np.column_stack([column(rows, x) for x in ("x1", "x2", "x3")]),
                          np.column_stack([column(rows, z) for z in ("z1", "z2")]))
    return fit_mixture(records, "y1", scenario="c1"), D, np.asarray(column(rows, "y1"))


def test_linear_matches_normal_equations_oracle():
    fit, D, y = noisy_c1_fit(1)
    oracle = np.linalg.solve(D.T @ D, D.T @ y)
    assert np.max(np.abs(fit.coef - oracle)) < 1e-9


def test_linear_residuals_orthogonal_to_design():
    fit, D, y = noisy_c1_fit(2)
    resid = y - D @ fit.coef
    assert fit.resid_sd > 0.05
    scaled = np.abs(D.T @ resid) / (np.linalg.norm(resid) + 1e-30)
    assert np.max(scaled) < 1e-8


def test_linear_rank_deficiency_names_columns():
    # z2 copies z1, so each z2:xj column repeats z1:xj
    records = simulate_mixture_records(np.full(13, 0.5), np.zeros(13), seed=3)
    twins = [replace(r, z2=r.z1) for r in records]
    with pytest.raises(RankDeficiencyError) as err:
        fit_mixture(twins, "y1", scenario="c1")
    for x in ("x1", "x2", "x3"):
        assert f"z1:{x}" in err.value.columns or f"z2:{x}" in err.value.columns


def test_mixture_needs_more_rows_than_coefficients():
    records = simulate_mixture_records(np.full(13, 0.5), np.zeros(13), seed=4)
    # every sixth row of the layout: 13 rows that give each of the 13 terms
    # support, so no term is dropped and no residual is left
    rows = list(select(records, "c1", 1))[::6][:13]
    assert len(rows) == 13
    with pytest.raises(ValueError, match="^need more rows than coefficients$"):
        fit_mixture(rows, "y1", scenario="c1")


def test_mixture_noiseless_recovery():
    rng = np.random.default_rng(9)
    coef = rng.normal(0.5, 0.2, 13)
    records = simulate_mixture_records(coef, coef, seed=10)
    fit = fit_mixture(records, "y1", scenario="c1")
    assert np.max(np.abs(fit.coef - coef)) < 1e-8


def test_mixture_vertex_prediction_is_main_effect():
    rng = np.random.default_rng(10)
    coef = rng.normal(0.5, 0.2, 13)
    records = simulate_mixture_records(coef, coef, seed=11)
    fit = fit_mixture(records, "y1", scenario="c1")
    pred = fit.predict(np.array([[1.0, 0.0, 0.0]]), np.array([[0.0, 0.0]]))
    assert pred[0] == pytest.approx(coef[0], abs=1e-8)


def test_mixture_relabel_symmetry():
    records = simulate_mixture_records(np.arange(1.0, 14.0) / 10.0,
                                       np.zeros(13), seed=12)
    fit = fit_mixture(records, "y1", scenario="c1")

    swapped = []
    for r in records:
        swapped.append(type(r)(x1=r.x2, x2=r.x1, x3=r.x3, z1=r.z1, z2=r.z2,
                               c1=r.c1, c2=r.c2, c3=r.c3, y1=r.y1, y2=r.y2))
    fit_sw = fit_mixture(swapped, "y1", scenario="c1")
    x = np.array([[0.6, 0.3, 0.1]])
    x_sw = x[:, [1, 0, 2]]
    z = np.array([[1.0, 0.0]])
    assert fit_sw.predict(x_sw, z)[0] == pytest.approx(fit.predict(x, z)[0], abs=1e-9)


def test_mixture_rank_deficiency_for_constant_z():
    records = [r for r in simulate_mixture_records(np.full(13, 0.5), np.zeros(13), seed=13)
               if r.z1 == 1]
    with pytest.raises(RankDeficiencyError) as err:
        fit_mixture(records, "y1", scenario="c1")
    # with z1 = 1 each z1:xj column repeats xj
    for x in ("x1", "x2", "x3"):
        assert x in err.value.columns or f"z1:{x}" in err.value.columns


def test_mixture_pooled_fit_uses_scenario_flags():
    coef = {"c1": np.full(13, 0.6), "c2": np.full(13, 0.6), "c3": np.full(13, 0.6)}
    records = simulate_mixture_records(coef, coef, seed=14)
    fit = fit_mixture(records, "y1", pooled=True)
    assert fit.n == 252
    assert "c2:x1" in fit.terms and "z1:c2" in fit.terms
    # the structurally zero one-hot product is dropped, not reported as singular
    assert "c2:c3" not in fit.terms


def test_simplex_lattice_counts_and_sums():
    for r in (2, 3, 7):
        grid = simplex_lattice(r)
        assert len(grid) == (r + 1) * (r + 2) // 2
        assert np.allclose(grid.sum(axis=1), 1.0, atol=1e-12)
    assert any(np.allclose(p, [1 / 3] * 3) for p in simplex_lattice(3))
    assert not any(np.allclose(p, [1 / 3] * 3) for p in simplex_lattice(2))


def test_predict_simplex_grid_zero_coefficients():
    records = simulate_mixture_records(np.full(13, 0.5), np.zeros(13), seed=15)
    fit = fit_mixture(records, "y2", scenario="c2")
    table = predict_simplex_grid(fit, [0, 0], 5)
    assert np.allclose(table[:, 3], 0.0, atol=1e-10)


def test_predict_simplex_grid_matches_direct_evaluation():
    rng = np.random.default_rng(16)
    coef = rng.normal(0.0, 1.0, 13)
    records = simulate_mixture_records(coef, coef, seed=17)
    fit = fit_mixture(records, "y1", scenario="c3")
    table = predict_simplex_grid(fit, [1, 0], 6)
    D, _ = mixture_design(table[:, :3], np.tile([1.0, 0.0], (len(table), 1)))
    assert np.max(np.abs(table[:, 3] - D @ coef)) < 1e-10


def test_mixture_ci_coverage():
    # t intervals at the 95% level cover the truth at the nominal rate
    rng_truth = np.random.default_rng(18)
    coef = rng_truth.normal(0.5, 0.2, 13)
    covered = total = 0
    for rep in range(120):
        records = simulate_mixture_records(coef, coef, noise_sd_y1=0.05,
                                           seed=derive_seed(82, rep))
        fit = fit_mixture(records, "y1", scenario="c1")
        ci = fit.conf_int(0.95)
        covered += int(np.sum((ci[:, 0] <= coef) & (coef <= ci[:, 1])))
        total += 13
    rate = covered / total
    assert 0.90 <= rate <= 1.0, f"coverage {rate:.3f}"
