import hashlib
import itertools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.stats import weibull_min

from aireliab._rng import make_rng
from aireliab.design import (
    BOLTZMANN_EV,
    LatinHypercube,
    _SwapCriterion,
    acceleration_factor,
    lh_levels,
    phi_criterion,
    random_latin_hypercube,
    search_mmlhd,
    transform_cdf,
)

from conftest import PROPERTY


def test_phi_single_pair():
    pts = np.array([[0.25], [0.75]])
    for k in (1, 7, 15):
        for m in (1.0, 2.0):
            assert phi_criterion(pts, k, m) == pytest.approx(2.0, abs=1e-12)


def test_phi_coordinate_duplication_halves_criterion():
    # duplicating the single coordinate doubles the 1-norm distance
    pts1 = np.array([[0.25], [0.75]])
    pts2 = np.array([[0.25, 0.25], [0.75, 0.75]])
    assert phi_criterion(pts2, 9, 1.0) == pytest.approx(phi_criterion(pts1, 9, 1.0) / 2,
                                                        abs=1e-12)


def test_phi_matches_pairwise_loop_oracle():
    rng = np.random.default_rng(5)
    pts = rng.random((5, 2))
    k, m = 15, 2.0
    acc = 0.0
    for i in range(5):
        for j in range(i + 1, 5):
            d = np.sum(np.abs(pts[i] - pts[j]) ** m) ** (1.0 / m)
            acc += d ** (-k)
    assert phi_criterion(pts, k, m) == pytest.approx(acc ** (1.0 / k), abs=1e-12)


def test_phi_duplicate_rows_rejected():
    pts = np.array([[0.3, 0.3], [0.3, 0.3], [0.7, 0.7]])
    with pytest.raises(ValueError, match="duplicate"):
        phi_criterion(pts)


def test_phi_decreases_when_distance_grows():
    near = np.array([[0.4], [0.6]])
    far = np.array([[0.2], [0.8]])
    assert phi_criterion(far, 15, 2.0) < phi_criterion(near, 15, 2.0)
    # scaling a configuration up increases every distance, decreasing phi
    rng = np.random.default_rng(6)
    pts = 0.25 + 0.2 * rng.random((6, 3))
    wider = 0.25 + 2.0 * (pts - 0.25)
    assert phi_criterion(wider, 15, 2.0) < phi_criterion(pts, 15, 2.0)


def test_latin_hypercube_invariant_enforced():
    good = np.column_stack([lh_levels(4), lh_levels(4)[::-1]])
    LatinHypercube(good)
    bad = good.copy()
    bad[0, 0] = 0.5
    with pytest.raises(ValueError, match="permutation"):
        LatinHypercube(bad)


def test_search_two_run_design_is_optimal():
    # all 2-run designs coincide up to reflection, so any search result
    # attains the enumerated optimum
    for p in (1, 2, 3):
        res = search_mmlhd(2, p, seed=1, budget=50)
        levels = lh_levels(2)
        best = phi_criterion(np.column_stack([levels] * p), 15, 2.0)
        assert res.criterion == pytest.approx(best, abs=1e-12)


def test_search_matches_exhaustive_enumeration_4x2():
    levels = lh_levels(4)
    best = min(
        phi_criterion(np.column_stack([levels, levels[list(perm)]]), 15, 2.0)
        for perm in itertools.permutations(range(4))
    )
    res = search_mmlhd(4, 2, seed=9, budget=4000)
    assert res.criterion == pytest.approx(best, abs=1e-12)


def test_search_deterministic_and_traced():
    a = search_mmlhd(6, 3, seed=123, budget=2000)
    b = search_mmlhd(6, 3, seed=123, budget=2000)
    assert np.array_equal(a.design.matrix, b.design.matrix)
    assert a.criterion == b.criterion
    assert np.all(np.diff(a.trace) <= 0)
    assert len(a.trace) == 2001


def test_search_emits_valid_designs():
    for n, p, seed in ((5, 2, 0), (8, 4, 7), (12, 3, 42)):
        res = search_mmlhd(n, p, seed=seed, budget=500)
        LatinHypercube(res.design.matrix)  # revalidates the marginal invariant
        assert res.criterion == pytest.approx(phi_criterion(res.design.matrix), rel=1e-12)


@PROPERTY
@given(n=st.integers(2, 25), p=st.integers(1, 10), k=st.sampled_from([1, 2, 7, 15, 40]),
       m=st.sampled_from([2.0, 2.0, 1.0, 1.5, 3.0, np.inf]), seed=st.integers(0, 2**32 - 1),
       moves=st.lists(st.tuples(st.integers(0, 9), st.integers(0, 24), st.integers(1, 24),
                                st.booleans()), max_size=30))
def test_swap_criterion_tracks_phi(n, p, k, m, seed, moves):
    # after any sequence of swaps, kept or undone, the updated criterion is
    # phi of the current design: bit for bit for m = 2 (pdist's own
    # arithmetic); other m go through cdist and are held to 1e-12
    current = random_latin_hypercube(n, p, make_rng(seed))
    criterion = _SwapCriterion(current, k, m)
    for col, i, step, undo in moves:
        col, i, j = col % p, i % n, (i + step) % n
        if i == j:
            continue
        value = criterion.swap(col, i, j)
        if m == 2.0:
            assert value == phi_criterion(current, k, m)
        else:
            assert value == pytest.approx(phi_criterion(current, k, m), rel=1e-12, abs=0.0)
        if undo:
            criterion.undo(col, i, j)
    LatinHypercube(current)
    final = criterion.swap(0, 0, 1)
    assert final == pytest.approx(phi_criterion(current, k, m), rel=1e-12, abs=0.0)


# search_mmlhd(n, 3, seed=7) as the full-recompute search gave it: criterion,
# accepted moves, and SHA-256 of the design's level indices 2i - 1 (int64)
# and of the trace (float64), both little-endian
SEARCH_PINS = {
    10: (2.358878452880127, 25,
         "177ed021b6ad33589fa1351ec66240705cb8e46b72b4e562fd868c6ac97dfb2c",
         "001b8704a69c26b5fa16022fe94ef6874b6403978a2f0984ab1e2ad9e4bce37c"),
    50: (4.83460266418599, 390,
         "1a1199600e68ca4a96e285b4a4f7b4a4abd5aa86a823bc34ba654c51a2ebadb4",
         "667c588eb96c0bdc5a699fdc25b6a8ba135cb80f64fb78dc3104381020c17625"),
    200: (9.452290958853588, 491,
          "ecf1beee90895cec8a28aeeccce7ee6fe0d15b86eab5fabb03d5e00b5509d1ed",
          "19704550d00bc6c78cc3ae0906fcf6c09336aab4dc4c3d7e7835e7811fe4dea0"),
}


@pytest.mark.parametrize("n", sorted(SEARCH_PINS))
def test_search_pinned_to_full_recompute(n):
    criterion, accepted, design_sha, trace_sha = SEARCH_PINS[n]
    res = search_mmlhd(n, 3, seed=7)
    levels = np.rint(res.design.matrix * 2 * n).astype("<i8")
    assert res.criterion == criterion
    assert res.accepted == accepted
    assert hashlib.sha256(levels.tobytes()).hexdigest() == design_sha
    assert hashlib.sha256(res.trace.astype("<f8").tobytes()).hexdigest() == trace_sha


def test_search_zero_budget_rejected():
    with pytest.raises(ValueError, match="budget"):
        search_mmlhd(4, 2, budget=0)


def test_acceleration_factor_lifetime_ratio():
    assert acceleration_factor(life_normal=1000.0, life_accelerated=20.0) == 50.0
    forward = acceleration_factor(life_normal=3.0, life_accelerated=7.0)
    backward = acceleration_factor(life_normal=7.0, life_accelerated=3.0)
    assert forward * backward == pytest.approx(1.0, abs=1e-12)


def test_acceleration_factor_arrhenius():
    assert acceleration_factor(activation_energy=0.7, temp_use=300.0,
                               temp_stress=300.0) == pytest.approx(1.0, abs=1e-15)
    # independent evaluation through the two reaction rates
    ea, t_use, t_stress = 0.7, 300.0, 350.0
    r_use = np.exp(-ea / (BOLTZMANN_EV * t_use))
    r_stress = np.exp(-ea / (BOLTZMANN_EV * t_stress))
    value = acceleration_factor(activation_energy=ea, temp_use=t_use, temp_stress=t_stress)
    assert value == pytest.approx(r_stress / r_use, rel=1e-10)
    assert value == pytest.approx(47.8, rel=0.01)


def test_acceleration_factor_invalid_inputs():
    with pytest.raises(ValueError):
        acceleration_factor(life_normal=1.0)
    with pytest.raises(ValueError):
        acceleration_factor(life_normal=-1.0, life_accelerated=2.0)
    with pytest.raises(ValueError):
        acceleration_factor(activation_energy=0.7, temp_use=-300.0, temp_stress=350.0)


def test_transform_cdf_identity_and_scale_family():
    stress = lambda t: weibull_min.cdf(t, 2.0, scale=5.0)
    grid = np.linspace(0.0, 40.0, 101)
    assert np.max(np.abs(transform_cdf(stress, 1.0, grid) - stress(grid))) == 0.0
    doubled = transform_cdf(stress, 2.0, grid)
    assert np.max(np.abs(doubled - weibull_min.cdf(grid, 2.0, scale=10.0))) < 1e-12


@pytest.mark.parametrize("factor", [np.nan, np.inf, 0.0, -2.0])
def test_transform_cdf_rejects_a_factor_that_is_not_positive_and_finite(factor):
    # a NaN factor gave all-NaN values and an infinite one all zeros
    stress = lambda t: weibull_min.cdf(t, 2.0, scale=5.0)
    with pytest.raises(ValueError, match="factor must be positive and finite"):
        transform_cdf(stress, factor, np.linspace(0.0, 10.0, 5))


@pytest.mark.parametrize("grid", [[0.0, 1.0, np.inf], [np.nan, 1.0], [0.0, np.nan, 2.0]])
def test_transform_cdf_rejects_a_grid_that_is_not_finite(grid):
    stress = lambda t: weibull_min.cdf(t, 2.0, scale=5.0)
    with pytest.raises(ValueError, match="finite times"):
        transform_cdf(stress, 2.0, grid)


def test_transform_cdf_preserves_monotonicity():
    stress = lambda t: weibull_min.cdf(t, 1.3, scale=2.0)
    grid = np.linspace(0.0, 10.0, 50)
    values = transform_cdf(stress, 3.7, grid)
    assert np.all(np.diff(values) >= 0)


def test_transform_cdf_scalar_callable():
    import math

    stress = lambda t: float(1.0 - math.exp(-t))  # rejects arrays
    grid = np.linspace(0.0, 5.0, 11)
    values = transform_cdf(stress, 2.0, grid)
    assert values[0] == 0.0 and values[-1] == pytest.approx(1 - math.exp(-2.5), abs=1e-12)
