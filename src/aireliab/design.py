"""Space-filling design generation and accelerated-life-test transforms.

Latin hypercube designs place each factor's n levels at the cell
midpoints (2i - 1) / (2n) and are scored by the distance-reciprocal
criterion

    phi(D) = ( sum_{i<j} d(x_i, x_j)^(-k) )^(1/k)

with d the Minkowski m-norm over the factor coordinates; smaller is
better and the minimizer approaches the maximin-distance design as k
grows.  The search anneals over within-column swaps, which preserve the
Latin hypercube marginals by construction.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from ._rng import make_rng

#: log of the largest float
_LOG_MAX = math.log(sys.float_info.max)

# Boltzmann constant in eV per Kelvin, as conventionally used in the
# Arrhenius rate model.
BOLTZMANN_EV = 8.617385e-5


@dataclass(frozen=True)
class LatinHypercube:
    """n points in [0, 1]^p whose columns are permutations of level midpoints."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] < 2 or m.shape[1] < 1:
            raise ValueError("design must be an n x p matrix with n >= 2")
        levels = lh_levels(m.shape[0])
        for j in range(m.shape[1]):
            if not np.allclose(np.sort(m[:, j]), levels, atol=1e-12, rtol=0):
                raise ValueError(f"column {j} is not a permutation of the level midpoints")
        object.__setattr__(self, "matrix", m)


def lh_levels(n: int) -> np.ndarray:
    """Cell midpoints (2i - 1) / (2n) for i = 1..n."""
    return (2.0 * np.arange(1, n + 1) - 1.0) / (2.0 * n)


def phi_criterion(design, k: int = 15, m: float = 2.0) -> float:
    """Distance-reciprocal space-filling criterion of the n x p point matrix
    ``design``; smaller is better.

    This is the public entry point and validates the design and powers;
    ``search_mmlhd`` keeps the same criterion up to date under swaps.
    """
    pts = np.asarray(design, float)
    if pts.shape[0] < 2:
        raise ValueError("need at least two design points")
    if not 1 <= k < np.inf:
        raise ValueError(f"criterion power k must be finite and >= 1, got {k}")
    if not m >= 1:  # m = inf is the Chebyshev distance
        raise ValueError(f"distance power m must be >= 1, got {m}")
    from scipy.spatial.distance import pdist

    d = pdist(pts, "minkowski", p=m)
    if np.any(d == 0):
        raise ValueError("duplicate design rows: criterion is infinite")
    return float(np.sum(d ** (-float(k))) ** (1.0 / k))


@dataclass(frozen=True)
class SearchResult:
    design: LatinHypercube
    criterion: float
    trace: np.ndarray
    seed: int
    budget: int
    accepted: int


def random_latin_hypercube(n: int, p: int, rng) -> np.ndarray:
    levels = lh_levels(n)
    return np.column_stack([rng.permutation(levels) for _ in range(p)])


class _SwapCriterion:
    """phi of a design kept up to date under within-column swaps.

    Holds ``pdist``'s condensed vector of d_ij^(-k) terms, plus one
    scratch slot that takes each row's pair with itself.  A swap of rows i
    and j recomputes only the 2(n - 1) terms that involve them, O(n p),
    with ``cdist``, which shares ``pdist``'s Minkowski kernel and so
    returns the same distances; phi re-sums the whole vector in ``pdist``
    order, O(n^2) additions in one call, so it equals ``phi_criterion`` of
    the swapped design bit for bit.  ``undo`` swaps back and restores the
    saved terms.  ``pts`` is changed in place.
    """

    def __init__(self, pts, k: int, m: float):
        from scipy.spatial.distance import cdist, pdist

        n = pts.shape[0]
        self.pts, self.power, self.root, self.m, self.cdist = pts, -float(k), 1.0 / k, m, cdist
        self.size = n * (n - 1) // 2
        self.terms = np.empty(self.size + 1)
        self.terms[:self.size] = pdist(pts, "minkowski", p=m) ** self.power
        # slot of the pair (a, b) in the condensed vector; (a, a) -> scratch
        self.slot = np.full((n, n), self.size, dtype=np.intp)
        a, b = np.triu_indices(n, 1)
        self.slot[a, b] = self.slot[b, a] = np.arange(self.size)

    def _exchange(self, col: int, i: int, j: int):
        pts = self.pts
        pts[i, col], pts[j, col] = pts[j, col], pts[i, col]

    def swap(self, col: int, i: int, j: int) -> float:
        """Exchange rows i and j of column ``col``; phi of the result."""
        self._exchange(col, i, j)
        d = self.cdist(self.pts[[i, j]], self.pts, "minkowski", p=self.m)
        # a row's distance to itself only fills the scratch slot; rows stay
        # distinct under swaps, as every column keeps distinct levels
        d[0, i] = d[1, j] = 1.0
        slots = self.slot[[i, j]]
        self.saved = slots, self.terms[slots]
        self.terms[slots] = d ** self.power
        return float(self.terms[:self.size].sum() ** self.root)

    def undo(self, col: int, i: int, j: int) -> None:
        """Reverse the last ``swap(col, i, j)``."""
        self._exchange(col, i, j)
        slots, old = self.saved
        self.terms[slots] = old


def search_mmlhd(n: int, p: int, *, k: int = 15, m: float = 2.0, seed: int = 0,
                 budget: int = 10_000) -> SearchResult:
    """Simulated-annealing search for a small-phi Latin hypercube design.

    Moves swap two entries within one column.  The initial temperature is
    set so that an uphill move of the median size seen in probe moves from
    the random start would be accepted with probability 0.4; it then cools
    geometrically to a fraction 1e-6 of itself over the budget.  The probe
    moves mostly miss the closest pair, so their uphill changes are small,
    and after a few greedy steps uphill proposals are far larger: at
    n = 10, p = 3, seed 7, only 2 of the first 88 uphill proposals are
    accepted, and the search is close to a greedy descent.  Deterministic
    for a given seed.  Each move updates the criterion in O(n p) plus one
    O(n^2) sum (see ``_SwapCriterion``).

    Rejects a ``k`` for which the criterion could overflow a float: every
    distance is at least p**(1/m) / n, as two rows differ by at least 1/n
    in every column, so the check is k log(n / p**(1/m)) + log(n(n-1)/2)
    against the log of the largest float.

    Returns the best design visited together with the non-increasing
    best-so-far criterion trace (one entry per proposal, plus the start).
    """
    if n < 2 or p < 1:
        raise ValueError("need n >= 2 runs and p >= 1 factors")
    if budget <= 0:
        raise ValueError("search budget must be positive")
    if m >= 1 and k * (math.log(n) - math.log(p) / m) + math.log(n * (n - 1) / 2) > _LOG_MAX:
        raise ValueError(f"criterion power k = {k} is too large for n = {n}, p = {p} and "
                         f"m = {m:g}: the criterion's sum of distances to the power -k "
                         "could overflow")
    rng = make_rng(seed)
    current = random_latin_hypercube(n, p, rng)
    phi_cur = phi_criterion(current, k, m)
    criterion = _SwapCriterion(current, k, m)

    def propose():
        col = int(rng.integers(p))
        i, j = rng.choice(n, size=2, replace=False)
        return col, int(i), int(j)

    # probe uphill move sizes from the start point to set the temperature
    uphill = []
    for _ in range(min(200, max(20, budget // 20))):
        move = propose()
        delta = criterion.swap(*move) - phi_cur
        criterion.undo(*move)
        if delta > 0:
            uphill.append(delta)
    t0 = float(np.median(uphill)) / np.log(1.0 / 0.4) if uphill else 1e-3 * max(phi_cur, 1.0)
    cool = (1e-6) ** (1.0 / budget)

    best = current.copy()
    phi_best = phi_cur
    trace = np.empty(budget + 1)
    trace[0] = phi_best
    temperature = t0
    accepted = 0
    for step in range(budget):
        move = propose()
        phi_new = criterion.swap(*move)
        delta = phi_new - phi_cur
        if delta <= 0 or rng.random() < np.exp(-delta / max(temperature, 1e-300)):
            phi_cur = phi_new
            accepted += 1
            if phi_cur < phi_best:
                phi_best = phi_cur
                best = current.copy()
        else:
            criterion.undo(*move)
        temperature *= cool
        trace[step + 1] = phi_best
    design = LatinHypercube(best)  # validates the marginal invariant
    return SearchResult(design, phi_best, trace, int(seed), int(budget), accepted)


def _check_positive(**values):
    """Raise ValueError naming the first value that is not a positive finite number."""
    for name, value in values.items():
        if not 0 < value < np.inf:
            raise ValueError(f"{name} must be positive and finite, got {value}")


def acceleration_factor(*, life_normal: float | None = None,
                        life_accelerated: float | None = None,
                        activation_energy: float | None = None,
                        temp_use: float | None = None,
                        temp_stress: float | None = None) -> float:
    """Acceleration factor from lifetimes or from the Arrhenius model.

    Either give both lifetimes (factor = life_normal / life_accelerated)
    or the Arrhenius inputs: activation energy in eV and use/stress
    temperatures in Kelvin, giving
    exp[(E_a / k_B)(1 / T_use - 1 / T_stress)]; the rate prefactor
    cancels in the ratio.
    """
    life_args = (life_normal, life_accelerated)
    arrh_args = (activation_energy, temp_use, temp_stress)
    if all(v is not None for v in life_args) and all(v is None for v in arrh_args):
        _check_positive(life_normal=life_normal, life_accelerated=life_accelerated)
        return float(life_normal) / float(life_accelerated)
    if all(v is not None for v in arrh_args) and all(v is None for v in life_args):
        _check_positive(activation_energy=activation_energy, temp_use=temp_use,
                        temp_stress=temp_stress)
        return float(np.exp(activation_energy / BOLTZMANN_EV * (1.0 / temp_use - 1.0 / temp_stress)))
    raise ValueError(
        "give either (life_normal, life_accelerated) or "
        "(activation_energy, temp_use, temp_stress)"
    )


def transform_cdf(stress_cdf, factor: float, grid) -> np.ndarray:
    """Normal-condition CDF values F0(t) = Fs(t / factor) on a time grid.

    ``stress_cdf`` takes the array of scaled grid times and returns one
    value per time, as ``scipy.stats`` CDFs do; any other shape raises
    ValueError.
    """
    _check_positive(factor=factor)
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or np.any(np.diff(grid) < 0) or not np.isfinite(grid).all():
        raise ValueError("grid must be an ascending 1-D array of finite times")
    values = np.asarray(stress_cdf(grid / factor), dtype=float)
    if values.shape != grid.shape:
        raise ValueError("stress_cdf must return one value per grid time")
    return values
