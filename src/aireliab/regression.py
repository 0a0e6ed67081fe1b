"""The simplex mixture regression model with covariate interactions.

The mixture model is the no-intercept second-order form over proportions
(x1, x2, x3) summing to one, with binary covariates z entering through
z-by-component interactions and pairwise z products:

    y = sum_j b_j x_j + sum_{j<j'} b_jj' x_j x_j'
        + sum_k sum_j g_kj z_k x_j + sum_{k<k'} d_kk' z_k z_k' + noise
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .datasets.table import column, select


class RankDeficiencyError(ValueError):
    """Design matrix is rank deficient; ``columns`` names the dependents."""

    def __init__(self, columns):
        self.columns = tuple(columns)
        super().__init__(f"rank-deficient design; dependent columns: {list(columns)}")


def _check_rank(X, names):
    """Raise RankDeficiencyError listing columns beyond the pivoted rank."""
    if X.shape[1] == 0:
        return
    import scipy.linalg

    _, R, piv = scipy.linalg.qr(X, mode="economic", pivoting=True)
    diag = np.abs(np.diag(R))
    tol = diag[0] * max(X.shape) * np.finfo(float).eps if diag.size and diag[0] > 0 else 0.0
    rank = int(np.sum(diag > tol))
    if rank < X.shape[1]:
        raise RankDeficiencyError([names[j] for j in sorted(piv[rank:])])


MIXTURE_COMPONENTS = ("x1", "x2", "x3")


def mixture_terms(z_names=("z1", "z2")) -> tuple[str, ...]:
    """Ordered coefficient names of the mixture design."""
    comps = MIXTURE_COMPONENTS
    terms = list(comps)
    terms += [f"{comps[i]}:{comps[j]}" for i in range(3) for j in range(i + 1, 3)]
    terms += [f"{z}:{x}" for z in z_names for x in comps]
    terms += [f"{z_names[i]}:{z_names[j]}" for i in range(len(z_names))
              for j in range(i + 1, len(z_names))]
    return tuple(terms)


def mixture_design(x, z, z_names=("z1", "z2")) -> tuple[np.ndarray, tuple[str, ...]]:
    """No-intercept design matrix of the mixture model."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    z = np.atleast_2d(np.asarray(z, dtype=float))
    if x.shape[1] != 3:
        raise ValueError("mixture proportions must have three components")
    if z.shape[1] != len(z_names):
        raise ValueError("one name per z column is required")
    cols = [x[:, 0], x[:, 1], x[:, 2]]
    cols += [x[:, i] * x[:, j] for i in range(3) for j in range(i + 1, 3)]
    for k in range(z.shape[1]):
        cols += [z[:, k] * x[:, j] for j in range(3)]
    cols += [z[:, i] * z[:, j] for i in range(z.shape[1]) for j in range(i + 1, z.shape[1])]
    return np.column_stack(cols), mixture_terms(z_names)


@dataclass(frozen=True)
class MixtureFit:
    response: str
    scenario: str | None
    z_names: tuple[str, ...]
    terms: tuple[str, ...]
    coef: np.ndarray
    stderr: np.ndarray
    resid_sd: float
    n: int
    df_resid: int

    def coef_dict(self) -> dict[str, float]:
        return {t: float(c) for t, c in zip(self.terms, self.coef)}

    def predict(self, x, z):
        D, names = mixture_design(x, z, self.z_names)
        idx = [names.index(t) for t in self.terms]
        return D[:, idx] @ self.coef

    def conf_int(self, level: float = 0.95) -> np.ndarray:
        """Two-sided t confidence intervals, one (lo, hi) row per term."""
        if not 0 < level < 1:
            raise ValueError(f"confidence level must lie in (0, 1), got {level}")
        from scipy.special import stdtrit

        half = stdtrit(self.df_resid, 0.5 + level / 2.0) * self.stderr
        return np.column_stack([self.coef - half, self.coef + half])


SCENARIOS = ("c1", "c2", "c3")


def fit_mixture(records, response: str = "y1", *, scenario: str | None = None,
                pooled: bool = False) -> MixtureFit:
    """Least-squares fit of the mixture model to robustness records.

    Records are a table or a list of objects carrying x1..x3, z1, z2,
    c1..c3, y1, y2.  By default the model is fitted separately per
    scenario (pass one of "c1", "c2", "c3"); with ``pooled=True`` all rows
    are used and the c2, c3 flags join the z covariates (c1 is the
    reference and would be collinear with the proportions).
    """
    if response not in ("y1", "y2"):
        raise ValueError("response must be 'y1' or 'y2'")
    if pooled:
        if scenario is not None:
            raise ValueError("scenario filter and pooled fit are mutually exclusive")
        rows, z_names = records, ("z1", "z2", "c2", "c3")
    else:
        if scenario not in SCENARIOS:
            raise ValueError(f"scenario must be one of {SCENARIOS} (or use pooled=True)")
        rows, z_names = select(records, scenario, 1), ("z1", "z2")
        if not rows:
            raise ValueError(f"no rows in scenario {scenario}")

    def floats(name):
        return np.asarray(column(rows, name), dtype=float)

    D, terms = mixture_design(np.column_stack([floats(name) for name in ("x1", "x2", "x3")]),
                              np.column_stack([floats(name) for name in z_names]), z_names)
    # one-hot scenario flags make some z products identically zero in the
    # pooled fit; such terms have no support and are dropped
    support = np.any(D != 0.0, axis=0)
    D = D[:, support]
    terms = tuple(t for t, keep in zip(terms, support) if keep)
    if D.shape[0] <= D.shape[1]:
        raise ValueError("need more rows than coefficients")
    _check_rank(D, terms)
    y = floats(response)
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


def simplex_lattice(resolution: int) -> np.ndarray:
    """Barycentric lattice {(i, j, k) / r : i + j + k = r} on the simplex.

    Contains (r + 1)(r + 2) / 2 points; vertices always appear, and the
    centroid appears whenever r is a multiple of 3.
    """
    if resolution < 2:
        raise ValueError("grid resolution must be at least 2")
    r = int(resolution)
    pts = [
        (i / r, j / r, (r - i - j) / r)
        for i in range(r + 1)
        for j in range(r - i + 1)
    ]
    return np.asarray(pts, dtype=float)


def predict_simplex_grid(fit: MixtureFit, z, resolution: int = 20) -> np.ndarray:
    """Table of (x1, x2, x3, yhat) over the barycentric lattice at fixed z."""
    grid = simplex_lattice(resolution)
    z = np.asarray(z, dtype=float).reshape(1, -1)
    zz = np.repeat(z, len(grid), axis=0)
    yhat = fit.predict(grid, zz)
    return np.column_stack([grid, yhat])
