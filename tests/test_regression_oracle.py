"""The mixture fit's confidence intervals against the ``scipy.stats`` expression they replaced.

``MixtureFit.conf_int`` takes the Student t quantile from
``scipy.special`` and no ``scipy.stats``.  The oracle below is the code
that came before, spelled with ``scipy.stats.t``, and the interval bounds
must reproduce it bit for bit.
"""

import numpy as np
import pytest
from scipy.stats import t as student_t

from aireliab._rng import derive_seed
from aireliab.regression import fit_mixture
from aireliab.simulate import simulate_mixture_records

# ---------------------------------------------------------------------------
# oracles: the code as it was with scipy.stats


def oracle_conf_int(fit, level):
    half = student_t.ppf(0.5 + level / 2.0, fit.df_resid) * fit.stderr
    return np.column_stack([fit.coef - half, fit.coef + half])


def bits(values):
    return np.asarray(values, dtype=float).view(np.int64)


@pytest.mark.parametrize("pooled", [False, True], ids=["per-scenario", "pooled"])
@pytest.mark.parametrize("seed", range(3))
def test_conf_int_matches_oracle_bit_for_bit(seed, pooled):
    rng = np.random.default_rng(derive_seed(4444, seed))
    records = simulate_mixture_records(rng.normal(0.5, 0.2, 13), rng.normal(-1.0, 0.3, 13),
                                       noise_sd_y1=0.05, noise_sd_y2=0.2, seed=seed)
    fit = fit_mixture(records, "y1", pooled=True) if pooled else fit_mixture(
        records, "y2", scenario=("c1", "c2", "c3")[seed])
    for level in (0.5, 0.8, 0.9, 0.95, 0.99, 0.999):
        assert (bits(fit.conf_int(level)) == bits(oracle_conf_int(fit, level))).all()


@pytest.mark.parametrize("level", [-1.0, 0.0, 1.0, 1.5, np.nan])
def test_conf_int_rejects_a_level_outside_0_1(level):
    # at level -1 the t quantile of 0 is -inf in scipy.stats but +inf in stdtrit
    rng = np.random.default_rng(derive_seed(4444, 0))
    records = simulate_mixture_records(rng.normal(0.5, 0.2, 13), rng.normal(-1.0, 0.3, 13),
                                       noise_sd_y1=0.05, seed=0)
    with pytest.raises(ValueError, match="confidence level"):
        fit_mixture(records, "y1", scenario="c1").conf_int(level)
