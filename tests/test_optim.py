"""Tests of the shared optimizer helpers in ``aireliab._optim``.

The oracles are the four multistart jitter loops that the fitters wrote
out inline before ``starts`` replaced them; each must be reproduced bit
for bit, so every fit keeps its starts.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from aireliab._optim import numeric_stderr, starts
from conftest import PROPERTY


def recurrent_starts(seed_params, multistarts):
    # recurrent._starts (fit_mle, fit_manufacturer_level)
    z0 = np.log(seed_params)
    out = [z0]
    jitter = np.random.default_rng(12345)
    for _ in range(max(0, multistarts - 1)):
        out.append(z0 + jitter.normal(0.0, 0.5, size=len(z0)))
    return out


def proportional_starts(seed, k_theta, q_act, multistarts):
    # recurrent.fit_proportional: baseline block 0.5, covariate block 0.25
    out = [seed]
    jitter = np.random.default_rng(12345)
    for _ in range(max(0, multistarts - 1)):
        s = seed.copy()
        s[:k_theta] += jitter.normal(0.0, 0.5, size=k_theta)
        s[k_theta:] += jitter.normal(0.0, 0.25, size=q_act)
        out.append(s)
    return out


def propagation_starts(seed, multistarts):
    # propagation._fit_module
    seed = np.asarray(seed)
    out = [seed]
    jitter = np.random.default_rng(2024)
    for _ in range(max(0, multistarts - 1)):
        out.append(seed + jitter.normal(0.0, 0.5, size=len(seed)))
    return out


def srgm_starts(seed, multistarts):
    # srgm.fit_srgm
    out = [seed]
    jitter = np.random.default_rng(777)
    for _ in range(max(0, multistarts - 1)):
        out.append(seed + jitter.normal(0.0, 0.4, size=len(seed)))
    return out


def assert_same_bits(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.dtype == np.float64 and g.shape == w.shape
        assert g.tobytes() == w.tobytes()


finite = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False)
positive = st.floats(min_value=1e-12, max_value=1e12, allow_nan=False)
multistarts = st.sampled_from([0, 1, 5])


@PROPERTY
@given(st.lists(positive, min_size=1, max_size=6), multistarts)
def test_starts_match_recurrent_loop(seed_params, n):
    seed_params = np.array(seed_params)
    assert_same_bits(starts(np.log(seed_params), n, 0.5, key=12345),
                     recurrent_starts(seed_params, n))


@PROPERTY
@given(st.lists(finite, min_size=1, max_size=6), multistarts)
def test_starts_match_propagation_loop(seed, n):
    assert_same_bits(starts(seed, n, 0.5, key=2024), propagation_starts(seed, n))


@PROPERTY
@given(st.lists(finite, min_size=1, max_size=6), multistarts)
def test_starts_match_srgm_loop(seed, n):
    seed = np.array(seed)
    assert_same_bits(starts(seed, n, 0.4, key=777), srgm_starts(seed, n))


@PROPERTY
@given(st.lists(finite, min_size=1, max_size=3), st.integers(0, 3), multistarts)
def test_starts_match_proportional_loop(theta, q_act, n):
    k_theta = len(theta)
    seed = np.concatenate([theta, np.zeros(q_act)])
    spread = np.repeat([0.5, 0.25], [k_theta, q_act])
    assert_same_bits(starts(seed, n, spread, key=12345),
                     proportional_starts(seed, k_theta, q_act, n))


def test_numeric_stderr_recovers_quadratic_with_absolute_step():
    # f = c + (theta - mu)' H (theta - mu) / 2 has covariance H^-1 exactly.
    # The first coordinate sits at 0, where a relative step would vanish
    # and the offset c, like a log-likelihood's, would swamp the differences
    A = np.array([[2.0, 0.3, 0.0], [0.1, 1.5, 0.2], [0.0, -0.4, 0.8]])
    H = 100.0 * A @ A.T
    mu = np.array([0.0, 1.7, -3.2])

    def f(theta):
        d = theta - mu
        return 50.0 + 0.5 * d @ H @ d

    se = numeric_stderr(f, mu, 1e-5)
    assert se == pytest.approx(np.sqrt(np.diag(np.linalg.inv(H))), rel=1e-4)
    # one step per coordinate is accepted too
    assert numeric_stderr(f, mu, np.full(3, 1e-5)) == pytest.approx(se, rel=1e-12)


def test_numeric_stderr_none_when_not_positive_definite():
    assert numeric_stderr(lambda th: -float(th @ th), np.zeros(2), 1e-5) is None
    assert numeric_stderr(lambda th: np.inf, np.zeros(2), 1e-5) is None
