"""Conjugate updates and density helpers against quadrature oracles.

The oracle computes posterior moments by normalizing prior x likelihood on a
dense grid; the closed-form updates must reproduce those moments. Oracles
are defined before the tests that rely on them.
"""

import math

import numpy as np
import pytest
from fbpf_reference import row_predictive
from hypothesis import given, settings, strategies as st
from scipy.stats import beta as beta_dist, gamma as gamma_dist, nbinom, norm, poisson

from powersplit.distributions import (
    NormalPrior,
    assert_simplex,
    categorical_rows_sample,
    categorical_sample,
    conj_update_beta_negbin,
    conj_update_gamma_poisson,
    conj_update_normal,
    negbin_logpmf,
    normal_logpdf,
    poisson_logpmf,
)
from powersplit.hsmm import DurationParams
from powersplit.rng import stream


# ---------------------------------------------------------------------------
# oracle: grid quadrature of prior x likelihood
# ---------------------------------------------------------------------------


def quadrature_moments(grid, logprior, loglik):
    """(mean, variance) of the normalized product on a dense grid."""
    logw = logprior + loglik
    logw -= logw.max()
    w = np.exp(logw)
    w /= np.trapezoid(w, grid)
    mean = np.trapezoid(w * grid, grid)
    second = np.trapezoid(w * grid * grid, grid)
    return mean, second - mean * mean


# ---------------------------------------------------------------------------
# conjugate updates vs the oracle
# ---------------------------------------------------------------------------


def test_normal_mean_update_matches_quadrature():
    rng = stream(0, "normal-conj")
    prior = NormalPrior(mean=2.0, var=4.0)
    sigma2 = 9.0
    y = rng.normal(3.0, math.sqrt(sigma2), size=7)
    post = conj_update_normal(prior, y.sum(), len(y), sigma2)

    grid = np.linspace(-20, 25, 200_001)
    loglik = norm.logpdf(y[:, None], loc=grid[None, :], scale=math.sqrt(sigma2)).sum(axis=0)
    mean, var = quadrature_moments(grid, norm.logpdf(grid, 2.0, 2.0), loglik)
    assert abs(post.mean - mean) < 1e-6
    assert abs(post.var - var) < 1e-6


def test_gamma_poisson_update_matches_quadrature():
    a, b = 2.5, 0.7
    data = np.array([3, 0, 5, 2, 2])
    a2, b2 = conj_update_gamma_poisson((a, b), data.sum(), len(data))
    grid = np.linspace(1e-6, 60, 400_001)
    loglik = poisson.logpmf(data[:, None], grid[None, :]).sum(axis=0)
    mean, var = quadrature_moments(grid, gamma_dist.logpdf(grid, a, scale=1.0 / b), loglik)
    assert abs(a2 / b2 - mean) < 1e-6
    assert abs(a2 / b2**2 - var) < 1e-6


def test_beta_negbin_update_matches_quadrature():
    a, b, r = 1.5, 2.0, 3
    data = np.array([4, 1, 0, 6])
    a2, b2 = conj_update_beta_negbin((a, b), data.sum(), len(data), r)
    grid = np.linspace(1e-9, 1 - 1e-9, 400_001)
    loglik = nbinom.logpmf(data[:, None], r, 1.0 - grid[None, :]).sum(axis=0)
    mean, var = quadrature_moments(grid, beta_dist.logpdf(grid, a, b), loglik)
    post_mean = a2 / (a2 + b2)
    post_var = a2 * b2 / ((a2 + b2) ** 2 * (a2 + b2 + 1))
    assert abs(post_mean - mean) < 1e-6
    assert abs(post_var - var) < 1e-6


def test_dirichlet_update_matches_beta_quadrature():
    # two categories reduce to a Beta posterior on the first weight; the
    # update is the filter's, the advance's posterior-mean row out of state
    # 0 of one particle's one two-state chain
    alpha = np.array([1.2, 3.4])
    counts = np.array([5.0, 2.0])
    post = row_predictive(alpha, counts)
    grid = np.linspace(1e-9, 1 - 1e-9, 400_001)
    loglik = counts[0] * np.log(grid) + counts[1] * np.log1p(-grid)
    mean, _ = quadrature_moments(grid, beta_dist.logpdf(grid, alpha[0], alpha[1]), loglik)
    assert abs(post[0] / post.sum() - mean) < 1e-6


def test_zero_count_updates_return_prior():
    prior = NormalPrior(1.0, 2.0)
    assert conj_update_normal(prior, 0.0, 0, 1.0) is prior
    assert conj_update_gamma_poisson((2.0, 3.0), 0, 0) == (2.0, 3.0)


# ---------------------------------------------------------------------------
# density helpers
# ---------------------------------------------------------------------------


@given(st.floats(-50, 50), st.floats(0.01, 100))
def test_normal_logpdf_matches_scipy(mean, var):
    y = np.array([-3.0, 0.0, 7.5])
    got = normal_logpdf(y, mean, var)
    want = norm.logpdf(y, mean, math.sqrt(var))
    assert np.allclose(got, want, atol=1e-10)


@given(st.floats(0.05, 40))
def test_poisson_logpmf_matches_scipy(lam):
    d = np.arange(0, 30)
    assert np.allclose(poisson_logpmf(d, lam), poisson.logpmf(d, lam), atol=1e-10)


@given(st.integers(1, 6), st.floats(0.05, 0.95))
def test_negbin_standard_form_matches_scipy(r, vphi):
    d = np.arange(0, 25)
    got = negbin_logpmf(d, r, vphi)
    want = nbinom.logpmf(d, r, 1.0 - vphi)
    assert np.allclose(got, want, atol=1e-9)


def test_duration_logpmf_is_the_stated_mixture():
    # the duration law: each component conditioned on d >= 1, then mixed
    d = np.arange(0, 15)
    phi, lam, r, vphi = 0.3, 4.0, 2, 0.45
    got = DurationParams(phi=phi, lam=lam, r=r, vphi=vphi).logpmf(d)
    poi = np.exp(poisson_logpmf(d, lam)) / -math.expm1(-lam)
    nb = np.exp(negbin_logpmf(d, r, vphi)) / -math.expm1(r * math.log1p(-vphi))
    want = np.where(d >= 1, phi * poi + (1 - phi) * nb, 0.0)
    assert np.allclose(np.exp(got), want, atol=1e-12)
    assert got[0] == -np.inf


def test_duration_logpmf_degenerate_weights():
    # a zero-weight component drops out exactly
    d = np.arange(1, 10)
    poi = poisson_logpmf(d, 2.0) - math.log(-math.expm1(-2.0))
    nb = negbin_logpmf(d, 2, 0.5) - math.log(1 - 0.5**2)
    assert np.allclose(DurationParams(1.0, 2.0, 2, 0.5).logpmf(d), poi, rtol=1e-13, atol=0)
    assert np.allclose(DurationParams(0.0, 2.0, 2, 0.5).logpmf(d), nb, rtol=1e-13, atol=0)


# ---------------------------------------------------------------------------
# simplex and sampling helpers
# ---------------------------------------------------------------------------


def test_assert_simplex_accepts_and_rejects():
    w = assert_simplex([0.25, 0.75])
    assert isinstance(w, np.ndarray)
    with pytest.raises(ValueError):
        assert_simplex([0.5, 0.6])
    with pytest.raises(ValueError):
        assert_simplex([-0.1, 1.1])
    for bad in ([np.nan, 1.0], [0.5, np.nan], [np.nan, np.nan]):
        with pytest.raises(ValueError, match="simplex"):
            assert_simplex(bad)


def test_categorical_rows_sample_hits_the_right_rows():
    rng = stream(3, "rows")
    probs = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
    idx = categorical_rows_sample(rng, np.tile(probs, (100, 1)))
    assert np.array_equal(idx.reshape(100, 3), np.tile([0, 2, 1], (100, 1)).reshape(100, 3))


def test_categorical_rows_sample_frequencies():
    rng = stream(4, "rows-freq")
    row = np.array([0.2, 0.5, 0.3])
    draws = categorical_rows_sample(rng, np.tile(row, (200_000, 1)))
    freq = np.bincount(draws, minlength=3) / len(draws)
    assert np.abs(freq - row).max() < 5e-3


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=12),
       st.floats(0.9, 1.0), st.integers(0, 2**32 - 1))
def test_categorical_sample_matches_clip_form(raw, mass, seed):
    # the draw and the RNG use equal the former clip form, also when the cdf
    # falls short of 1 and the draw lands past its end
    w = np.asarray(raw)
    probs = mass * (w / w.sum() if w.sum() > 0 else np.full(len(w), 1.0 / len(w)))
    rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(5):
        got = categorical_sample(rng, probs)
        u = ref.random()
        want = int(np.searchsorted(np.cumsum(probs), u, side="right").clip(0, len(probs) - 1))
        assert got == want
    assert rng.random() == ref.random()
