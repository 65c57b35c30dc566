"""Probability primitives: simplex checks, conjugate updates, log densities,
and the elementary samplers everything else builds on.

All density evaluation is in log space. Degenerate Dirichlet coordinates
(zero concentration) produce exactly-zero weights rather than NaNs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

# how far from 1 a probability vector's sum may fall
SIMPLEX_ATOL = 1e-9


def assert_simplex(w) -> np.ndarray:
    """Validate that ``w`` is a probability vector, the one-row case of
    ``assert_simplex_rows``; returns it as an ndarray."""
    w = np.asarray(w, dtype=float)
    if w.ndim != 1:
        raise ValueError("simplex vector must be 1-d")
    assert_simplex_rows(w[None])
    return w


def assert_simplex_rows(w) -> np.ndarray:
    """Validate that every row of the 2-d ``w`` is a probability vector:
    entries in [0, 1] that sum to 1 within ``SIMPLEX_ATOL``; returns it as
    an ndarray."""
    w = np.asarray(w, dtype=float)
    if w.ndim != 2:
        raise ValueError("simplex rows must be 2-d")
    # each check is written so that NaN fails it
    if not np.all((w >= 0) & (w <= 1)):
        raise ValueError("simplex entries must lie in [0, 1]")
    sums = w.sum(axis=1)
    off = ~(np.abs(sums - 1.0) <= SIMPLEX_ATOL)
    if off.any():
        raise ValueError(f"simplex entries sum to {sums[off][0]!r}, not 1")
    return w


@dataclass(frozen=True, slots=True)
class NormalPrior:
    """Conjugate prior for a Normal mean with known observation variance."""

    mean: float
    var: float

    def __post_init__(self):
        if self.var <= 0:
            raise ValueError("prior variance must be positive")


def conj_update_normal(prior: NormalPrior, obs_sum: float, obs_count: int, sigma2: float) -> NormalPrior:
    """Posterior for a Normal mean given iid observations with variance sigma2.

    obs_count = 0 returns the prior unchanged.
    """
    if sigma2 <= 0:
        raise ValueError("sigma2 must be positive")
    if obs_count < 0:
        raise ValueError("obs_count must be nonnegative")
    if obs_count == 0:
        return prior
    prec = 1.0 / prior.var + obs_count / sigma2
    var = 1.0 / prec
    mean = var * (prior.mean / prior.var + obs_sum / sigma2)
    return NormalPrior(mean=mean, var=var)


def conj_update_gamma_poisson(hyper, data_sum, data_n):
    """Gamma shape/rate update for a Poisson mean: (a + sum, b + n)."""
    a, b = hyper
    if a <= 0 or b <= 0:
        raise ValueError("gamma hyperparameters must be positive")
    return (a + data_sum, b + data_n)


def conj_update_beta_negbin(hyper, data_sum, data_n, r):
    """Beta update for the negative-binomial duration parameter:
    (a + sum, b + r * n)."""
    a, b = hyper
    if a <= 0 or b <= 0:
        raise ValueError("beta hyperparameters must be positive")
    if r < 1:
        raise ValueError("r must be >= 1")
    return (a + data_sum, b + r * data_n)


# ---------------------------------------------------------------------------
# log densities
# ---------------------------------------------------------------------------

LOG2PI = math.log(2.0 * math.pi)


def logsumexp_axis(a, axis):
    """log sum exp of ``a`` along ``axis``; a slice of all -inf gives -inf."""
    m = np.max(a, axis=axis, keepdims=True)
    m_safe = np.where(np.isfinite(m), m, 0.0)
    with np.errstate(divide="ignore"):
        out = np.log(np.sum(np.exp(a - m_safe), axis=axis)) + np.squeeze(m_safe, axis=axis)
    return np.where(np.isfinite(np.squeeze(m, axis=axis)), out, -np.inf)


def normal_logpdf(y, mean, var):
    y = np.asarray(y, dtype=float)
    if np.any(np.asarray(var) <= 0):
        raise ValueError("variance must be positive")
    return -0.5 * (LOG2PI + np.log(var) + (y - mean) ** 2 / var)


def poisson_logpmf(d, lam):
    d = np.asarray(d)
    if np.any(lam <= 0):
        raise ValueError("rate must be positive")
    if np.any(d < 0):
        raise ValueError("count must be nonnegative")
    return d * np.log(lam) - lam - gammaln(d + 1)


def negbin_logpmf(d, r, vphi):
    """Negative-binomial pmf C(d+r-1, d) vphi^d (1-vphi)^r on d >= 0."""
    d = np.asarray(d)
    if np.any((vphi <= 0) | (vphi >= 1)):
        raise ValueError("vphi must lie in (0, 1)")
    if np.any(np.asarray(r) < 1):
        raise ValueError("r must be >= 1")
    log_binom = gammaln(d + r) - gammaln(r) - gammaln(d + 1)
    out = np.where(
        d >= 0,
        log_binom + d * np.log(vphi) + r * np.log1p(-vphi),
        -np.inf,
    )
    return out[()] if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# samplers
# ---------------------------------------------------------------------------


def dirichlet_sample(rng: np.random.Generator, alpha) -> np.ndarray:
    """Dirichlet draw that tolerates zero concentrations (exact zeros out).

    Works on a single vector or a batch of rows (last axis is the simplex).
    """
    alpha = np.asarray(alpha, dtype=float)
    if np.any(alpha < 0):
        raise ValueError("concentrations must be nonnegative")
    g = rng.standard_gamma(alpha)
    total = g.sum(axis=-1, keepdims=True)
    if np.any(total <= 0):
        raise ValueError("at least one concentration must be positive per row")
    return g / total


def categorical_pick(probs, u: float) -> int:
    """The category that the uniform ``u`` picks from a normalized
    probability vector: the count of cdf entries at or below ``u``."""
    # right-edge guard: the cdf may fall a hair short of 1
    return min(int(np.searchsorted(np.cumsum(probs), u, side="right")), len(probs) - 1)


def categorical_sample(rng: np.random.Generator, probs) -> int:
    """Single categorical draw from a normalized probability vector."""
    return categorical_pick(probs, rng.random())


def categorical_pick_logits(logits, u: float) -> int:
    """``categorical_pick`` on the normalized exponentials of ``logits``."""
    logits = np.asarray(logits, dtype=float)
    m = logits.max()
    if m == -np.inf:
        raise ValueError("all categories have zero probability")
    p = np.exp(logits - m)
    return categorical_pick(p / p.sum(), u)


def categorical_sample_logits(rng: np.random.Generator, logits) -> int:
    return categorical_pick_logits(logits, rng.random())


def categorical_rows_pick(probs: np.ndarray, u: np.ndarray) -> np.ndarray:
    """The category that ``u[i]`` picks from row i of ``probs`` (rows
    normalized): the count of its cdf entries below ``u[i]``."""
    cdf = np.cumsum(probs, axis=1)
    # right-edge guard: cdf may fall a hair short of 1
    return np.minimum((u[:, None] > cdf).sum(axis=1), probs.shape[1] - 1)


def categorical_rows_sample(rng: np.random.Generator, probs: np.ndarray) -> np.ndarray:
    """Vectorized categorical draw per row of ``probs`` (rows normalized)."""
    return categorical_rows_pick(probs, rng.random(probs.shape[0]))


__all__ = [
    "NormalPrior",
    "assert_simplex",
    "assert_simplex_rows",
    "conj_update_normal",
    "conj_update_gamma_poisson",
    "conj_update_beta_negbin",
    "normal_logpdf",
    "poisson_logpmf",
    "negbin_logpmf",
    "dirichlet_sample",
    "categorical_pick",
    "categorical_pick_logits",
    "categorical_sample",
    "categorical_sample_logits",
    "categorical_rows_pick",
    "categorical_rows_sample",
]
