"""Weak-limit hierarchical Dirichlet transition prior.

The infinite transition-matrix prior is truncated at L states: shared weights
beta ~ Dir(gamma/L, ..., gamma/L) and rows pi_j ~ Dir(alpha * beta). Gibbs
inference augments with per-transition geometric self-loop counts rho (which
rebuild the diagonal the segment model never observes) and table counts m
(Bernoulli-product draws whose law involves unsigned Stirling numbers of the
first kind; the Stirling recurrence itself is kept as a test oracle only).

Convention: m[k][j] = tables in restaurant k serving dish j, so column sums
m_dot[j] = sum_k m[k][j] drive the beta posterior.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np
from scipy.special import betaln, gammaln, xlog1py, xlogy

from .distributions import (
    NormalPrior,
    assert_simplex,
    categorical_sample_logits,
    conj_update_normal,
    dirichlet_sample,
    normal_logpdf,
)
from .hsmm import (
    DurationHyper,
    DurationParams,
    HsmmParams,
    SegmentPath,
    blocked_sample_segments,
    sample_duration_params,
)

# ---------------------------------------------------------------------------
# Stirling oracle and the Antoniak sampler
# ---------------------------------------------------------------------------

_STIRLING_MAX = 30


@lru_cache(maxsize=None)
def stirling_unsigned(n: int, m: int) -> int:
    """Unsigned Stirling number of the first kind, exact integer.

    Bounded at n, m <= 30; this is a test oracle, not a runtime path.
    """
    if not (0 <= n <= _STIRLING_MAX and 0 <= m <= _STIRLING_MAX):
        raise ValueError(f"stirling_unsigned bounded at {_STIRLING_MAX}")
    if n == 0 and m == 0:
        return 1
    if n == 0 or m == 0:
        return 0
    if m > n:
        return 0
    return stirling_unsigned(n - 1, m - 1) + (n - 1) * stirling_unsigned(n - 1, m)


def antoniak_pmf(n: int, weight: float) -> np.ndarray:
    """Exact table-count pmf over m = 0..n given n customers and concentration
    ``weight``, via the Stirling oracle."""
    if weight <= 0:
        raise ValueError("weight must be positive")
    if n == 0:
        return np.array([1.0])
    logs = np.full(n + 1, -np.inf)
    for m in range(1, n + 1):
        s = stirling_unsigned(n, m)
        if s > 0:
            logs[m] = math.log(s) + m * math.log(weight)
    mx = logs.max()
    p = np.exp(logs - mx)
    return p / p.sum()


def sample_m(n: int, weight: float, rng: np.random.Generator, size=None):
    """Table-count draw(s) via the Bernoulli product: sum of Ber(w/(w+i))."""
    if weight <= 0:
        raise ValueError("weight must be positive")
    if n == 0:
        return 0 if size is None else np.zeros(size, dtype=np.int64)
    i = np.arange(n)
    p = weight / (weight + i)
    if size is None:
        return int((rng.random(n) < p).sum())
    return (rng.random((size, n)) < p[None, :]).sum(axis=1)


# ---------------------------------------------------------------------------
# augmentation draws
# ---------------------------------------------------------------------------


def sample_rho(pi_jj: float, count: int, rng: np.random.Generator,
               cap: int | None = None) -> np.ndarray:
    """Per-transition self-loop auxiliaries: iid Geometric on {0, 1, ...}
    with success probability 1 - pi_jj.

    ``cap`` truncates the support at {0..cap} (renormalized); used by the
    enumerable-instance stationarity check, never in production sweeps.
    """
    if not 0 <= pi_jj < 1:
        raise ValueError("pi_jj must lie in [0, 1)")
    if count == 0:
        return np.zeros(0, dtype=np.int64)
    if pi_jj == 0.0:
        return np.zeros(count, dtype=np.int64)
    u = rng.random(count)
    if cap is None:
        # inverse cdf of the geometric number of failures
        return np.floor(np.log1p(-u) / math.log(pi_jj)).astype(np.int64)
    total = 1.0 - pi_jj ** (cap + 1)
    vals = np.floor(np.log1p(-u * total) / math.log(pi_jj)).astype(np.int64)
    return np.minimum(vals, cap)


def sample_beta_posterior(m: np.ndarray, gamma: float, L: int,
                          rng: np.random.Generator) -> np.ndarray:
    """beta | m ~ Dir(gamma/L + column sums of m)."""
    m = np.asarray(m, dtype=float)
    if m.shape != (L, L):
        raise ValueError("m must be (L, L)")
    return dirichlet_sample(rng, gamma / L + m.sum(axis=0))


def sample_pi_posterior(beta: np.ndarray, alpha: float, n_row: np.ndarray,
                        rng: np.random.Generator) -> np.ndarray:
    """pi_j | beta, counts ~ Dir(alpha * beta + n_row); the diagonal entry of
    n_row is the summed self-loop auxiliaries."""
    return dirichlet_sample(rng, alpha * np.asarray(beta, dtype=float) + np.asarray(n_row, dtype=float))


@dataclass(frozen=True)
class WeakLimitHdp:
    """Truncated shared weights and the transition rows they tie together."""

    gamma: float
    alpha: float
    beta: np.ndarray  # (L,)
    pi: np.ndarray    # (L, L) full rows, diagonal included

    def __post_init__(self):
        beta = assert_simplex(np.asarray(self.beta, dtype=float), atol=1e-9)
        pi = np.asarray(self.pi, dtype=float)
        L = len(beta)
        if pi.shape != (L, L):
            raise ValueError("pi must be (L, L)")
        for row in pi:
            assert_simplex(row, atol=1e-9)
        if self.gamma <= 0 or self.alpha <= 0:
            raise ValueError("concentrations must be positive")
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "pi", pi)

    @property
    def L(self) -> int:
        return len(self.beta)


def sample_hdp_prior(gamma: float, alpha: float, L: int,
                     rng: np.random.Generator) -> WeakLimitHdp:
    beta = dirichlet_sample(rng, np.full(L, gamma / L))
    pi = np.vstack([dirichlet_sample(rng, alpha * beta) for _ in range(L)])
    return WeakLimitHdp(gamma=gamma, alpha=alpha, beta=beta, pi=pi)


def pi_bar_from(pi: np.ndarray) -> np.ndarray:
    """Zero the diagonal and renormalize each row (the segment model never
    self-transitions)."""
    pi = np.asarray(pi, dtype=float)
    out = pi.copy()
    np.fill_diagonal(out, 0.0)
    totals = out.sum(axis=1, keepdims=True)
    if np.any(totals <= 0):
        raise ValueError("a transition row has no off-diagonal mass")
    return out / totals


def hdp_sweep(hdp: WeakLimitHdp, trans_counts: np.ndarray,
              rng: np.random.Generator, rho_cap: int | None = None) -> WeakLimitHdp:
    """One partially collapsed pass in the fixed order rho, m, beta, pi.

    ``trans_counts`` are the observed super-state transitions (zero diagonal).
    """
    L = hdp.L
    n = np.asarray(trans_counts, dtype=np.int64)
    if n.shape != (L, L):
        raise ValueError("trans_counts must be (L, L)")
    if np.any(np.diag(n) != 0):
        raise ValueError("observed transitions cannot be self-loops")

    # rho: rebuild the unobserved diagonal from the current rows
    n_aug = n.astype(float).copy()
    for j in range(L):
        out_count = int(n[j].sum())
        pjj = float(hdp.pi[j, j])
        if pjj >= 1.0 - 1e-12 and out_count > 0:
            raise ValueError("self-transition probability saturated at 1")
        rho = sample_rho(min(pjj, 1.0 - 1e-12), out_count, rng, cap=rho_cap)
        n_aug[j, j] = rho.sum()

    # m: table counts per (restaurant k, dish j)
    m = np.zeros((L, L))
    for k in range(L):
        for j in range(L):
            m[k, j] = sample_m(int(n_aug[k, j]), hdp.alpha * hdp.beta[j], rng)

    beta = sample_beta_posterior(m, hdp.gamma, L, rng)
    pi = np.vstack([sample_pi_posterior(beta, hdp.alpha, n_aug[j], rng) for j in range(L)])
    return replace(hdp, beta=beta, pi=pi)


# ---------------------------------------------------------------------------
# full segment-model sweep under the weak-limit prior
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EmissionMixturePrior:
    """Mixture-of-Normals prior for per-state emission means."""

    weights: np.ndarray
    components: tuple[NormalPrior, ...]

    def __post_init__(self):
        w = assert_simplex(np.asarray(self.weights, dtype=float), atol=1e-9)
        if len(w) != len(self.components):
            raise ValueError("weights/components mismatch")
        object.__setattr__(self, "weights", w)

    def sample_prior(self, rng: np.random.Generator) -> float:
        m = categorical_sample_logits(rng, np.log(np.maximum(self.weights, 1e-300)))
        c = self.components[m]
        return rng.normal(c.mean, math.sqrt(c.var))


@dataclass(frozen=True)
class DurationMixturePrior:
    """Mixture of duration hyperparameter bundles."""

    weights: np.ndarray
    components: tuple[DurationHyper, ...]

    def __post_init__(self):
        w = assert_simplex(np.asarray(self.weights, dtype=float), atol=1e-9)
        if len(w) != len(self.components):
            raise ValueError("weights/components mismatch")
        object.__setattr__(self, "weights", w)

    def sample_prior(self, rng: np.random.Generator) -> DurationParams:
        m = categorical_sample_logits(rng, np.log(np.maximum(self.weights, 1e-300)))
        return self.components[m].sample_prior(rng)


@dataclass(frozen=True)
class HdpHsmmPriors:
    emission_mix: EmissionMixturePrior
    duration_mix: DurationMixturePrior
    sigma2: float


@dataclass(frozen=True)
class HdpHsmmState:
    hdp: WeakLimitHdp
    theta: np.ndarray
    durations: tuple[DurationParams, ...]
    path: SegmentPath | None = None

    def hsmm_params(self, sigma2: float) -> HsmmParams:
        return HsmmParams(
            pi_bar=pi_bar_from(self.hdp.pi),
            theta=self.theta,
            sigma2=sigma2,
            durations=self.durations,
        )


def init_hdphsmm_state(gamma: float, alpha: float, L: int,
                       priors: HdpHsmmPriors, rng: np.random.Generator) -> HdpHsmmState:
    hdp = sample_hdp_prior(gamma, alpha, L, rng)
    theta = np.array([priors.emission_mix.sample_prior(rng) for _ in range(L)])
    durations = tuple(priors.duration_mix.sample_prior(rng) for _ in range(L))
    return HdpHsmmState(hdp=hdp, theta=theta, durations=durations)


def _sample_theta_mixture(prior: EmissionMixturePrior, theta_j: float, obs: np.ndarray,
                          sigma2: float, rng: np.random.Generator) -> float:
    """Gibbs pair move: component label given the current mean, then the mean
    from that component's conjugate posterior."""
    logits = np.log(np.maximum(prior.weights, 1e-300)) + np.array(
        [normal_logpdf(theta_j, c.mean, c.var) for c in prior.components]
    )
    m = categorical_sample_logits(rng, logits)
    post = conj_update_normal(prior.components[m], obs.sum(), len(obs), sigma2)
    return rng.normal(post.mean, math.sqrt(post.var))


def _beta_logpdf(x, a, b):
    """``scipy.stats.beta._logpdf``, in its order of operations."""
    return xlog1py(b - 1.0, -x) + xlogy(a - 1.0, x) - betaln(a, b)


def duration_label_logits(prior: DurationMixturePrior, cur: DurationParams) -> np.ndarray:
    """Log weight plus the Beta(phi), Gamma(lam) and Beta(vphi) prior log
    densities of ``cur`` under each hyper bundle.

    The densities are ``scipy.stats``' own ``_logpdf`` expressions, Gamma
    at lam / scale minus log(scale) with scale = 1 / b_lam, so the logits
    equal ``scipy.stats.beta.logpdf`` and ``gamma.logpdf`` to the bit.
    """
    a_phi, b_phi, a_lam, b_lam, a_vphi, b_vphi = np.array(
        [(h.a_phi, h.b_phi, h.a_lam, h.b_lam, h.a_vphi, h.b_vphi) for h in prior.components]).T
    scale = 1.0 / b_lam
    x = cur.lam / scale
    return np.log(np.maximum(prior.weights, 1e-300)) + (
        _beta_logpdf(cur.phi, a_phi, b_phi)
        + (xlogy(a_lam - 1.0, x) - x - gammaln(a_lam) - np.log(scale))
        + _beta_logpdf(cur.vphi, a_vphi, b_vphi))


def _sample_duration_mixture(prior: DurationMixturePrior, cur: DurationParams,
                             ds: np.ndarray, rng: np.random.Generator) -> DurationParams:
    """Label given the current parameters (prior density), then the parameter
    pass under the labelled hyper bundle.

    When component r values differ the label density ignores the discrete r
    coordinate, which makes the move approximate; bundles sharing r keep it
    an exact Gibbs pair move.
    """
    m = categorical_sample_logits(rng, duration_label_logits(prior, cur))
    return sample_duration_params(ds, prior.components[m], cur, rng)


def gibbs_sweep_hdphsmm(state: HdpHsmmState, y, priors: HdpHsmmPriors,
                        rng: np.random.Generator, dmax: int | None = None) -> HdpHsmmState:
    """One sweep: blocked segments under the normalized rows, the weak-limit
    prior pass, then per-state emission means and duration parameters from
    their mixture priors."""
    y = np.asarray(y, dtype=float)
    L = state.hdp.L
    params = state.hsmm_params(priors.sigma2)
    path = blocked_sample_segments(params, y, rng, dmax=dmax)

    counts = np.zeros((L, L))
    np.add.at(counts, (path.z[:-1], path.z[1:]), 1.0)
    hdp = hdp_sweep(state.hdp, counts.astype(np.int64), rng)

    x = path.x
    theta = np.array(
        [
            _sample_theta_mixture(priors.emission_mix, state.theta[j], y[x == j],
                                  priors.sigma2, rng)
            for j in range(L)
        ]
    )
    durations = tuple(
        _sample_duration_mixture(priors.duration_mix, state.durations[j],
                                 path.D[path.z == j], rng)
        for j in range(L)
    )
    return HdpHsmmState(hdp=hdp, theta=theta, durations=durations, path=path)
