"""Per-state reference of one HDP-HSMM sweep.

The shipped sweep computes every deterministic per-state quantity in one
pass over the L states and makes one generator call per kind where the
draws are contiguous. This module keeps the loop form it replaced: the
weak-limit pass one state and one cell at a time (``sample_rho`` and
``sample_m`` per cell, one Dirichlet draw per row), the conjugate emission-mean
and duration moves one state at a time, the one-state duration-parameter pass
and the duration-table builder that stacks one state's tables at a time.
The tests require the shipped sweep to return the same arrays bit for bit
and to leave the generator where this one leaves it. The Stirling numbers
of the first kind give ``antoniak_pmf``, the exact table-count law that
the per-cell draw ``sample_m`` is checked against. Importing this module
builds nothing and has no side effects.
"""

import math
from dataclasses import replace
from functools import lru_cache

import numpy as np
from scipy.special import nbdtrc, pdtrc

from powersplit.distributions import (
    conj_update_beta_negbin,
    conj_update_gamma_poisson,
    conj_update_normal,
    dirichlet_sample,
    negbin_logpmf,
    poisson_logpmf,
)
from powersplit.hdp import HdpHsmmState, sample_beta_posterior
from powersplit.hsmm import DurationParams, blocked_sample_segments

# ---------------------------------------------------------------------------
# the checked generator calls and the prior draw
# ---------------------------------------------------------------------------


def beta_sample(rng, a, b):
    if np.any(np.asarray(a) <= 0) or np.any(np.asarray(b) <= 0):
        raise ValueError("beta parameters must be positive")
    return rng.beta(a, b)


def gamma_sample(rng, shape, rate):
    if np.any(np.asarray(shape) <= 0) or np.any(np.asarray(rate) <= 0):
        raise ValueError("gamma parameters must be positive")
    return rng.gamma(shape, 1.0 / np.asarray(rate, dtype=float))


def sample_prior(hyper, rng):
    return DurationParams(
        phi=beta_sample(rng, hyper.a_phi, hyper.b_phi),
        lam=gamma_sample(rng, hyper.a_lam, hyper.b_lam),
        r=hyper.r,
        vphi=beta_sample(rng, hyper.a_vphi, hyper.b_vphi),
    )


# ---------------------------------------------------------------------------
# one state's duration density and tables
# ---------------------------------------------------------------------------


def _log_weights(dur):
    return (math.log(dur.phi) if dur.phi > 0 else -math.inf,
            math.log1p(-dur.phi) if dur.phi < 1 else -math.inf)


def _log_poi_norm(dur):
    return float(np.log(-np.expm1(-dur.lam)))


def _log_nb_norm(dur):
    return float(np.log(-np.expm1(dur.r * math.log1p(-dur.vphi))))


def weighted_logpmfs(dur, d):
    d = np.asarray(d)
    log_phi, log_rest = _log_weights(dur)
    poi = log_phi + poisson_logpmf(d, dur.lam) - _log_poi_norm(dur)
    nb = log_rest + negbin_logpmf(d, dur.r, dur.vphi) - _log_nb_norm(dur)
    return poi, nb


def logpmf(dur, d):
    d = np.asarray(d)
    out = np.full(d.shape, -np.inf, dtype=float)
    pos = d >= 1
    out[pos] = np.logaddexp(*weighted_logpmfs(dur, d[pos]))
    return out


def logtail(dur, m):
    m = np.asarray(m)
    log_phi, log_rest = _log_weights(dur)
    with np.errstate(divide="ignore"):
        poi = log_phi + np.log(pdtrc(m, dur.lam)) - _log_poi_norm(dur)
        nb = log_rest + np.log(nbdtrc(m, dur.r, 1.0 - dur.vphi)) - _log_nb_norm(dur)
    return np.logaddexp(poi, nb)


def duration_tables(durations, dmax):
    """(J, dmax) logpmf and (J, dmax + 1) logtail, one state at a time."""
    ds = np.arange(1, dmax + 1)
    ms = np.arange(0, dmax + 1)
    return (np.stack([logpmf(d, ds) for d in durations]),
            np.stack([logtail(d, ms) for d in durations]))


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
    """Table-count draw(s) via the Bernoulli product: sum of Ber(w/(w+i)).

    The shipped ``hdp_sweep`` draws every cell's count at once, with the
    same uniforms and the same comparisons as one call per cell."""
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
# the per-state self-loop draw
# ---------------------------------------------------------------------------


def sample_rho(pi_jj: float, count: int, rng: np.random.Generator,
               cap: int | None = None) -> np.ndarray:
    """Per-transition self-loop auxiliaries: iid Geometric on {0, 1, ...}
    with success probability 1 - pi_jj.

    ``cap`` truncates the support at {0..cap} (renormalized); used by the
    enumerable-instance stationarity check, never in production sweeps.
    The shipped ``hdp_sweep`` draws every state's auxiliaries at once, with
    the same uniforms and the same inverse cdf as one call per state.
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


# ---------------------------------------------------------------------------
# the weak-limit pass, one state and one cell at a time
# ---------------------------------------------------------------------------


def hdp_sweep(hdp, trans_counts, rng, rho_cap=None):
    L = hdp.L
    n = np.asarray(trans_counts, dtype=np.int64)
    if n.shape != (L, L):
        raise ValueError("trans_counts must be (L, L)")
    if np.any(np.diag(n) != 0):
        raise ValueError("observed transitions cannot be self-loops")

    n_aug = n.astype(float).copy()
    for j in range(L):
        out_count = int(n[j].sum())
        pjj = float(hdp.pi[j, j])
        if pjj >= 1.0 - 1e-12 and out_count > 0:
            raise ValueError("self-transition probability saturated at 1")
        rho = sample_rho(min(pjj, 1.0 - 1e-12), out_count, rng, cap=rho_cap)
        n_aug[j, j] = rho.sum()

    m = np.zeros((L, L))
    for k in range(L):
        for j in range(L):
            m[k, j] = sample_m(int(n_aug[k, j]), hdp.alpha * hdp.beta[j], rng)

    beta = sample_beta_posterior(m, hdp.gamma, L, rng)
    pi = np.vstack([dirichlet_sample(rng, hdp.alpha * beta + n_aug[j]) for j in range(L)])
    return replace(hdp, beta=beta, pi=pi)


# ---------------------------------------------------------------------------
# emission-mean and duration moves, one state at a time
# ---------------------------------------------------------------------------


def sample_duration_params(durations, hyper, current, rng):
    ds = np.asarray(durations, dtype=np.int64)
    if len(ds) == 0:
        return sample_prior(hyper, rng)
    lp1, lp2 = weighted_logpmfs(current, ds)
    m0 = np.maximum(lp1, lp2)
    p1 = np.exp(lp1 - m0)
    p1 = p1 / (p1 + np.exp(lp2 - m0))
    is_poi = rng.random(len(ds)) < p1

    n1, n2 = int(is_poi.sum()), int((~is_poi).sum())
    s1, s2 = int(ds[is_poi].sum()), int(ds[~is_poi].sum())
    a, b = conj_update_gamma_poisson((hyper.a_lam, hyper.b_lam), s1, n1)
    lam = gamma_sample(rng, a, b)
    a, b = conj_update_beta_negbin((hyper.a_vphi, hyper.b_vphi), s2, n2, hyper.r)
    vphi = beta_sample(rng, a, b)
    phi = beta_sample(rng, hyper.a_phi + n1, hyper.b_phi + n2)
    return DurationParams(phi=phi, lam=lam, r=hyper.r, vphi=vphi)


def gibbs_sweep_hdphsmm(state, y, priors, rng, dmax=None):
    """The sweep with the per-state pieces above; the segment draw is the
    shipped one."""
    y = np.asarray(y, dtype=float)
    L = state.hdp.L
    params = state.hsmm_params(priors.sigma2)
    path = blocked_sample_segments(params, y, rng, dmax=dmax)

    counts = np.zeros((L, L))
    np.add.at(counts, (path.z[:-1], path.z[1:]), 1.0)
    hdp = hdp_sweep(state.hdp, counts.astype(np.int64), rng)

    x = path.x
    theta = np.empty(L)
    for j in range(L):
        obs = y[x == j]
        post = conj_update_normal(priors.emission, obs.sum(), len(obs), priors.sigma2)
        theta[j] = rng.normal(post.mean, math.sqrt(post.var))
    durations = tuple(
        sample_duration_params(path.D[path.z == j], priors.duration, state.durations[j], rng)
        for j in range(L)
    )
    return HdpHsmmState(hdp=hdp, theta=theta, durations=durations, path=path)
