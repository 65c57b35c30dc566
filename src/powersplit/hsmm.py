"""Explicit-duration HSMM: simulation with right-censoring, forward and
backward messages, blocked super-state/duration draws, and the
duration-parameter sampler that the nonparametric sweep in ``hdp`` calls.

Durations follow a two-component mixture: Poisson (probability ``phi``) or
negative binomial with fixed count ``r`` and success parameter ``vphi``. Both
components are conditioned on d >= 1 so the law is a proper pmf on positive
durations; ``DurationParams.weighted_logpmfs`` is the one place that density
is written, on top of ``distributions.poisson_logpmf`` and ``negbin_logpmf``. With ``phi = 0`` and ``r = 1`` the law is exactly
Geometric(1 - vphi) on {1, 2, ...}, which makes the model collapse to a plain
HMM.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import logsumexp, nbdtrc, pdtrc

from . import _kernels
from .distributions import (
    assert_simplex,
    beta_sample,
    categorical_sample,
    categorical_sample_logits,  # unused here; perfbench/spans.py patches it by this name
    conj_update_beta_negbin,
    conj_update_gamma_poisson,
    gamma_sample,
    negbin_logpmf,
    normal_logpdf,
    poisson_logpmf,
)

# ---------------------------------------------------------------------------
# duration model
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DurationParams:
    """Poisson/negative-binomial duration mixture for one state."""

    phi: float   # Poisson component weight
    lam: float   # Poisson rate
    r: int       # negative-binomial count (fixed, no prior)
    vphi: float  # negative-binomial success parameter

    def __post_init__(self):
        if not 0 <= self.phi <= 1:
            raise ValueError("phi must lie in [0, 1]")
        if self.lam <= 0:
            raise ValueError("lam must be positive")
        if self.r < 1:
            raise ValueError("r must be >= 1")
        if not 0 < self.vphi < 1:
            raise ValueError("vphi must lie in (0, 1)")

    # normalizers for conditioning each component on d >= 1
    @property
    def _log_poi_norm(self) -> float:
        # log P(Poisson >= 1)
        return float(np.log(-np.expm1(-self.lam)))

    @property
    def _log_nb_norm(self) -> float:
        # log P(NB >= 1) = log(1 - (1-vphi)^r)
        return float(np.log(-np.expm1(self.r * math.log1p(-self.vphi))))

    def _log_weights(self) -> tuple[float, float]:
        """(log phi, log(1 - phi)), -inf for an empty component."""
        return (math.log(self.phi) if self.phi > 0 else -math.inf,
                math.log1p(-self.phi) if self.phi < 1 else -math.inf)

    def weighted_logpmfs(self, d) -> tuple[np.ndarray, np.ndarray]:
        """log phi p_Poi(d | d >= 1) and log (1 - phi) p_NB(d | d >= 1) at
        positive durations d; their logaddexp is the mixture log pmf."""
        d = np.asarray(d)
        log_phi, log_rest = self._log_weights()
        poi = log_phi + poisson_logpmf(d, self.lam) - self._log_poi_norm
        nb = log_rest + negbin_logpmf(d, self.r, self.vphi) - self._log_nb_norm
        return poi, nb

    def logpmf(self, d) -> np.ndarray:
        """log p(D = d) on the positive integers."""
        d = np.asarray(d)
        out = np.full(d.shape, -np.inf, dtype=float)
        pos = d >= 1
        out[pos] = np.logaddexp(*self.weighted_logpmfs(d[pos]))
        return out[()] if out.ndim == 0 else out

    def logtail(self, m) -> np.ndarray:
        """log P(D > m) for m >= 0."""
        m = np.asarray(m)
        log_phi, log_rest = self._log_weights()
        with np.errstate(divide="ignore"):
            poi = log_phi + np.log(pdtrc(m, self.lam)) - self._log_poi_norm
            nb = (log_rest + np.log(nbdtrc(m, self.r, 1.0 - self.vphi))
                  - self._log_nb_norm)
        return np.logaddexp(poi, nb)

    def mean(self) -> float:
        m = 0.0
        if self.phi > 0:
            m += self.phi * self.lam / math.exp(self._log_poi_norm)
        if self.phi < 1:
            nb_mean = self.r * self.vphi / (1.0 - self.vphi)
            m += (1.0 - self.phi) * nb_mean / math.exp(self._log_nb_norm)
        return m

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Draw positive durations (component pick, then rejection of zeros)."""
        use_poi = rng.random(size) < self.phi
        out = np.empty(size, dtype=np.int64)
        for mask, draw in (
            (use_poi, lambda n: rng.poisson(self.lam, n)),
            (~use_poi, lambda n: rng.negative_binomial(self.r, 1.0 - self.vphi, n)),
        ):
            idx = np.flatnonzero(mask)
            vals = draw(len(idx))
            bad = vals < 1
            while bad.any():
                vals[bad] = draw(int(bad.sum()))
                bad = vals < 1
            out[idx] = vals
        return out


@lru_cache(maxsize=512)
def _duration_tables_frozen(durations: tuple, dmax: int):
    ds = np.arange(1, dmax + 1)
    ms = np.arange(0, dmax + 1)
    logdur = np.stack([d.logpmf(ds) for d in durations])
    logtail = np.stack([d.logtail(ms) for d in durations])
    logdur.setflags(write=False)
    logtail.setflags(write=False)
    return logdur, logtail


def duration_tables(durations, dmax: int):
    """Stack per-state logpmf (J, dmax) and logtail (J, dmax+1) tables.

    Memoized on the (hashable) parameter tuples; repeated draws at fixed
    parameters skip the scipy survival/pmf evaluations. Callers get fresh
    copies so the cache entries stay pristine.
    """
    logdur, logtail = _duration_tables_frozen(tuple(durations), int(dmax))
    return logdur.copy(), logtail.copy()


# ---------------------------------------------------------------------------
# model types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HsmmParams:
    """Super-state transition rows (zero diagonal), emissions, durations."""

    pi_bar: np.ndarray                 # (J, J), exact zeros on the diagonal
    theta: np.ndarray                  # (J,)
    sigma2: float
    durations: tuple[DurationParams, ...]
    init: np.ndarray | None = None

    def __post_init__(self):
        pi = np.asarray(self.pi_bar, dtype=float)
        theta = np.asarray(self.theta, dtype=float)
        J = pi.shape[0]
        if pi.shape != (J, J):
            raise ValueError("pi_bar must be square")
        if np.any(np.diag(pi) != 0.0):
            raise ValueError("pi_bar diagonal must be exactly zero")
        if J > 1:
            for row in pi:
                assert_simplex(row, atol=1e-9)
        if theta.shape != (J,) or len(self.durations) != J:
            raise ValueError("theta/durations length must match state count")
        if self.sigma2 <= 0:
            raise ValueError("sigma2 must be positive")
        object.__setattr__(self, "pi_bar", pi)
        object.__setattr__(self, "theta", theta)
        init = self.init
        if init is None:
            init = np.full(J, 1.0 / J)
        else:
            init = assert_simplex(np.asarray(init, dtype=float), atol=1e-9)
        object.__setattr__(self, "init", init)

    @property
    def J(self) -> int:
        return self.pi_bar.shape[0]


@dataclass(frozen=True)
class SegmentPath:
    """Super-states z, their durations D, and the horizon T they cover.

    Right-censoring: the final duration may overrun T; the expanded state
    sequence is truncated at T.
    """

    z: np.ndarray
    D: np.ndarray
    T: int

    def __post_init__(self):
        z = np.asarray(self.z, dtype=np.int64)
        D = np.asarray(self.D, dtype=np.int64)
        if z.shape != D.shape or z.ndim != 1 or len(z) == 0:
            raise ValueError("z and D must be matching nonempty vectors")
        if np.any(D < 1):
            raise ValueError("durations must be positive")
        if np.any(z[1:] == z[:-1]):
            raise ValueError("super-states may not self-transition")
        total = int(D.sum())
        if not (total - D[-1] < self.T <= total):
            raise ValueError("durations must right-censor the horizon")
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "D", D)

    @property
    def x(self) -> np.ndarray:
        """Expanded per-step state sequence of length T."""
        return np.repeat(self.z, self.D)[: self.T]

    @property
    def starts(self) -> np.ndarray:
        return np.concatenate([[0], np.cumsum(self.D)[:-1]])


def simulate_hsmm(params: HsmmParams, T: int, rng: np.random.Generator):
    """Simulate a right-censored segment path and clamped Normal emissions."""
    if T < 1:
        raise ValueError("T must be >= 1")
    z: list[int] = []
    D: list[int] = []
    covered = 0
    while covered < T:
        if not z:
            nxt = categorical_sample(rng, params.init)
        else:
            nxt = categorical_sample(rng, params.pi_bar[z[-1]])
        d = int(params.durations[nxt].sample(rng, 1)[0])
        z.append(nxt)
        D.append(d)
        covered += d
    path = SegmentPath(np.array(z), np.array(D), T)
    y = params.theta[path.x] + np.sqrt(params.sigma2) * rng.standard_normal(T)
    return path, np.maximum(y, 0.0)


def emission_loglik(params: HsmmParams, y) -> np.ndarray:
    y = np.asarray(y, dtype=float)
    return normal_logpdf(y[:, None], params.theta[None, :], params.sigma2)


def _log(a):
    with np.errstate(divide="ignore"):
        return np.log(a)


def hsmm_backward_messages(params: HsmmParams, y, dmax: int | None = None):
    """(B, Bstar) log-space tables; B has T+1 rows with B[T] = 0.

    ``dmax`` truncates the duration window; longer durations are folded into
    the censor term (exact when dmax >= T).
    """
    y = np.asarray(y, dtype=float)
    T = len(y)
    if T == 0:
        raise ValueError("need at least one observation")
    window = T if dmax is None else min(dmax, T)
    loglik = emission_loglik(params, y)
    logdur, logtail = duration_tables(params.durations, window)
    return _kernels.hsmm_backward(_log(params.pi_bar), logdur, logtail, loglik, window)


def hsmm_loglik(params: HsmmParams, y, dmax: int | None = None) -> float:
    _, Bstar = hsmm_backward_messages(params, y, dmax)
    return float(logsumexp(_log(params.init) + Bstar[0]))


def hsmm_forward_messages(params: HsmmParams, y, dmax: int | None = None):
    """(A, Astar): A[t, j] = log p(y[0..t-1], segment ends after t, state j),
    Astar[t, j] = log p(y[0..t-1], next segment starts at t in state j)."""
    y = np.asarray(y, dtype=float)
    T = len(y)
    window = T if dmax is None else min(dmax, T)
    loglik = emission_loglik(params, y)
    logdur, _ = duration_tables(params.durations, window)
    cum = np.vstack([np.zeros((1, params.J)), np.cumsum(loglik, axis=0)])
    A = np.full((T + 1, params.J), -np.inf)
    Astar = np.full((T + 1, params.J), -np.inf)
    Astar[0] = _log(params.init)
    logpibar = _log(params.pi_bar)
    for t in range(1, T + 1):
        dspan = min(t, window)
        ds = np.arange(1, dspan + 1)
        terms = Astar[t - ds] + logdur.T[ds - 1] + (cum[t] - cum[t - ds])
        A[t] = logsumexp(terms, axis=0)
        Astar[t] = logsumexp(A[t][:, None] + logpibar, axis=0)
    return A, Astar


def hsmm_smoothed_marginals(params: HsmmParams, y, dmax: int | None = None) -> np.ndarray:
    """Exact per-step state occupancy posterior p(x_t = j | y), (T, J).

    Quadratic in T: sums the posterior weight of every candidate segment.
    """
    y = np.asarray(y, dtype=float)
    T = len(y)
    window = T if dmax is None else min(dmax, T)
    loglik = emission_loglik(params, y)
    logdur, logtail = duration_tables(params.durations, window)
    cum = np.vstack([np.zeros((1, params.J)), np.cumsum(loglik, axis=0)])
    B, Bstar = hsmm_backward_messages(params, y, dmax)
    _, Astar = hsmm_forward_messages(params, y, dmax)
    logZ = logsumexp(Astar[0] + Bstar[0])

    occ = np.zeros((T, params.J))
    for a in range(T):
        span = min(T - a, window)
        ds = np.arange(1, span + 1)
        # interior segments [a, a+d): step a+i is covered by every d >= i+1
        w = np.exp(Astar[a] + logdur.T[ds - 1] + (cum[a + ds] - cum[a]) + B[a + ds] - logZ)
        occ[a : a + span] += np.cumsum(w[::-1], axis=0)[::-1]
        # censored final segment starting at a covers a..T-1
        wc = np.exp(Astar[a] + logtail[:, span] + (cum[T] - cum[a]) - logZ)
        occ[a:] += wc
    return occ


@lru_cache(maxsize=4096)
def _tail_scalar(dur: DurationParams, m: int) -> float:
    return math.exp(float(dur.logtail(m)))


@lru_cache(maxsize=4096)
def _pmf_block(dur: DurationParams, start: int, n: int) -> np.ndarray:
    vals = np.exp(dur.logpmf(np.arange(start, start + n)))
    vals.setflags(write=False)
    return vals


def _sample_censored_duration(dur: DurationParams, m: int, rng: np.random.Generator) -> int:
    """Draw from p(D = d | D > m) by inverting the cdf in growing blocks."""
    target = rng.random() * _tail_scalar(dur, m)
    acc = 0.0
    d = m
    n = 32
    while d <= m + 1_000_000:
        cum = acc + np.cumsum(_pmf_block(dur, d + 1, n))
        hit = int(np.searchsorted(cum, target))
        if hit < n:
            return d + 1 + hit
        acc = float(cum[-1])
        d += n
        n = min(2 * n, 4096)
    return d


def blocked_sample_segments(params: HsmmParams, y, rng: np.random.Generator,
                            messages=None, dmax: int | None = None) -> SegmentPath:
    """One exact joint draw of (z, D) given the observations.

    ``_kernels.hsmm_forward_sample`` walks the segments on a block of
    uniforms drawn ahead. ``rng`` is then rewound and moves on by the
    uniforms the walk read, so it ends where one ``rng.random()`` per draw
    would leave it. A pick of the censor column stops the walk: the length
    comes from the censored conditional, and when the window is shorter
    than what is left, a segment may still end inside the horizon, so the
    walk resumes after it.
    """
    y = np.asarray(y, dtype=float)
    T = len(y)
    window = T if dmax is None else min(dmax, T)
    if messages is None:
        messages = hsmm_backward_messages(params, y, dmax)
    B, Bstar = messages
    loglik = emission_loglik(params, y)
    logdur, logtail = duration_tables(params.durations, window)
    cum = np.vstack([np.zeros((1, params.J)), np.cumsum(loglik, axis=0)])
    logpibar = _log(params.pi_bar)

    head = _log(params.init)
    zs, Ds = [], []
    t = 0
    while t < T:
        saved = rng.bit_generator.state
        z, D, used, censored = _kernels.hsmm_forward_sample(
            head, logpibar, B[t:], Bstar[t:], logdur, logtail, cum[t:], window,
            rng.random(2 * (T - t)))
        rng.bit_generator.state = saved
        rng.random(used)
        zs.append(z)
        Ds.append(D)
        if not censored:
            break  # the walk ended exactly at the horizon
        # the segment runs past the window: draw its actual length
        j = int(z[-1])
        D[-1] = _sample_censored_duration(params.durations[j], int(D[-1]), rng)
        t += int(D.sum())
        head = logpibar[j]
    return SegmentPath(np.concatenate(zs), np.concatenate(Ds), T)


# ---------------------------------------------------------------------------
# duration-parameter sampler
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DurationHyper:
    """Hyperparameters for one state's duration mixture."""

    a_phi: float = 1.0    # Beta for the Poisson-vs-negbin weight
    b_phi: float = 1.0
    a_lam: float = 2.0    # Gamma (shape, rate) for the Poisson rate
    b_lam: float = 0.1
    a_vphi: float = 1.0   # Beta for the negbin success parameter
    b_vphi: float = 1.0
    r: int = 2            # fixed negbin count

    def __post_init__(self):
        for v in (self.a_phi, self.b_phi, self.a_lam, self.b_lam, self.a_vphi, self.b_vphi):
            if v <= 0:
                raise ValueError("hyperparameters must be positive")
        if self.r < 1:
            raise ValueError("r must be >= 1")

    def sample_prior(self, rng: np.random.Generator) -> DurationParams:
        return DurationParams(
            phi=beta_sample(rng, self.a_phi, self.b_phi),
            lam=gamma_sample(rng, self.a_lam, self.b_lam),
            r=self.r,
            vphi=beta_sample(rng, self.a_vphi, self.b_vphi),
        )


def sample_duration_params(durations, hyper: DurationHyper, current: DurationParams,
                           rng: np.random.Generator) -> DurationParams:
    """One mixture-Gibbs pass for one state's duration parameters.

    Labels the observed segment lengths Poisson-vs-negbin under the current
    parameters, then draws the conjugate updates; with no segments this is a
    fresh prior draw.
    """
    ds = np.asarray(durations, dtype=np.int64)
    if len(ds) == 0:
        return hyper.sample_prior(rng)
    lp1, lp2 = current.weighted_logpmfs(ds)
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
