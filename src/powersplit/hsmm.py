"""Explicit-duration HSMM: simulation with right-censoring, the Normal
emission densities, backward messages, blocked super-state/duration draws,
and the duration law, its hyperprior and the one-state duration-parameter
pass that the nonparametric sweep in ``hdp`` uses.

Durations follow a two-component mixture: Poisson (probability ``phi``) or
negative binomial with fixed count ``r`` and success parameter ``vphi``. Both
components are conditioned on d >= 1 so the law is a proper pmf on positive
durations. ``_weighted_logpmfs`` is the one place that density is written,
on top of ``distributions.poisson_logpmf`` and ``negbin_logpmf``; it takes
the parameters of one state or, stacked by ``_stack_durations``, of all
states at once. With ``phi = 0`` and ``r = 1`` the law is exactly
Geometric(1 - vphi) on {1, 2, ...}, which makes the model collapse to a plain
HMM.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import NamedTuple

import numpy as np
from scipy.special import nbdtrc, pdtrc

from . import _kernels
from .distributions import (
    assert_simplex,
    assert_simplex_rows,
    categorical_sample,
    categorical_sample_logits,  # unused here; perfbench/spans.py patches it by this name
    conj_update_beta_negbin,
    conj_update_gamma_poisson,
    negbin_logpmf,
    normal_logpdf,
    poisson_logpmf,
)

# ---------------------------------------------------------------------------
# duration model
# ---------------------------------------------------------------------------


# a duration component that reaches 1 less often than this is drawn by
# inversion, not by rejecting zeros
REJECT_FLOOR = 1e-4


class _DurationStack(NamedTuple):
    """The duration parameters of one or more states, one array per field,
    with each component's log weight and the log of its mass on d >= 1."""

    log_phi: np.ndarray       # log phi, -inf when phi = 0
    log_rest: np.ndarray      # log(1 - phi), -inf when phi = 1
    lam: np.ndarray
    r: np.ndarray
    vphi: np.ndarray
    log_poi_norm: np.ndarray  # log P(Poisson >= 1)
    log_nb_norm: np.ndarray   # log P(NB >= 1) = log(1 - (1-vphi)^r)

    def take(self, index) -> _DurationStack:
        """Every field indexed by ``index``: ``(slice(None), None)`` gives
        (L, 1) columns, a vector of states one entry per segment."""
        return _DurationStack(*(f[index] for f in self))


def _state_logs(dur) -> tuple[float, float, float]:
    """log phi and log(1 - phi), -inf for an empty component, and
    log (1-vphi)^r, with ``math``'s logs."""
    return (math.log(dur.phi) if dur.phi > 0 else -math.inf,
            math.log1p(-dur.phi) if dur.phi < 1 else -math.inf,
            dur.r * math.log1p(-dur.vphi))


def _log_one_minus_exp(x):
    """log(1 - exp(x)) for x < 0, NumPy's on scalars and arrays alike."""
    return np.log(-np.expm1(x))


def _stack_durations(durations) -> _DurationStack:
    """The (L,) parameter arrays of the states ``durations``; each entry is
    the value ``DurationParams._stack`` gives the state alone."""
    log_phi, log_rest, nb_zero = np.array([_state_logs(d) for d in durations],
                                          dtype=float).reshape(-1, 3).T
    lam = np.array([d.lam for d in durations], dtype=float)
    return _DurationStack(
        log_phi=log_phi,
        log_rest=log_rest,
        lam=lam,
        r=np.array([d.r for d in durations], dtype=np.int64),
        vphi=np.array([d.vphi for d in durations], dtype=float),
        log_poi_norm=_log_one_minus_exp(-lam),
        log_nb_norm=_log_one_minus_exp(nb_zero),
    )


def _weighted_logpmfs(p: _DurationStack, d) -> tuple[np.ndarray, np.ndarray]:
    """log phi p_Poi(d | d >= 1) and log (1 - phi) p_NB(d | d >= 1) at
    positive durations d, for parameters ``p`` that broadcast against d;
    their logaddexp is the mixture log pmf."""
    poi = p.log_phi + poisson_logpmf(d, p.lam) - p.log_poi_norm
    nb = p.log_rest + negbin_logpmf(d, p.r, p.vphi) - p.log_nb_norm
    return poi, nb


def _logtail(p: _DurationStack, m) -> np.ndarray:
    """log P(D > m) for m >= 0, for parameters ``p`` that broadcast
    against m."""
    with np.errstate(divide="ignore"):
        poi = p.log_phi + np.log(pdtrc(m, p.lam)) - p.log_poi_norm
        nb = p.log_rest + np.log(nbdtrc(m, p.r, 1.0 - p.vphi)) - p.log_nb_norm
    return np.logaddexp(poi, nb)


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

    def _stack(self) -> _DurationStack:
        """This state's parameters as a ``_DurationStack`` of scalars."""
        log_phi, log_rest, nb_zero = _state_logs(self)
        return _DurationStack(log_phi, log_rest, self.lam, self.r, self.vphi,
                             _log_one_minus_exp(-self.lam), _log_one_minus_exp(nb_zero))

    def weighted_logpmfs(self, d) -> tuple[np.ndarray, np.ndarray]:
        """``_weighted_logpmfs`` for this state."""
        return _weighted_logpmfs(self._stack(), np.asarray(d))

    def logpmf(self, d) -> np.ndarray:
        """log p(D = d) on the positive integers."""
        d = np.asarray(d)
        out = np.full(d.shape, -np.inf, dtype=float)
        pos = d >= 1
        out[pos] = np.logaddexp(*self.weighted_logpmfs(d[pos]))
        return out[()] if out.ndim == 0 else out

    def logtail(self, m) -> np.ndarray:
        """log P(D > m) for m >= 0."""
        return _logtail(self._stack(), np.asarray(m))

    def mean(self) -> float:
        p = self._stack()
        m = 0.0
        if self.phi > 0:
            m += self.phi * self.lam / math.exp(p.log_poi_norm)
        if self.phi < 1:
            nb_mean = self.r * self.vphi / (1.0 - self.vphi)
            m += (1.0 - self.phi) * nb_mean / math.exp(p.log_nb_norm)
        return m

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Draw positive durations: a component pick, then rejection of zeros.

        A component that reaches 1 with probability under ``REJECT_FLOOR``
        would need about its inverse in redraws per length, so its lengths
        come from its zero-truncated law by inversion instead, one uniform
        each.
        """
        p = self._stack()
        use_poi = rng.random(size) < self.phi
        out = np.empty(size, dtype=np.int64)
        for mask, draw, log_norm, phi_alone in (
            (use_poi, lambda n: rng.poisson(self.lam, n), p.log_poi_norm, 1.0),
            (~use_poi, lambda n: rng.negative_binomial(self.r, 1.0 - self.vphi, n),
             p.log_nb_norm, 0.0),
        ):
            idx = np.flatnonzero(mask)
            if log_norm < math.log(REJECT_FLOOR):
                alone = replace(self, phi=phi_alone)
                out[idx] = [_sample_censored_duration(alone, 0, rng) for _ in idx]
                continue
            vals = draw(len(idx))
            bad = vals < 1
            while bad.any():
                vals[bad] = draw(int(bad.sum()))
                bad = vals < 1
            out[idx] = vals
        return out


@lru_cache(maxsize=512)
def _duration_tables_frozen(durations: tuple, dmax: int):
    p = _stack_durations(durations).take((slice(None), None))
    logdur = np.logaddexp(*_weighted_logpmfs(p, np.arange(1, dmax + 1)))
    logtail = _logtail(p, np.arange(0, dmax + 1))
    logdur.setflags(write=False)
    logtail.setflags(write=False)
    return logdur, logtail


def duration_tables(durations, dmax: int):
    """Per-state logpmf (J, dmax) and logtail (J, dmax+1) tables, built for
    all states in one pass over (J, dmax).

    Memoized on the (hashable) parameter tuples: the segment draw of a sweep
    reuses the tables its message pass built. The cached arrays themselves
    are returned, so they are read-only; writing to one raises.
    """
    return _duration_tables_frozen(tuple(durations), int(dmax))


def poisson_label_probs(durations, D, z) -> np.ndarray:
    """P(Poisson component | length) of each segment length ``D[i]`` under
    the current parameters of its state ``durations[z[i]]``, all segments
    in one pass."""
    lp1, lp2 = _weighted_logpmfs(_stack_durations(durations).take(np.asarray(z)),
                                np.asarray(D, dtype=np.int64))
    m0 = np.maximum(lp1, lp2)
    p1 = np.exp(lp1 - m0)
    return p1 / (p1 + np.exp(lp2 - m0))


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
            assert_simplex_rows(pi)
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
            init = assert_simplex(np.asarray(init, dtype=float))
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


def emission_loglik(params, y) -> np.ndarray:
    """(T, J) Normal log-densities of each reading under each state's mean;
    ``params`` is any model with per-state ``theta`` and a shared
    ``sigma2``."""
    y = np.asarray(y, dtype=float)
    return normal_logpdf(y[:, None], params.theta[None, :], params.sigma2)


def _log(a):
    with np.errstate(divide="ignore"):
        return np.log(a)


def _series(params: HsmmParams, y, dmax: int | None):
    """One series' inputs to the segment passes, (window, loglik, logdur,
    logtail, cum): the duration window min(dmax, T), T when dmax is None;
    the (T, J) emission log-likelihoods; ``duration_tables`` over the
    window; and the (T + 1, J) running sums of loglik, cum[0] = 0."""
    y = np.asarray(y, dtype=float)
    T = len(y)
    if T == 0:
        raise ValueError("need at least one observation")
    window = T if dmax is None else min(dmax, T)
    loglik = emission_loglik(params, y)
    logdur, logtail = duration_tables(params.durations, window)
    cum = np.vstack([np.zeros((1, params.J)), np.cumsum(loglik, axis=0)])
    return window, loglik, logdur, logtail, cum


def hsmm_backward_messages(params: HsmmParams, y, dmax: int | None = None):
    """(B, Bstar) log-space tables; B has T+1 rows with B[T] = 0.

    ``dmax`` truncates the duration window; longer durations are folded into
    the censor term (exact when dmax >= T).
    """
    window, loglik, logdur, logtail, _ = _series(params, y, dmax)
    return _kernels.hsmm_backward(_log(params.pi_bar), logdur, logtail, loglik, window)


def _sample_censored_duration(dur: DurationParams, m: int, rng: np.random.Generator) -> int:
    """Draw from p(D = d | D > m) by inverting the cdf in growing blocks."""
    target = rng.random() * math.exp(float(dur.logtail(m)))
    acc = 0.0
    d = m
    n = 32
    while d <= m + 1_000_000:
        cum = acc + np.cumsum(np.exp(dur.logpmf(np.arange(d + 1, d + 1 + n))))
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
    window, loglik, logdur, logtail, cum = _series(params, y, dmax)
    T = len(loglik)
    if messages is None:
        messages = hsmm_backward_messages(params, y, dmax)
    B, Bstar = messages
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
        # the generator's arguments are positive: __post_init__ checked them
        return DurationParams(
            phi=rng.beta(self.a_phi, self.b_phi),
            lam=rng.gamma(self.a_lam, 1.0 / self.b_lam),
            r=self.r,
            vphi=rng.beta(self.a_vphi, self.b_vphi),
        )


def sample_duration_params(ds, p_poisson, hyper: DurationHyper,
                           rng: np.random.Generator) -> DurationParams:
    """One mixture-Gibbs pass for one state's duration parameters.

    Labels each observed segment length in ``ds`` Poisson with its
    probability in ``p_poisson`` (``poisson_label_probs`` under the current
    parameters), then draws the conjugate updates; with no segments this is
    a fresh prior draw. The draws' arguments are ``hyper``'s positive
    values plus counts and sums, so they need no further check.
    """
    ds = np.asarray(ds, dtype=np.int64)
    if len(ds) == 0:
        return hyper.sample_prior(rng)
    is_poi = rng.random(len(ds)) < p_poisson
    n1 = int(np.count_nonzero(is_poi))
    n2 = len(ds) - n1
    s1 = int(ds[is_poi].sum())
    s2 = int(ds.sum()) - s1
    a, b = conj_update_gamma_poisson((hyper.a_lam, hyper.b_lam), s1, n1)
    lam = rng.gamma(a, 1.0 / b)
    a, b = conj_update_beta_negbin((hyper.a_vphi, hyper.b_vphi), s2, n2, hyper.r)
    vphi = rng.beta(a, b)
    phi = rng.beta(hyper.a_phi + n1, hyper.b_phi + n2)
    return DurationParams(phi=phi, lam=lam, r=hyper.r, vphi=vphi)
