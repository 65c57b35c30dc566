"""Reference pieces for the segment-model kernel and segment-draw tests,
and the segment model's likelihood and smoothing marginals.

``hsmm_backward_scalar_reference`` is the compiled backward pass as scalar
Python in the kernel's own order: each term, then its log-sum-exp as the
max, the sum in index order of the exponentials that do not underflow, and
the log. ``math.exp`` and ``math.log`` call the libm the compiled kernel
calls, so the two agree bit for bit.

``blocked_sample_segments_loop_reference`` is the blocked (z, D) draw as a
Python loop that calls ``rng.random()`` once per categorical draw; the
shipped sampler, which walks a pre-drawn block in
``_kernels.hsmm_forward_sample``, must return the same paths and leave the
generator in the same state.

``hsmm_loglik`` and ``hsmm_smoothed_marginals`` are the evidence and the
exact per-step occupancy posterior, over the shipped backward messages and
a forward pass; the criteria check them against segmentation enumeration
and against the chain the model collapses to. Importing this module builds
nothing and has no side effects.
"""

import math

import numpy as np
from scipy.special import logsumexp

from powersplit import _kernels
from powersplit.distributions import categorical_sample_logits
from powersplit.hsmm import (
    HsmmParams,
    SegmentPath,
    _log,
    _sample_censored_duration,
    _series,
    duration_tables,
    emission_loglik,
    hsmm_backward_messages,
)

# below this, exp() rounds to +0, and the kernel skips the term
EXP_UNDERFLOW = -746.0


def _logsumexp_kernel_order(terms):
    m = -math.inf
    for x in terms:
        if x > m:
            m = x
    if m == -math.inf:
        return -math.inf
    s = 0.0
    for x in terms:
        d = x - m
        if not d < EXP_UNDERFLOW:
            s += math.exp(d)
    return math.log(s) + m


def hsmm_backward_scalar_reference(logtrans_bar, logdur, logtail, loglik, dmax):
    """(B, Bstar) of the compiled ``hsmm_backward``, one scalar at a time."""
    T, J = loglik.shape
    logtrans_bar, logdur, logtail = (np.asarray(a).tolist()
                                     for a in (logtrans_bar, logdur, logtail))
    cum = [[0.0] * J]
    for row in loglik.tolist():
        cum.append([c + x for c, x in zip(cum[-1], row)])
    B = [[0.0] * J for _ in range(T + 1)]
    Bstar = [[0.0] * J for _ in range(T)]
    for t in range(T - 1, -1, -1):
        span = min(T - t, dmax)
        for j in range(J):
            terms = [(B[t + d][j] + logdur[j][d - 1]) + (cum[t + d][j] - cum[t][j])
                     for d in range(1, span + 1)]
            terms.append(logtail[j][span] + (cum[T][j] - cum[t][j]))
            Bstar[t][j] = _logsumexp_kernel_order(terms)
        for i in range(J):
            B[t][i] = _logsumexp_kernel_order(
                [logtrans_bar[i][j] + Bstar[t][j] for j in range(J)])
    return np.array(B), np.array(Bstar).reshape(T, J)


def blocked_sample_segments_loop_reference(params, y, rng, messages=None, dmax=None):
    """The blocked segment draw, one ``categorical_sample_logits`` call per
    state and per duration."""
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

    z: list[int] = []
    D: list[int] = []
    t = 0
    while t < T:
        if not z:
            j = categorical_sample_logits(rng, _log(params.init) + Bstar[0])
        else:
            j = categorical_sample_logits(rng, logpibar[z[-1]] + Bstar[t])
        span = min(T - t, window)
        ds = np.arange(1, span + 1)
        dur_logits = B[t + ds, j] + logdur[j, ds - 1] + (cum[t + ds, j] - cum[t, j])
        censor_logit = logtail[j, span] + (cum[T, j] - cum[t, j])
        pick = categorical_sample_logits(rng, np.append(dur_logits, censor_logit))
        if pick < span:
            d = int(ds[pick])
        else:
            d = _sample_censored_duration(params.durations[j], span, rng)
        z.append(j)
        D.append(d)
        t += d
    return SegmentPath(np.array(z), np.array(D), T)


def hsmm_loglik(params: HsmmParams, y, dmax: int | None = None) -> float:
    _, Bstar = hsmm_backward_messages(params, y, dmax)
    return float(logsumexp(_log(params.init) + Bstar[0]))


def _forward(params: HsmmParams, window, logdur, cum):
    """(A, Astar): A[t, j] = log p(y[0..t-1], segment ends after t, state j),
    Astar[t, j] = log p(y[0..t-1], next segment starts at t in state j)."""
    T = len(cum) - 1
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
    window, loglik, logdur, logtail, cum = _series(params, y, dmax)
    T = len(loglik)
    B, Bstar = _kernels.hsmm_backward(_log(params.pi_bar), logdur, logtail, loglik, window)
    _, Astar = _forward(params, window, logdur, cum)
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
