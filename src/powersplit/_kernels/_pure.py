"""Pure NumPy implementations of the kernels.

The oracle for the compiled ``hsmm_backward``, ``hsmm_forward_sample`` and
``fbpf_accumulate`` in ``kernels.c``, which share these contracts; those
three are served from here when the library is not built or
POWERSPLIT_PURE=1. The chain passes and ``systematic_counts`` have no
compiled version and are always served from here.
"""

from __future__ import annotations

import numpy as np

from ..distributions import categorical_pick_logits

BACKEND = "pure"


def _logsumexp_rows(a, axis):
    m = np.max(a, axis=axis, keepdims=True)
    m_safe = np.where(np.isfinite(m), m, 0.0)
    with np.errstate(divide="ignore"):
        out = np.log(np.sum(np.exp(a - m_safe), axis=axis)) + np.squeeze(m_safe, axis=axis)
    return np.where(np.isfinite(np.squeeze(m, axis=axis)), out, -np.inf)


def hmm_forward(loginit, logtrans, loglik):
    """Log-space forward pass: alphal[t, j] = log p(y[0..t], x_t = j)."""
    T, J = loglik.shape
    alphal = np.empty((T, J))
    alphal[0] = loginit + loglik[0]
    for t in range(1, T):
        alphal[t] = _logsumexp_rows(alphal[t - 1][:, None] + logtrans, axis=0) + loglik[t]
    return alphal


def hmm_backward(logtrans, loglik):
    """Log-space backward pass: betal[t, j] = log p(y[t+1..] | x_t = j)."""
    T, J = loglik.shape
    betal = np.zeros((T, J))
    for t in range(T - 2, -1, -1):
        betal[t] = _logsumexp_rows(logtrans + (betal[t + 1] + loglik[t + 1])[None, :], axis=1)
    return betal


def hsmm_backward(logtrans_bar, logdur, logtail, loglik, dmax):
    """Explicit-duration backward messages.

    B[t, i]     = log p(y[t..] | segment ended after t observations, prev state i)
    Bstar[t, j] = log p(y[t..] | new segment in state j starts at index t)
    with B[T] = 0. ``logdur[j, d-1]`` is log p(D = d), ``logtail[j, m]`` is
    log p(D > m) for m = 0..T, and durations beyond ``dmax`` are rolled into
    the censor term.
    """
    T, J = loglik.shape
    B = np.zeros((T + 1, J))
    Bstar = np.zeros((T, J))
    cum = np.vstack([np.zeros((1, J)), np.cumsum(loglik, axis=0)])  # cum[t] = sum loglik[:t]
    for t in range(T - 1, -1, -1):
        span = min(T - t, dmax)
        # interior durations d = 1..span
        ds = np.arange(1, span + 1)
        seg_lik = cum[t + ds] - cum[t]  # (span, J)
        terms = B[t + ds] + logdur.T[ds - 1] + seg_lik
        # censored continuation past the horizon (or the duration window)
        censor = logtail[:, span] + (cum[T] - cum[t])
        stacked = np.vstack([terms, censor[None, :]])
        Bstar[t] = _logsumexp_rows(stacked, axis=0)
        B[t] = _logsumexp_rows(logtrans_bar + Bstar[t][None, :], axis=1)
    return B, Bstar


def hsmm_forward_sample(loginit, logpibar, B, Bstar, logdur, logtail, cum, window, u):
    """Forward segment draw over the explicit-duration backward messages.

    loginit (J,) scores the first state and logpibar (J, J) each later one.
    B (T + 1, J) and Bstar (T, J) are ``hsmm_backward``'s messages, logdur
    and logtail its duration tables with ``window`` in place of dmax, and cum
    (T + 1, J) the running sums of the emission log-likelihoods, cum[0] = 0.
    Each segment reads two uniforms from ``u``, which holds at least 2 T:
    one picks its state, one its duration d = 1..span, span = min(T - t,
    window), or the censor column, the mass of the durations beyond span.
    Each pick is ``distributions.categorical_pick_logits``.

    Returns (z, D, used, censored): the states and durations as int64
    arrays, the number of uniforms read, and whether the walk ended on a
    censor pick; then D[-1] is that pick's span and the true duration
    exceeds it.
    """
    T = len(Bstar)
    z, D = [], []
    used = 0
    t = 0
    row = loginit
    censored = False
    while t < T:
        j = categorical_pick_logits(row + Bstar[t], u[used])
        span = min(T - t, window)
        ends = slice(t + 1, t + span + 1)  # the segment ends after d = 1..span
        dur_logits = B[ends, j] + logdur[j, :span] + (cum[ends, j] - cum[t, j])
        censor_logit = logtail[j, span] + (cum[T, j] - cum[t, j])
        pick = categorical_pick_logits(np.append(dur_logits, censor_logit), u[used + 1])
        used += 2
        z.append(j)
        if pick == span:
            D.append(span)
            censored = True
            break
        D.append(pick + 1)
        t += pick + 1
        row = logpibar[j]
    return np.array(z, dtype=np.int64), np.array(D, dtype=np.int64), used, censored


def fbpf_accumulate(logtrans_rows, theta_rows, var_chain, joint_idx, ybar):
    """Joint-state enumeration for the factorial filter, one observation.

    logtrans_rows : (N, K, Jmax) per-particle transition log row from its
                    previous state in each chain (padded with -inf)
    theta_rows    : (N, K, Jmax) per-particle emission means
    var_chain     : (K,) per-chain emission variances
    joint_idx     : (M, K) int32 joint-state table; must be
                    ``smc.joint_state_table(Js)``, the row-major product of
                    the chains' states, so M = prod(Js)
    ybar          : aggregate observation

    Returns (logw, sumtheta): both (N, M); logw includes the aggregate
    Normal likelihood with variance sum(var_chain).

    The table is a full product, so both outputs are broadcast outer sums of
    the K per-chain rows, added in chain order k = 0..K-1 with the last chain
    varying fastest. Only the table's last row, (J_0-1, ..., J_{K-1}-1), is
    read; a table that is not a full product raises ``ValueError``. The
    compiled kernel adds in the same order with the same expressions, so
    its outputs are bit-identical.
    """
    N = logtrans_rows.shape[0]
    Js = joint_idx[-1] + 1
    if len(joint_idx) != int(np.prod(Js)):
        raise ValueError("joint_idx must be the full row-major product table")

    def outer_sum(rows):
        # a copy: with one chain the slice would be returned, and the
        # in-place likelihood add below would write into the caller's rows
        acc = rows[:, 0, :Js[0]].copy()
        for k in range(1, len(Js)):
            acc = (acc[:, :, None] + rows[:, k, None, :Js[k]]).reshape(N, -1)
        return acc

    logw = outer_sum(logtrans_rows)
    sumtheta = outer_sum(theta_rows)
    svar = float(var_chain.sum())
    logw += -0.5 * (np.log(2.0 * np.pi * svar) + (ybar - sumtheta) ** 2 / svar)
    return logw, sumtheta


def systematic_counts(weights, u0):
    """Systematic-resampling offspring counts from a normalized weight vector.

    u0 is the single uniform on [0, 1/N); positions u0 + i/N fall into the
    cumulative-weight partition.
    """
    N = len(weights)
    positions = u0 + np.arange(N) / N
    cum = np.cumsum(weights)
    cum[-1] = 1.0  # guard the right edge against rounding
    idx = np.searchsorted(cum, positions, side="right")
    return np.bincount(idx, minlength=N)
