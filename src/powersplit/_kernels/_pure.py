"""Pure NumPy implementations of the kernels.

The oracle for every compiled kernel in ``kernels.c``: ``hsmm_backward``,
``hsmm_forward_sample`` and the filter step's passes ``fbpf_accumulate``,
``fbpf_total`` and ``fbpf_advance``, which share these contracts; they are
served from here when the library is not built or POWERSPLIT_PURE=1.
``systematic_counts`` has no compiled version and is always served from
here. ``conjugate_posterior`` is not a served kernel: the advance draws
theta with it, and ``FactorialBpf`` draws its prior theta with it.

The filter passes take particles stacked house after house, N to a house,
and draw nothing: the step hands them its uniforms and normals.
"""

from __future__ import annotations

import numpy as np

from ..distributions import categorical_pick_logits, categorical_rows_pick, logsumexp_axis

BACKEND = "pure"

# predictive lanes this far below their row's maximum weigh under 1e-304 of
# it: they cannot move a row total >= 1 and no uniform lands in them, so the
# accumulate makes them NaN, whose exp NumPy takes at full speed, unlike the
# exp of a deep negative, and ``fbpf_total`` zeroes them; ``_compiled``
# holds the same constant
EXP_FLOOR = -700.0


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
        Bstar[t] = logsumexp_axis(stacked, axis=0)
        B[t] = logsumexp_axis(logtrans_bar + Bstar[t][None, :], axis=1)
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
    """Joint-state enumeration for the factorial filter, one observation per
    particle.

    logtrans_rows : (N, K, Jmax) per-particle transition log row from its
                    previous state in each chain; chain k reads only its
                    first Js[k] lanes
    theta_rows    : (N, K, Jmax) per-particle emission means
    var_chain     : (K,) per-chain emission variances
    joint_idx     : (M, K) int32 joint-state table; must be
                    ``smc.joint_state_table(Js)``, the row-major product of
                    the chains' states, so M = prod(Js)
    ybar          : (N,) float64 aggregate reading of each particle's house;
                    particles stacked from several houses carry their own
                    house's reading

    Returns (logw, row_max). logw (N, M) holds the joint log transition
    rows plus the aggregate Normal likelihood, with variance sum(var_chain),
    of each particle's reading at the joint states' summed means, shifted by
    its row's max, row_max (N,) as np.max has it (a NaN wins). Lanes not at
    or above ``EXP_FLOOR`` after the shift (NaN included) are NaN, so a row
    with no finite max is all NaN.

    The table is a full product, so the log rows and the summed means are
    broadcast outer sums of the K per-chain rows, added in chain order
    k = 0..K-1 with the last chain varying fastest. Only the table's last
    row, (J_0-1, ..., J_{K-1}-1), is read; a table that is not a full
    product raises ``ValueError``. The compiled kernel adds in the same
    order with the same expressions, so its output is bit-identical.
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
    means = outer_sum(theta_rows)
    svar = float(var_chain.sum())
    with np.errstate(over="ignore"):  # an impossible reading scores -inf
        logw += -0.5 * (np.log(2.0 * np.pi * svar) + (ybar[:, None] - means) ** 2 / svar)
    row_max = logw.max(axis=1)
    with np.errstate(invalid="ignore"):
        logw -= row_max[:, None]
        logw[~(logw >= EXP_FLOOR)] = np.nan
    return logw, row_max


def fbpf_total(pred):
    """Zero the NaN lanes of ``pred``, the exp of the accumulate's shifted
    ``logw``, in place, and return the row sums."""
    pred[np.isnan(pred)] = 0.0
    return pred.sum(axis=1)


def fbpf_advance(pred, tot, anc, u, joint_idx, theta, var_chain, ybar, z, states, transitions,
                 trans_counts, emis_sums, emis_counts, zt, prior_mean, prior_var, alpha, Js):
    """Each resampled particle r, from its ancestor a = ``anc[r]``: the joint
    state picked with ``u[r]`` from predictive row a of ``pred`` over its
    total ``tot[a]`` (``distributions.categorical_rows_pick``), as a row of
    ``joint_idx``; the reading ``ybar[r]`` split across the chains at a's
    ``theta`` means there; a's statistics plus the transition from a's
    ``states`` when ``transitions``, the emission and one count in each
    chain's new state; and ``conjugate_posterior`` of those statistics with
    the (R, sum Js) theta normals ``zt``. Returns (new_states, emis,
    trans_counts, emis_sums, emis_counts, theta, rows): rows (R, K, Jmax)
    holds the Dirichlet posterior mean ``(alpha + trans_counts) / sum`` of
    the row out of each chain's new state, the one row the next step reads
    and its one-step predictive with the rows integrated out, and 1.0 in the
    padding lanes of chains with fewer than Jmax states, whose log (0) is
    cheap and which no pass reads.

    The split's law is Normal with mean theta_k + s2_k (ybar - sum theta) / S
    and covariance diag(s2) - s2 s2^T / S, S = sum s2, s2 = ``var_chain``:
    the (R, K) standard normals ``z``, scaled as ``Generator.normal(0, sd)``
    scales them, are projected onto the zero-sum subspace, so each row sums
    to the reading to machine precision. The means add in chain order from
    chain 0, as ``fbpf_accumulate`` sums them.
    """
    probs = pred[anc]
    probs /= tot[anc][:, None]
    new_states = joint_idx[categorical_rows_pick(probs, u)].astype(np.int64)
    R, K = new_states.shape
    Jm = emis_sums.shape[2]
    means = theta[anc[:, None], np.arange(K), new_states]
    total = means[:, 0]
    for k in range(1, K):
        total = total + means[:, k]
    g = np.sqrt(var_chain) * z
    resid = ybar - total - g.sum(axis=1)
    emis = means + var_chain * (resid / var_chain.sum())[:, None] + g

    tc, es, ec = trans_counts[anc], emis_sums[anc], emis_counts[anc]
    # every (particle, chain) row gets exactly one increment, so fancy-index
    # adds equal np.add.at
    cells = np.arange(R * K)
    new = new_states.ravel()
    if transitions:
        tc.reshape(-1, Jm, Jm)[cells, states[anc].ravel(), new] += 1.0
    es.reshape(-1, Jm)[cells, new] += emis.ravel()
    ec.reshape(-1, Jm)[cells, new] += 1.0
    theta = conjugate_posterior(zt, es, ec, var_chain, prior_mean, prior_var, Js)
    chains = np.arange(K)
    rows = alpha[chains, new_states] + tc[np.arange(R)[:, None], chains, new_states]
    for k, J in enumerate(Js):
        rows[:, k, :J] /= rows[:, k, :J].sum(axis=1, keepdims=True)
        rows[:, k, J:] = 1.0
    return new_states, emis, tc, es, ec, theta, rows


def conjugate_posterior(z, emis_sums, emis_counts, var_chain, prior_mean, prior_var, Js):
    """Theta of each particle's (R, K, Jmax) emission statistics, drawn from
    the Normal posterior of every lane's mean with the (R, sum Js) standard
    normals ``z``, each particle's real lanes in chain order; a padding lane
    takes the normal 0.0, so its theta is its posterior mean.
    """
    Jm = emis_sums.shape[2]
    zf = np.zeros(emis_sums.shape)
    zf[:, np.arange(Jm) < np.array(Js)[:, None]] = z
    # each step is one IEEE add, multiply or divide, as in
    # 1 / (1 / v0 + n / s2) and the rest
    s2 = var_chain[None, :, None]
    post_var = emis_counts / s2
    post_var += 1.0 / prior_var[None]
    np.divide(1.0, post_var, out=post_var)
    post_mean = emis_sums / s2
    post_mean += prior_mean[None] / prior_var[None]
    post_mean *= post_var
    theta = zf * np.sqrt(post_var, out=post_var)
    theta += post_mean
    return theta


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
