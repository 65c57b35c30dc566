"""Reference pieces shared by the kernel and filter tests.

``fbpf_accumulate_gather_reference`` is the factorial accumulate written as a
direct (N, M, K) gather through the joint-state table, then shifted by its
row max; the shipped outer-sum kernel must match it bit for bit on product
tables. ``row_concentrations`` reads the filter's own Dirichlet update for
the conjugate-update oracles. Importing this module builds nothing and has
no side effects.
"""

import numpy as np

from powersplit._kernels._pure import EXP_FLOOR, fbpf_advance


def joint_predictive_gather(logtrans_rows, theta_rows, var_chain, joint_idx, ybar):
    """The unshifted joint log predictive (N, M) as an (N, M, K) gather
    through any joint table, summed over chains; ``ybar`` holds one reading
    per particle."""
    N, K, _ = logtrans_rows.shape
    n_idx = np.arange(N)[:, None, None]
    k_idx = np.arange(K)[None, None, :]
    j_idx = joint_idx[None, :, :]
    trans = logtrans_rows[n_idx, k_idx, j_idx]  # (N, M, K)
    theta = theta_rows[n_idx, k_idx, j_idx]
    sumtheta = theta.sum(axis=2)
    logw = trans.sum(axis=2)
    svar = float(var_chain.sum())
    logw += -0.5 * (np.log(2.0 * np.pi * svar) + (ybar[:, None] - sumtheta) ** 2 / svar)
    return logw


def fbpf_accumulate_gather_reference(logtrans_rows, theta_rows, var_chain, joint_idx, ybar):
    """The accumulate's (logw, row_max): the gathered predictive less its
    row max, NaN in the lanes not at or above ``EXP_FLOOR``."""
    logw = joint_predictive_gather(logtrans_rows, theta_rows, var_chain, joint_idx, ybar)
    row_max = np.max(logw, axis=1)
    with np.errstate(invalid="ignore"):
        shifted = logw - row_max[:, None]
    return np.where(shifted >= EXP_FLOOR, shifted, np.nan), row_max


def random_rows(rng, N, Js, p_inf=0.0):
    """Per-chain log rows and emission means padded to max(Js), with a
    share of the log-row entries set to -inf."""
    K, Jm = len(Js), max(Js)
    rows = np.log(rng.dirichlet(np.ones(Jm), size=(N, K)))
    rows[rng.random(rows.shape) < p_inf] = -np.inf
    theta = rng.normal(100.0, 30.0, size=(N, K, Jm))
    var = rng.uniform(10.0, 50.0, size=K)
    return rows, theta, var


def row_concentrations(alpha, counts):
    """The two Dirichlet concentrations that the filter's advance,
    ``_pure.fbpf_advance``, gives the row out of state 0 of one particle of
    one two-state chain that moves into state 0: the prior row ``alpha``
    plus the transition ``counts`` out of state 0, with no transition
    folded in."""
    trans = np.zeros((1, 1, 2, 2))
    trans[0, 0, 0] = counts
    zeros = np.zeros((1, 1, 2))
    pred = np.array([[1.0, 0.0]])
    out = fbpf_advance(pred, pred.sum(axis=1), np.zeros(1, np.int64), np.full(1, 0.5),
                       np.array([[0], [1]]), zeros, np.ones(1), np.zeros(1), np.zeros((1, 1)),
                       np.zeros((1, 1), np.int64), False, trans, zeros, zeros, np.zeros((1, 2)),
                       np.zeros((1, 2)), np.ones((1, 2)), np.array([[alpha, alpha]]), (2,), 1)
    assert (out[0] == 0).all()
    return out[6][0]
