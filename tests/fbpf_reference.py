"""Reference pieces shared by the kernel and filter tests.

``fbpf_accumulate_gather_reference`` is the factorial accumulate written as a
direct (N, M, K) gather through the joint-state table, then shifted by its
row max; the shipped outer-sum kernel must match it bit for bit on product
tables. ``row_predictive`` reads the filter's own Dirichlet update for the
conjugate-update oracles, and ``exact_learning_filter`` enumerates the
joint paths of a small factorial model with every parameter integrated
out, the oracle of the learning filter. Importing this module builds
nothing and has no side effects.
"""

import itertools
import math

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


def row_predictive(alpha, counts):
    """The row that the filter's advance, ``_pure.fbpf_advance``, gives the
    row out of state 0 of one particle of one two-state chain that moves
    into state 0: the Dirichlet posterior mean of the prior row ``alpha``
    plus the transition ``counts`` out of state 0, with no transition
    folded in."""
    trans = np.zeros((1, 1, 2, 2))
    trans[0, 0, 0] = counts
    zeros = np.zeros((1, 1, 2))
    pred = np.array([[1.0, 0.0]])
    out = fbpf_advance(pred, pred.sum(axis=1), np.zeros(1, np.int64), np.full(1, 0.5),
                       np.array([[0], [1]]), zeros, np.ones(1), np.zeros(1), np.zeros((1, 1)),
                       np.zeros((1, 1), np.int64), False, trans, zeros, zeros, np.zeros((1, 2)),
                       np.zeros((1, 2)), np.ones((1, 2)), np.array([[alpha, alpha]]), (2,))
    assert (out[0] == 0).all()
    return out[6][0, 0]


def _mvn_logpdf(y, mean, cov):
    """log N(y; mean, cov) for a stack of (P, t) means and (P, t, t)
    covariances."""
    L = np.linalg.cholesky(cov)
    r = np.linalg.solve(L, (y - mean)[..., None])[..., 0]
    logdet = 2.0 * np.log(np.diagonal(L, axis1=1, axis2=2)).sum(axis=1)
    return -0.5 * (len(y) * np.log(2.0 * np.pi) + logdet + (r * r).sum(axis=1))


def exact_learning_filter(priors, y):
    """The exact filter of the model that ``FactorialBpf`` learns, by
    enumerating every joint path: per t = 1..len(y), the joint filtering
    marginal p(x_t | y_1:t) over the row-major joint states and log p(y_1:t).

    Both parameter sets are integrated out in closed form. Each chain's
    first state is uniform, the filter's own start, and its transition rows
    are Dirichlet, so its path has the Polya-urn probability: each move
    i -> j has the posterior mean (alpha + n)[i, j] / row sum of the moves
    before it. Given the path the emission means are Normal, so the
    readings are Gaussian, y ~ N(A m0, A V0 A^T + S I), where row s of A
    picks each chain's mean lane at time s and S is the sum of the chains'
    variances. There are M^t paths at time t, so keep M^len(y) small.
    """
    Js = [p.J for p in priors]
    joint = np.array(list(itertools.product(*[range(J) for J in Js])))
    M, K = joint.shape
    off = np.cumsum([0] + Js[:-1])
    m0 = np.concatenate([[c.mean for c in p.emission] for p in priors])
    v0 = np.concatenate([[c.var for c in p.emission] for p in priors])
    S = sum(p.sigma2 for p in priors)
    y = np.asarray(y, dtype=float)
    marginals, logp = [], []
    for t in range(1, len(y) + 1):
        paths = np.array(list(itertools.product(range(M), repeat=t)))
        P, each = len(paths), np.arange(len(paths))
        logprior = np.full(P, -math.log(M))
        A = np.zeros((P, t, len(m0)))
        for k, prior in enumerate(priors):
            x = joint[paths, k]
            A[each[:, None], np.arange(t), off[k] + x] = 1.0
            counts = np.zeros((P, Js[k], Js[k]))
            for s in range(1, t):
                i, j = x[:, s - 1], x[:, s]
                row = prior.alpha[i] + counts[each, i]
                logprior += np.log(row[each, j] / row.sum(axis=1))
                counts[each, i, j] += 1.0
        cov = (A * v0) @ A.transpose(0, 2, 1) + S * np.eye(t)
        logjoint = logprior + _mvn_logpdf(y[:t], A @ m0, cov)
        top = logjoint.max()
        w = np.exp(logjoint - top)
        logp.append(top + math.log(w.sum()))
        marginals.append(np.bincount(paths[:, -1], weights=w, minlength=M) / w.sum())
    return np.array(marginals), np.array(logp)
