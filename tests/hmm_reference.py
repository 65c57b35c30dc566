"""Finite-state HMM: simulation, exact log-space message passing, and
blocked posterior draws of the state path.

The chain is the segment model's special case with geometric durations,
and the criteria and unit tests use it as an oracle: its smoothing
marginals and likelihood must match the segment model's, and its filter and
sampler check the particle filter. Emissions are Normal with per-state
means and a shared, fixed variance, ``powersplit.hsmm.emission_loglik``.
Simulated powers are clamped at zero; inference still uses the unclamped
Normal density (the clamp is a data-recording convention, not a model
change). Importing this module builds nothing and has no side effects.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import logsumexp

from powersplit.distributions import (
    assert_simplex,
    assert_simplex_rows,
    categorical_sample,
    categorical_sample_logits,
    logsumexp_axis,
)
from powersplit.hsmm import _log, emission_loglik


@dataclass(frozen=True)
class HmmParams:
    """Transition matrix, emission means, shared emission variance, and the
    initial state distribution (uniform unless configured otherwise)."""

    pi: np.ndarray       # (J, J) rows on the simplex
    theta: np.ndarray    # (J,) emission means
    sigma2: float        # shared emission variance
    init: np.ndarray | None = None  # (J,) initial distribution

    def __post_init__(self):
        pi = np.asarray(self.pi, dtype=float)
        theta = np.asarray(self.theta, dtype=float)
        if pi.ndim != 2 or pi.shape[0] != pi.shape[1]:
            raise ValueError("pi must be a square matrix")
        if theta.shape != (pi.shape[0],):
            raise ValueError("theta length must match the state count")
        if self.sigma2 <= 0:
            raise ValueError("sigma2 must be positive")
        assert_simplex_rows(pi)
        object.__setattr__(self, "pi", pi)
        object.__setattr__(self, "theta", theta)
        init = self.init
        if init is None:
            init = np.full(pi.shape[0], 1.0 / pi.shape[0])
        else:
            init = assert_simplex(np.asarray(init, dtype=float))
        object.__setattr__(self, "init", init)

    @property
    def J(self) -> int:
        return self.pi.shape[0]


def simulate_hmm(params: HmmParams, T: int, rng: np.random.Generator):
    """Simulate (x, y) of length T; negative powers are recorded as 0."""
    if T < 1:
        raise ValueError("T must be >= 1")
    x = np.empty(T, dtype=np.int64)
    x[0] = categorical_sample(rng, params.init)
    for t in range(1, T):
        x[t] = categorical_sample(rng, params.pi[x[t - 1]])
    y = params.theta[x] + np.sqrt(params.sigma2) * rng.standard_normal(T)
    return x, np.maximum(y, 0.0)


def forward_messages(params: HmmParams, y) -> np.ndarray:
    """alphal[t, j] = log p(y[0..t], x_t = j)."""
    loglik = emission_loglik(params, y)
    T = loglik.shape[0]
    if T == 0:
        raise ValueError("need at least one observation")
    logtrans = _log(params.pi)
    alphal = np.empty(loglik.shape)
    alphal[0] = _log(params.init) + loglik[0]
    for t in range(1, T):
        alphal[t] = logsumexp_axis(alphal[t - 1][:, None] + logtrans, axis=0) + loglik[t]
    return alphal


def backward_messages(params: HmmParams, y) -> np.ndarray:
    """betal[t, j] = log p(y[t+1..] | x_t = j); last row is zero."""
    loglik = emission_loglik(params, y)
    T = loglik.shape[0]
    if T == 0:
        raise ValueError("need at least one observation")
    logtrans = _log(params.pi)
    betal = np.zeros(loglik.shape)
    for t in range(T - 2, -1, -1):
        betal[t] = logsumexp_axis(logtrans + (betal[t + 1] + loglik[t + 1])[None, :], axis=1)
    return betal


def loglik(params: HmmParams, y) -> float:
    return float(logsumexp(forward_messages(params, y)[-1]))


def smoothing_marginals(alphal: np.ndarray, betal: np.ndarray) -> np.ndarray:
    """p(x_t | y) rows, from the forward and backward messages."""
    joint = alphal + betal
    return np.exp(joint - logsumexp(joint, axis=1, keepdims=True))


def filtering_marginals(alphal: np.ndarray) -> np.ndarray:
    """p(x_t | y[0..t]) rows."""
    return np.exp(alphal - logsumexp(alphal, axis=1, keepdims=True))


def blocked_sample_states(params: HmmParams, y, rng: np.random.Generator,
                          betal: np.ndarray | None = None) -> np.ndarray:
    """One exact joint posterior draw of the state path (forward draw
    against the backward messages)."""
    y = np.asarray(y, dtype=float)
    if betal is None:
        betal = backward_messages(params, y)
    loglik_t = emission_loglik(params, y)
    logpi = _log(params.pi)
    T = len(y)
    x = np.empty(T, dtype=np.int64)
    logits = _log(params.init) + loglik_t[0] + betal[0]
    x[0] = categorical_sample_logits(rng, logits)
    for t in range(1, T):
        logits = logpi[x[t - 1]] + loglik_t[t] + betal[t]
        x[t] = categorical_sample_logits(rng, logits)
    return x
