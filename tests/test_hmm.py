"""Chain message passing against exhaustive path enumeration.

The oracle sums the joint density over every one of the J^T state paths, so
it is exact up to float arithmetic and independent of the message code.
"""

import itertools
import math

import numpy as np
import pytest
from hmm_reference import (
    HmmParams,
    backward_messages,
    blocked_sample_states,
    filtering_marginals,
    forward_messages,
    loglik,
    simulate_hmm,
    smoothing_marginals,
)
from hypothesis import given, settings, strategies as st
from scipy.stats import norm

from powersplit.rng import stream


# ---------------------------------------------------------------------------
# oracle
# ---------------------------------------------------------------------------


def enumerate_paths(params: HmmParams, y):
    """All (path, joint density) pairs by brute force."""
    y = np.asarray(y, dtype=float)
    T, J = len(y), params.J
    sd = math.sqrt(params.sigma2)
    out = []
    for path in itertools.product(range(J), repeat=T):
        p = params.init[path[0]] * norm.pdf(y[0], params.theta[path[0]], sd)
        for t in range(1, T):
            p *= params.pi[path[t - 1], path[t]] * norm.pdf(y[t], params.theta[path[t]], sd)
        out.append((path, p))
    return out


def oracle_loglik(params, y):
    return math.log(sum(p for _, p in enumerate_paths(params, y)))


def oracle_smoothing(params, y):
    paths = enumerate_paths(params, y)
    Z = sum(p for _, p in paths)
    T, J = len(y), params.J
    marg = np.zeros((T, J))
    for path, p in paths:
        for t, j in enumerate(path):
            marg[t, j] += p
    return marg / Z


def oracle_filtering(params, y):
    y = np.asarray(y, dtype=float)
    T, J = len(y), params.J
    out = np.zeros((T, J))
    for t in range(T):
        paths = enumerate_paths(params, y[: t + 1])
        Z = sum(p for _, p in paths)
        for path, p in paths:
            out[t, path[-1]] += p
        out[t] /= Z
    return out


def oracle_path_posterior(params, y):
    paths = enumerate_paths(params, y)
    Z = sum(p for _, p in paths)
    return {path: p / Z for path, p in paths}


def make_params(seed=0, J=2, spread=2.0):
    rng = np.random.default_rng(seed)
    pi = rng.dirichlet(np.ones(J) * 2.0, size=J)
    theta = np.arange(J) * spread
    init = rng.dirichlet(np.ones(J))
    return HmmParams(pi=pi, theta=theta, sigma2=1.0, init=init)


# ---------------------------------------------------------------------------
# messages
# ---------------------------------------------------------------------------


def test_loglik_matches_enumeration():
    for seed, T in [(0, 1), (1, 3), (2, 5)]:
        params = make_params(seed)
        y = np.random.default_rng(100 + seed).normal(1.0, 1.5, size=T)
        got = loglik(params, y)
        want = oracle_loglik(params, y)
        assert abs(got - want) < 1e-9 * max(1.0, abs(want))


def test_smoothing_matches_enumeration():
    params = make_params(3)
    y = np.random.default_rng(42).normal(1.0, 1.5, size=5)
    alphal = forward_messages(params, y)
    betal = backward_messages(params, y)
    got = smoothing_marginals(alphal, betal)
    want = oracle_smoothing(params, y)
    assert np.abs(got - want).max() < 1e-9


def test_filtering_matches_enumeration():
    params = make_params(4)
    y = np.random.default_rng(43).normal(1.0, 1.5, size=5)
    got = filtering_marginals(forward_messages(params, y))
    want = oracle_filtering(params, y)
    assert np.abs(got - want).max() < 1e-9


def test_forward_and_backward_agree_on_the_likelihood():
    params = make_params(5, J=3)
    y = np.random.default_rng(44).normal(1.0, 2.0, size=20)
    alphal = forward_messages(params, y)
    betal = backward_messages(params, y)
    # every cut must give the same evidence
    from scipy.special import logsumexp

    evid = logsumexp(alphal + betal, axis=1)
    assert np.abs(evid - evid[0]).max() < 1e-9


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000), st.integers(2, 4), st.integers(1, 4))
def test_messages_match_enumeration_random_instances(seed, J, T):
    params = make_params(seed, J=J)
    y = np.random.default_rng(seed + 1).normal(1.0, 2.0, size=T)
    assert abs(loglik(params, y) - oracle_loglik(params, y)) < 1e-9
    got = smoothing_marginals(forward_messages(params, y), backward_messages(params, y))
    assert np.abs(got - oracle_smoothing(params, y)).max() < 1e-9


# ---------------------------------------------------------------------------
# blocked sampling
# ---------------------------------------------------------------------------


def test_blocked_draws_match_enumerated_path_law():
    params = make_params(6)
    y = np.array([0.4, 1.7, 0.1, 2.2])
    post = oracle_path_posterior(params, y)
    rng = stream(0, "hmm-blocked")
    betal = backward_messages(params, y)
    n = 40_000
    freq: dict = {}
    for _ in range(n):
        x = tuple(blocked_sample_states(params, y, rng, betal=betal))
        freq[x] = freq.get(x, 0) + 1
    tv = 0.5 * sum(abs(freq.get(path, 0) / n - p) for path, p in post.items())
    assert tv < 0.02


def test_simulate_shapes_and_clamp():
    params = make_params(7)
    x, y = simulate_hmm(params, 500, stream(1, "sim"))
    assert x.shape == (500,) and y.shape == (500,)
    assert y.min() >= 0.0
    with pytest.raises(ValueError):
        simulate_hmm(params, 0, stream(1, "sim"))
