"""Weak-limit hierarchical prior: augmentation draws against exact oracles,
and stationarity of the collapsed sweep on an enumerable two-state instance.

Two independent routes pin down the table-count law: the Stirling-number
formula and direct convolution of the Bernoulli product representation. The
sweep check rejection-samples the capped-model posterior, applies one sweep
to each draw, and compares marginals before and after.
"""

import math

import numpy as np
import pytest
from scipy.stats import beta as beta_dist, gamma as gamma_dist

from powersplit.distributions import NormalPrior
from powersplit.hdp import (
    DurationMixturePrior,
    EmissionMixturePrior,
    HdpHsmmPriors,
    WeakLimitHdp,
    antoniak_pmf,
    duration_label_logits,
    gibbs_sweep_hdphsmm,
    hdp_sweep,
    init_hdphsmm_state,
    pi_bar_from,
    sample_beta_posterior,
    sample_hdp_prior,
    sample_m,
    sample_rho,
    stirling_unsigned,
)
from powersplit.hsmm import DurationHyper, DurationParams, HsmmParams, simulate_hsmm
from powersplit.rng import stream


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------


def bernoulli_convolution_pmf(n, weight):
    """pmf of sum_{i<n} Ber(weight/(weight+i)) by direct convolution."""
    pmf = np.array([1.0])
    for i in range(n):
        p = weight / (weight + i)
        nxt = np.zeros(len(pmf) + 1)
        nxt[:-1] += (1 - p) * pmf
        nxt[1:] += p * pmf
        pmf = nxt
    return pmf


def truncated_geometric_pmf(q, cap):
    ks = np.arange(cap + 1)
    pmf = (1 - q) * q ** ks
    return pmf / pmf.sum()


def tv(p, q):
    return 0.5 * np.abs(np.asarray(p) - np.asarray(q)).sum()


# ---------------------------------------------------------------------------
# table counts
# ---------------------------------------------------------------------------


def test_stirling_known_values():
    assert stirling_unsigned(0, 0) == 1
    assert stirling_unsigned(4, 2) == 11
    assert stirling_unsigned(5, 3) == 35
    assert stirling_unsigned(6, 1) == 120
    for n in range(1, 9):
        assert sum(stirling_unsigned(n, m) for m in range(n + 1)) == math.factorial(n)
    with pytest.raises(ValueError):
        stirling_unsigned(31, 2)


def test_antoniak_pmf_matches_bernoulli_convolution():
    for n in range(0, 13):
        for w in (0.1, 1.0, 3.7, 10.0):
            got = antoniak_pmf(n, w)
            want = bernoulli_convolution_pmf(n, w)
            assert got.shape == want.shape
            assert np.abs(got - want).max() < 1e-12


def test_antoniak_mean_identity():
    # E[m] = sum_i w/(w+i), from the Bernoulli product form
    for n, w in [(5, 0.5), (12, 2.0), (20, 10.0)]:
        pmf = antoniak_pmf(n, w)
        want = sum(w / (w + i) for i in range(n))
        assert abs(float(np.arange(n + 1) @ pmf) - want) < 1e-10


def test_antoniak_rejects_bad_weight():
    with pytest.raises(ValueError):
        antoniak_pmf(3, 0.0)
    with pytest.raises(ValueError):
        sample_m(3, -1.0, stream(0, "m"))


def test_sample_m_matches_pmf():
    rng = stream(1, "m-tv")
    n = 6
    for w in (0.1, 1.0, 10.0):
        draws = sample_m(n, w, rng, size=200_000)
        freq = np.bincount(draws, minlength=n + 1) / len(draws)
        assert tv(freq, antoniak_pmf(n, w)) < 0.01
    assert sample_m(0, 1.0, rng) == 0
    assert np.all(sample_m(0, 1.0, rng, size=5) == 0)
    one = sample_m(1, 0.3, rng, size=100)
    assert np.all(one == 1)


# ---------------------------------------------------------------------------
# self-loop auxiliaries
# ---------------------------------------------------------------------------


def test_sample_rho_uncapped_matches_geometric():
    rng = stream(2, "rho")
    p = 0.6
    draws = sample_rho(p, 200_000, rng)
    hi = 40
    freq = np.bincount(draws, minlength=hi + 1)[: hi + 1] / len(draws)
    want = (1 - p) * p ** np.arange(hi + 1)
    assert tv(freq, want) < 0.01
    assert np.all(sample_rho(0.0, 50, rng) == 0)
    assert sample_rho(0.3, 0, rng).shape == (0,)
    with pytest.raises(ValueError):
        sample_rho(1.0, 3, rng)


def test_sample_rho_capped_matches_truncated_law():
    rng = stream(3, "rho-cap")
    p, cap = 0.7, 5
    draws = sample_rho(p, 200_000, rng, cap=cap)
    assert draws.max() <= cap and draws.min() >= 0
    freq = np.bincount(draws, minlength=cap + 1) / len(draws)
    assert tv(freq, truncated_geometric_pmf(p, cap)) < 0.01


# ---------------------------------------------------------------------------
# row surgery and validation
# ---------------------------------------------------------------------------


def test_pi_bar_from_zeroes_and_renormalizes():
    rng = stream(4, "pibar")
    pi = rng.dirichlet(np.ones(4), size=4)
    out = pi_bar_from(pi)
    assert np.all(np.diag(out) == 0.0)
    assert np.abs(out.sum(axis=1) - 1.0).max() < 1e-12
    for j in range(4):
        for k in range(4):
            if k != j:
                assert abs(out[j, k] - pi[j, k] / (1 - pi[j, j])) < 1e-12
    with pytest.raises(ValueError):
        pi_bar_from(np.eye(3))


def test_weak_limit_validation():
    good_beta = np.array([0.5, 0.5])
    good_pi = np.full((2, 2), 0.5)
    WeakLimitHdp(gamma=1.0, alpha=1.0, beta=good_beta, pi=good_pi)
    with pytest.raises(ValueError):
        WeakLimitHdp(gamma=1.0, alpha=1.0, beta=np.array([0.7, 0.7]), pi=good_pi)
    with pytest.raises(ValueError):
        WeakLimitHdp(gamma=1.0, alpha=1.0, beta=good_beta, pi=np.full((3, 3), 1 / 3))
    with pytest.raises(ValueError):
        WeakLimitHdp(gamma=0.0, alpha=1.0, beta=good_beta, pi=good_pi)


def test_sample_hdp_prior_shapes():
    hdp = sample_hdp_prior(2.0, 3.0, 5, stream(5, "prior"))
    assert hdp.L == 5
    assert abs(hdp.beta.sum() - 1.0) < 1e-9
    assert np.abs(hdp.pi.sum(axis=1) - 1.0).max() < 1e-9


def test_sweep_error_paths():
    rng = stream(6, "sweep-err")
    hdp = sample_hdp_prior(2.0, 3.0, 2, rng)
    with pytest.raises(ValueError, match="self-loops"):
        hdp_sweep(hdp, np.array([[1, 0], [0, 1]]), rng)
    with pytest.raises(ValueError):
        hdp_sweep(hdp, np.zeros((3, 3), dtype=int), rng)
    stuck = WeakLimitHdp(gamma=2.0, alpha=3.0, beta=np.array([0.5, 0.5]),
                         pi=np.array([[1.0, 0.0], [0.5, 0.5]]))
    with pytest.raises(ValueError, match="saturated"):
        hdp_sweep(stuck, np.array([[0, 1], [1, 0]]), rng)
    with pytest.raises(ValueError):
        sample_beta_posterior(np.zeros((2, 3)), 2.0, 2, rng)


# ---------------------------------------------------------------------------
# stationarity of the capped sweep
# ---------------------------------------------------------------------------


def _rejection_sample_capped_posterior(gamma, alpha, cap, n, rng):
    """Draw (b, q1, q2) from the two-state capped-model posterior with one
    observed transition each way.

    prior: b ~ Beta(g/2, g/2); row diagonals q1 ~ Beta(ab, a(1-b)),
    q2 ~ Beta(a(1-b), ab). The capped augmentation tilts the density by
    (1 - q^{cap+1}) per row, which rejection handles exactly.
    """
    bs, q1s, q2s = [], [], []
    while len(bs) < n:
        m = 2 * (n - len(bs)) + 1000
        b = rng.beta(gamma / 2, gamma / 2, size=m)
        b = np.clip(b, 1e-12, 1 - 1e-12)
        q1 = rng.beta(alpha * b, alpha * (1 - b))
        q2 = rng.beta(alpha * (1 - b), alpha * b)
        keep = rng.random(m) < (1 - q1 ** (cap + 1)) * (1 - q2 ** (cap + 1))
        keep &= (q1 < 1 - 1e-9) & (q2 < 1 - 1e-9)
        bs.extend(b[keep])
        q1s.extend(q1[keep])
        q2s.extend(q2[keep])
    return np.array(bs[:n]), np.array(q1s[:n]), np.array(q2s[:n])


def test_capped_sweep_preserves_posterior_marginals():
    gamma, alpha, cap = 2.0, 3.0, 20
    counts = np.array([[0, 1], [1, 0]])
    rng = stream(7, "sweep-stationary")
    n = 60_000
    b0, q10, q20 = _rejection_sample_capped_posterior(gamma, alpha, cap, n, rng)

    b1 = np.empty(n)
    q11 = np.empty(n)
    q21 = np.empty(n)
    for i in range(n):
        hdp = WeakLimitHdp(
            gamma=gamma, alpha=alpha,
            beta=np.array([b0[i], 1 - b0[i]]),
            pi=np.array([[q10[i], 1 - q10[i]], [1 - q20[i], q20[i]]]),
        )
        out = hdp_sweep(hdp, counts, rng, rho_cap=cap)
        b1[i] = out.beta[0]
        q11[i] = out.pi[0, 0]
        q21[i] = out.pi[1, 1]

    edges = np.linspace(0.0, 1.0, 11)
    for before, after in ((b0, b1), (q10, q11), (q20, q21)):
        fb = np.histogram(before, bins=edges)[0] / n
        fa = np.histogram(after, bins=edges)[0] / n
        assert tv(fb, fa) < 0.02
    # the instance is symmetric under swapping the two states
    assert abs(b1.mean() - 0.5) < 0.01


# ---------------------------------------------------------------------------
# composite sweep
# ---------------------------------------------------------------------------


def test_hdphsmm_sweep_finds_separated_states():
    rng = stream(8, "hdphsmm")
    true = HsmmParams(
        pi_bar=np.array([[0.0, 1.0], [1.0, 0.0]]),
        theta=np.array([0.0, 8.0]),
        sigma2=1.0,
        durations=(DurationParams(0.6, 4.0, 2, 0.5), DurationParams(0.3, 6.0, 2, 0.4)),
    )
    path, y = simulate_hsmm(true, 600, rng)

    priors = HdpHsmmPriors(
        emission_mix=EmissionMixturePrior(
            weights=np.array([0.5, 0.5]),
            components=(NormalPrior(0.0, 100.0), NormalPrior(8.0, 100.0)),
        ),
        duration_mix=DurationMixturePrior(
            weights=np.array([1.0]), components=(DurationHyper(),)
        ),
        sigma2=1.0,
    )
    state = init_hdphsmm_state(4.0, 4.0, 4, priors, rng)
    for _ in range(40):
        state = gibbs_sweep_hdphsmm(state, y, priors, rng, dmax=60)

    occ = np.bincount(state.path.x, minlength=4) / 600
    top = np.argsort(occ)[::-1][:2]
    assert occ[top].sum() > 0.95
    means = np.sort(state.theta[top])
    assert abs(means[0] - 0.0) < 0.5
    assert abs(means[1] - 8.0) < 0.5


def test_mixture_prior_validation():
    with pytest.raises(ValueError):
        EmissionMixturePrior(weights=np.array([1.0]),
                             components=(NormalPrior(0, 1), NormalPrior(1, 1)))
    with pytest.raises(ValueError):
        DurationMixturePrior(weights=np.array([0.4, 0.4]),
                             components=(DurationHyper(), DurationHyper()))


def test_duration_label_logits_equal_scipy_stats():
    # the closed form repeats scipy.stats' own expressions, so the logits,
    # and with them every label draw, match bit for bit; the grid includes
    # the Beta support edges phi = 0 and phi = 1
    rng = np.random.default_rng(40)
    for i in range(2000):
        k = 1 + i % 4
        hypers = tuple(DurationHyper(*np.exp(rng.normal(0.0, 1.5, size=6)), r=2)
                       for _ in range(k))
        prior = DurationMixturePrior(weights=rng.dirichlet(np.ones(k)), components=hypers)
        phi = (0.0, 1.0)[i % 2] if i % 50 == 0 else float(rng.beta(0.5, 0.5))
        cur = DurationParams(phi=phi, lam=float(rng.gamma(2.0, 10.0)), r=2,
                             vphi=float(np.clip(rng.beta(0.5, 0.5), 1e-12, 1 - 1e-12)))
        want = np.log(np.maximum(prior.weights, 1e-300)) + np.array([
            beta_dist.logpdf(cur.phi, h.a_phi, h.b_phi)
            + gamma_dist.logpdf(cur.lam, h.a_lam, scale=1.0 / h.b_lam)
            + beta_dist.logpdf(cur.vphi, h.a_vphi, h.b_vphi)
            for h in hypers])
        got = duration_label_logits(prior, cur)
        assert np.array_equal(got, want), (i, got, want)
