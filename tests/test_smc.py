"""Particle machinery against exact oracles.

The filtering oracle is an independent probability-domain forward recursion,
not the message module. Proposal and split-law checks compare the shipped
``FactorialBpf`` pieces against brute force over the joint state space and
the conditional-Gaussian formulas. The outer-sum accumulate is checked at
filter level against the (N, M, K) gather it replaced and against the
compiled kernel, and the running log-evidence against the closed-form
first-step predictive.
"""

import hashlib
import math

import numpy as np
import pytest
from fbpf_reference import fbpf_accumulate_gather_reference
from scipy.stats import norm

from powersplit import smc
from powersplit._kernels import _pure
from powersplit.dispatch import TclConfig, tcl_nominal_model
from powersplit.distributions import NormalPrior
from powersplit.hmm import HmmParams, simulate_hmm
from powersplit.pipeline.config import ControlConfig, default_bundle
from powersplit.pipeline.control import FbpfHook
from powersplit.pipeline.disagg import chain_prior
from powersplit.rng import stream
from powersplit.smc import (
    ChainPrior,
    DegenerateWeightsError,
    Ensemble,
    FactorialBpf,
    apf_step,
    conditional_emission_sample,
    counts_to_indices,
    joint_state_table,
    optimal_proposal_hmm,
    systematic_resample,
    uniform_ensemble,
)


# ---------------------------------------------------------------------------
# oracle
# ---------------------------------------------------------------------------


def oracle_filter(params: HmmParams, y):
    """Normalized forward recursion in probability space, (T, J)."""
    sd = math.sqrt(params.sigma2)
    out = []
    cur = params.init * norm.pdf(y[0], params.theta, sd)
    cur = cur / cur.sum()
    out.append(cur)
    for t in range(1, len(y)):
        cur = (params.pi.T @ cur) * norm.pdf(y[t], params.theta, sd)
        cur = cur / cur.sum()
        out.append(cur)
    return np.array(out)


def apf_hmm_filter(params: HmmParams, y, n_particles, rng):
    """Fully adapted auxiliary filter for one chain with known parameters.

    Returns empirical filtering marginals, (T, J).
    """
    J = params.J
    sd = math.sqrt(params.sigma2)

    probs0, _ = optimal_proposal_hmm(None, params, float(y[0]))
    parts = rng.choice(J, size=n_particles, p=probs0)
    ens = uniform_ensemble(parts, n=1)

    def log_predictive(particles, yt):
        likv = norm.pdf(yt, params.theta, sd)
        return np.log((params.pi @ likv)[particles])

    def propose(particles, yt, prng):
        likv = norm.pdf(yt, params.theta, sd)
        rows = params.pi[particles] * likv[None, :]
        rows = rows / rows.sum(axis=1, keepdims=True)
        u = prng.random(len(particles))
        return np.minimum((u[:, None] > np.cumsum(rows, axis=1)).sum(axis=1), J - 1)

    marg = [np.bincount(ens.particles, weights=ens.weights, minlength=J)]
    for t in range(1, len(y)):
        ens = apf_step(ens, float(y[t]), log_predictive, propose, rng)
        marg.append(np.bincount(ens.particles, weights=ens.weights, minlength=J))
    return np.array(marg)


def fixed_filter(pis, thetas, sig2s):
    """A three-particle filter whose particles all carry the given rows and
    means."""
    priors = [ChainPrior(np.ones((len(t), len(t))), tuple(NormalPrior(0.0, 1.0) for _ in t), s2)
              for t, s2 in zip(thetas, sig2s)]
    filt = FactorialBpf(priors, n_particles=3, rng=stream(20, "fixed"))
    for k, (pi, theta) in enumerate(zip(pis, thetas)):
        J = len(theta)
        filt.pi[:, k, :J, :J] = pi
        filt.theta[:, k, :J] = theta
    return filt


def make_params():
    return HmmParams(
        pi=np.array([[0.92, 0.08], [0.10, 0.90]]),
        theta=np.array([0.0, 3.0]),
        sigma2=1.0,
        init=np.array([0.6, 0.4]),
    )


# ---------------------------------------------------------------------------
# resampling and weights
# ---------------------------------------------------------------------------


def test_systematic_resample_counts():
    rng = stream(0, "resample")
    w = np.array([0.5, 0.3, 0.2])
    for _ in range(200):
        counts = systematic_resample(w, rng)
        assert counts.sum() == 3
        assert np.all(np.abs(counts - 3 * w) < 1.0)
    with pytest.raises(ValueError):
        systematic_resample(np.array([0.5, 0.6]), rng)


def test_counts_to_indices():
    assert list(counts_to_indices(np.array([2, 0, 1]))) == [0, 0, 2]


def test_ensemble_validates_weights():
    with pytest.raises(ValueError):
        Ensemble(particles=np.arange(3), weights=np.array([0.5, 0.2, 0.2]))
    ens = uniform_ensemble(np.arange(4), n=7)
    assert ens.n == 7 and ens.size == 4
    assert np.all(ens.weights == 0.25)


def test_apf_step_correction_tilts_weights():
    # flat predictive: the systematic resample keeps every particle once, so
    # the second-stage weights are the normalized correction
    ens = uniform_ensemble(np.array([0, 1, 2]))
    lik = np.array([0.2, 0.5, 0.3])
    out = apf_step(
        ens, None,
        log_predictive=lambda parts, y: np.zeros(len(parts)),
        propose=lambda parts, y, rng: parts,
        rng=stream(1, "sis"),
        log_correction=lambda new, prev, y: np.log(lik[new]),
    )
    assert np.array_equal(out.particles, ens.particles)
    assert np.abs(out.weights - lik).max() < 1e-12
    assert out.n == 1


def test_apf_step_degenerate_raises():
    ens = uniform_ensemble(np.array([0, 1]))
    with pytest.raises(DegenerateWeightsError):
        apf_step(ens, None, lambda p, y: np.full(len(p), -np.inf),
                 lambda p, y, r: p, stream(2, "deg"))


def test_apf_step_resamples_to_uniform():
    ens = uniform_ensemble(np.array([0, 1, 2, 3]))
    lik = np.array([0.7, 0.1, 0.1, 0.1])
    out = apf_step(ens, None, lambda p, y: np.log(lik[p]), lambda p, y, r: p,
                   stream(3, "sir"))
    assert np.all(out.weights == 0.25)
    # weight 0.7 of 4 particles leaves 2 or 3 copies of particle 0
    assert np.count_nonzero(out.particles == 0) in (2, 3)


# ---------------------------------------------------------------------------
# proposals
# ---------------------------------------------------------------------------


def test_optimal_proposal_matches_bayes_rule():
    params = make_params()
    for x_prev, y in [(None, 1.3), (0, -0.4), (1, 2.9)]:
        probs, pred = optimal_proposal_hmm(x_prev, params, y)
        row = params.init if x_prev is None else params.pi[x_prev]
        lik = norm.pdf(y, params.theta, math.sqrt(params.sigma2))
        want = row * lik
        assert abs(pred - want.sum()) < 1e-12
        assert np.abs(probs - want / want.sum()).max() < 1e-12


def test_joint_state_table_row_major():
    table = joint_state_table((2, 3))
    assert table.shape == (6, 2)
    for x0 in range(2):
        for x1 in range(3):
            assert list(table[x0 * 3 + x1]) == [x0, x1]
    with pytest.raises(ValueError):
        joint_state_table((33, 32))


def test_factorial_proposal_matches_brute_force(monkeypatch):
    pis = (
        np.array([[0.9, 0.1], [0.2, 0.8]]),
        np.array([[0.7, 0.2, 0.1], [0.1, 0.6, 0.3], [0.3, 0.3, 0.4]]),
    )
    thetas = (np.array([0.0, 3.0]), np.array([0.0, 1.0, 5.0]))
    sig2s = (0.5, 1.5)
    ybar = 4.2
    sd = math.sqrt(sum(sig2s))

    def step_probs(filt):
        """The joint conditional ``FactorialBpf.step`` propagates through,
        and the predictive p(ybar | x_prev) of each particle."""
        logw, _ = smc.fbpf_accumulate(filt._gather_log_rows(), filt.theta,
                                      filt.var_chain, filt.joint_idx, ybar)
        seen = []
        draw = smc.categorical_rows_sample

        def spy(rng, probs):
            seen.append(probs.copy())
            return draw(rng, probs)

        monkeypatch.setattr(smc, "categorical_rows_sample", spy)
        filt.step(ybar)
        monkeypatch.undo()
        return seen[0], np.exp(logw).sum(axis=1)

    filt = fixed_filter(pis, thetas, sig2s)
    table = filt.joint_idx
    filt.states[:] = (1, 2)
    filt.n = 1
    probs, pred = step_probs(filt)
    want = np.array([
        pis[0][1, a] * pis[1][2, b] * norm.pdf(ybar, thetas[0][a] + thetas[1][b], sd)
        for a, b in table
    ])
    assert np.abs(pred - want.sum()).max() < 1e-12
    assert np.abs(probs - want / want.sum()).max() < 1e-12

    # first observation: uniform over states in place of transition rows
    probs0, _ = step_probs(fixed_filter(pis, thetas, sig2s))
    want0 = np.array([
        (1 / 2) * (1 / 3) * norm.pdf(ybar, thetas[0][a] + thetas[1][b], sd)
        for a, b in table
    ])
    assert np.abs(probs0 - want0 / want0.sum()).max() < 1e-12


def test_conditional_emission_split_law():
    d = np.array([0.5, 1.0, 2.0])
    theta_sel = np.array([4.0, 0.5, 2.0])
    ybar = 9.3
    n = 100_000
    draws = conditional_emission_sample(np.tile(theta_sel, (n, 1)),
                                        np.full(n, theta_sel.sum()), d, ybar,
                                        stream(5, "split"))
    assert draws.shape == (n, 3)
    assert np.abs(draws.sum(axis=1) - ybar).max() < 1e-9

    S = d.sum()
    mean_want = theta_sel + d * (ybar - theta_sel.sum()) / S
    cov_want = np.diag(d) - np.outer(d, d) / S
    assert np.abs(draws.mean(axis=0) - mean_want).max() < 0.02
    assert np.abs(np.cov(draws.T) - cov_want).max() < 0.03


# ---------------------------------------------------------------------------
# streamed statistics and refreshes
# ---------------------------------------------------------------------------


def test_pl_update_stats_folds_counts():
    # FactorialBpf.step folds each particle's new state and emission into its
    # statistics; the first observation has no incoming transition
    prior = ChainPrior(np.ones((2, 2)), (NormalPrior(0, 1), NormalPrior(3, 1)), 1.0)
    filt = FactorialBpf([prior], n_particles=50, rng=stream(14, "fold"))
    filt.step(2.5)
    assert filt.trans_counts.sum() == 0
    first = filt.states[:, 0].copy()
    onehot = np.eye(2)[first]
    assert np.array_equal(filt.emis_counts[:, 0], onehot)
    assert np.array_equal(filt.emis_sums[:, 0], onehot * filt.emis[:, :1])
    filt.step(-0.5)
    new = filt.states[:, 0]
    for i in range(filt.N):
        # the ancestor's state is the one other count cell
        counts = filt.emis_counts[i, 0].copy()
        counts[new[i]] -= 1
        prev = int(np.flatnonzero(counts)[0])
        want = np.zeros((2, 2))
        want[prev, new[i]] = 1
        assert np.array_equal(filt.trans_counts[i, 0], want)


def test_pl_sample_params_concentrates():
    # FactorialBpf's parameter refresh draws from the conjugate posterior
    prior = ChainPrior(
        alpha=np.ones((2, 2)),
        emission=(NormalPrior(0.0, 100.0), NormalPrior(0.0, 100.0)),
        sigma2=1.0,
    )
    filt = FactorialBpf([prior], n_particles=300, rng=stream(6, "plparams"))
    filt.trans_counts[:, 0] = [[900.0, 100.0], [200.0, 800.0]]
    filt.emis_sums[:, 0] = [1000.0, 5000.0]
    filt.emis_counts[:, 0] = [1000.0, 1000.0]
    filt._draw_params()
    assert np.abs(filt.theta[:, 0].mean(axis=0) - [1.0, 5.0]).max() < 0.02
    assert abs(filt.pi[:, 0, 0, 0].mean() - 900 / 1002) < 0.01


def test_chain_prior_validation():
    with pytest.raises(ValueError):
        ChainPrior(alpha=np.ones((2, 3)), emission=(NormalPrior(0, 1),) * 2, sigma2=1.0)
    with pytest.raises(ValueError):
        ChainPrior(alpha=np.ones((2, 2)), emission=(NormalPrior(0, 1),), sigma2=1.0)
    with pytest.raises(ValueError):
        ChainPrior(alpha=np.ones((2, 2)), emission=(NormalPrior(0, 1),) * 2, sigma2=0.0)


# ---------------------------------------------------------------------------
# filtering accuracy
# ---------------------------------------------------------------------------


def test_apf_tracks_exact_filter():
    params = make_params()
    rng = stream(7, "apf")
    _, y = simulate_hmm(params, 30, rng)
    exact = oracle_filter(params, y)
    got = apf_hmm_filter(params, y, 2000, rng)
    mean_tv = float(0.5 * np.abs(got - exact).sum(axis=1).mean())
    assert mean_tv < 0.05


def test_fbpf_emissions_sum_to_aggregate():
    priors = [
        ChainPrior(np.full((2, 2), 2.0), (NormalPrior(0, 4), NormalPrior(3, 4)), 0.5),
        ChainPrior(np.full((2, 2), 2.0), (NormalPrior(0, 4), NormalPrior(1, 4)), 0.3),
        ChainPrior(np.full((3, 3), 2.0),
                   (NormalPrior(0, 4), NormalPrior(2, 4), NormalPrior(5, 4)), 0.7),
    ]
    filt = FactorialBpf(priors, n_particles=64, rng=stream(8, "fbpf-sum"))
    rng = stream(9, "fbpf-sum-data")
    for t in range(200):
        ybar = float(3.0 + 2.0 * math.sin(t / 7.0) + rng.normal(0, 0.5))
        filt.step(ybar)
        assert np.abs(filt.emis.sum(axis=1) - ybar).max() < 1e-9
        assert np.all(filt.weights == 1.0 / 64)
    # bookkeeping: each particle/chain saw n emissions and n-1 transitions
    assert np.all(filt.emis_counts.sum(axis=2) == 200)
    assert np.all(filt.trans_counts.sum(axis=(2, 3)) == 199)


def test_fbpf_single_chain_tracks_states_and_learns_means():
    true = HmmParams(
        pi=np.array([[0.95, 0.05], [0.05, 0.95]]),
        theta=np.array([0.0, 5.0]),
        sigma2=1.0,
    )
    x, y = simulate_hmm(true, 300, stream(10, "bpf-data"))
    prior = ChainPrior(
        alpha=np.array([[8.0, 1.0], [1.0, 8.0]]),
        emission=(NormalPrior(0.0, 9.0), NormalPrior(4.0, 9.0)),
        sigma2=1.0,
    )
    filt = FactorialBpf([prior], n_particles=300, rng=stream(11, "bpf"))
    hits = 0
    for t in range(300):
        filt.step(float(y[t]))
        hits += int(filt.map_states()[0] == x[t])
    assert hits / 300 > 0.85
    means = filt.power_means()[0]
    assert abs(means[0] - 0.0) < 0.5
    assert abs(means[1] - 5.0) < 0.5
    assert np.all(np.isfinite(filt.emission_means()))


def bundle_stream(T):
    """The default four-device house (Js = 2, 3, 2, 3) and watt readings."""
    priors = [chain_prior(dev) for dev in default_bundle().devices]
    rng = stream(16, "digest-bundle")
    return priors, np.abs(rng.normal(800.0, 600.0, T))


def hook_stream(T):
    """One ``FbpfHook`` house (Js = 2, 2, 3) and kW readings of one
    thermostat plus small appliances."""
    model = tcl_nominal_model(TclConfig())
    cfg = ControlConfig(n_houses=1, steps=T, hook="fbpf")
    priors = FbpfHook(model, cfg, stream(17, "digest-hook")).filters[0].priors
    rng = stream(18, "digest-hook-data")
    u_on = float(model.U[1])
    y = (u_on * (rng.random(T) < 0.5) + 0.15 * (rng.random(T) < 0.3)
         + rng.normal(0.0, 0.02, T))
    return priors, y


def filter_digests(priors, y):
    """sha256 of every step's ``logw`` and of the particle states, emissions
    and means after filtering y, plus the running log-evidence."""
    accumulate = smc.fbpf_accumulate
    logw_hash = hashlib.sha256()

    def hashed_accumulate(*args):
        logw, sumtheta = accumulate(*args)
        logw_hash.update(logw.tobytes())
        return logw, sumtheta

    # the draws shrug off a one-ulp change in logw; its hash does not
    smc.fbpf_accumulate = hashed_accumulate
    try:
        filt = FactorialBpf(priors, n_particles=200, rng=stream(19, "digest"))
        for v in y:
            filt.step(float(v))
    finally:
        smc.fbpf_accumulate = accumulate
    return [logw_hash.hexdigest()] + [
        hashlib.sha256(getattr(filt, name).tobytes()).hexdigest()
        for name in ("states", "emis", "theta")] + [filt.log_evidence]


@pytest.mark.parametrize("make", [bundle_stream, hook_stream])
def test_fbpf_outer_sum_filter_matches_gather_reference(monkeypatch, make):
    priors, y = make(200)
    shipped = filter_digests(priors, y)
    monkeypatch.setattr(smc, "fbpf_accumulate", fbpf_accumulate_gather_reference)
    assert filter_digests(priors, y) == shipped


@pytest.mark.parametrize("make", [bundle_stream, hook_stream])
def test_fbpf_filter_does_not_depend_on_backend(monkeypatch, make, compiled_kernels):
    priors, y = make(200)
    monkeypatch.setattr(smc, "fbpf_accumulate", compiled_kernels.fbpf_accumulate)
    native = filter_digests(priors, y)
    monkeypatch.setattr(smc, "fbpf_accumulate", _pure.fbpf_accumulate)
    assert filter_digests(priors, y) == native


def test_log_evidence_first_step_matches_closed_form():
    # K=1, J=2, uniform start: each particle's predictive is
    # sum_j 1/2 N(y; theta_j, s2) with theta_j ~ N(m_j, v_j) drawn from the
    # prior, so its mean over particles estimates
    # p(y_1) = sum_j 1/2 N(y_1; m_j, v_j + s2)
    m, v, s2, y = np.array([0.0, 3.0]), np.array([1.0, 2.0]), 1.0, 1.2
    prior = ChainPrior(np.ones((2, 2)), tuple(NormalPrior(a, b) for a, b in zip(m, v)), s2)
    n = 20_000
    filt = FactorialBpf([prior], n_particles=n, rng=stream(21, "evidence"))
    assert filt.log_evidence == 0.0
    filt.step(y)

    p = float(np.sum(0.5 * norm.pdf(y, m, np.sqrt(v + s2))))
    # per-particle variance: N(y; t, s2)^2 = N(y; t, s2/2) / (2 sqrt(pi s2))
    second = np.sum(0.25 * norm.pdf(y, m, np.sqrt(v + s2 / 2)) / (2.0 * np.sqrt(np.pi * s2)))
    second += 0.5 * np.prod(norm.pdf(y, m, np.sqrt(v + s2)))
    sd = math.sqrt((second - p * p) / n)
    # CLT band: 4 standard errors of the particle mean
    assert abs(math.exp(filt.log_evidence) - p) < 4.0 * sd


def test_map_states_tie_goes_to_lowest_index():
    prior = ChainPrior(np.ones((2, 2)), (NormalPrior(0, 1), NormalPrior(1, 1)), 1.0)
    filt = FactorialBpf([prior], n_particles=4, rng=stream(12, "tie"))
    filt.states[:, 0] = np.array([0, 0, 1, 1])
    assert filt.map_states()[0] == 0
