"""Particle machinery against exact oracles.

Proposal, first-stage weight and split-law checks compare the shipped
``FactorialBpf`` pieces against brute force over the joint state space and
the conditional-Gaussian formulas. The outer-sum accumulate is checked at
filter level against the (N, M, K) gather it replaced and against the
compiled kernel, and the running log-evidence against the closed-form
first-step predictive. Each house of a bank must end byte for byte where
the same house filtered alone ends. Tracking of the exact filter is
acceptance criterion 7; the learning filter, with every parameter
learned, is checked against the exact enumeration of a small model's joint
paths. The learned means of a single chain are checked against the
conjugate posterior given the simulated path, the kept transition rows
against their Dirichlet posterior mean, and a counting generator checks
that a filter draws only the randoms its passes read.
"""

import hashlib
import math

import numpy as np
import pytest
from fbpf_reference import exact_learning_filter, fbpf_accumulate_gather_reference
from hmm_reference import HmmParams, simulate_hmm
from scipy.stats import norm

from powersplit import smc
from powersplit._kernels import _pure
from powersplit.dispatch import TclConfig, tcl_nominal_model
from powersplit.distributions import NormalPrior
from powersplit.pipeline.config import ControlConfig, default_bundle
from powersplit.pipeline.control import FbpfHook
from powersplit.pipeline.disagg import chain_prior
from powersplit.rng import stream
from powersplit.smc import (
    ChainPrior,
    DegenerateWeightsError,
    FactorialBpf,
    counts_to_indices,
    joint_state_table,
)


def fixed_filter(pis, thetas, sig2s, n_particles=3, seed=20, states=None):
    """A filter whose particles all carry the given means: a lone house for
    one ``seed``, or a bank of one house per seed in a list, with ``pis``
    and ``thetas`` then listing each house's, pinned on its own rows.
    Without ``states`` it awaits its first reading, from the uniform rows;
    given ``states`` (one joint state, or one per particle of a house) it
    has seen one reading, sits in them and carries the rows of ``pis`` out
    of them."""
    lone = np.ndim(seed) == 0
    if lone:
        pis, thetas, seed = [pis], [thetas], [seed]
    priors = [ChainPrior(np.ones((len(t), len(t))), tuple(NormalPrior(0.0, 1.0) for _ in t), s2)
              for t, s2 in zip(thetas[0], sig2s)]
    rngs = [stream(sd, "fixed") for sd in seed]
    filt = FactorialBpf(priors, n_particles=n_particles, rng=rngs[0] if lone else rngs)
    for h, (house_pis, house_thetas) in enumerate(zip(pis, thetas)):
        own = slice(h * n_particles, (h + 1) * n_particles)
        for k, theta in enumerate(house_thetas):
            filt.theta[own, k, :len(theta)] = theta
        if states is not None:
            filt.states[own] = states
            for k, pi in enumerate(house_pis):
                filt.rows[own, k, :len(pi)] = pi[filt.states[own, k]]
    if states is not None:
        filt.n = 1
    return filt


# ---------------------------------------------------------------------------
# resampling and proposals
# ---------------------------------------------------------------------------


def test_counts_to_indices():
    assert list(counts_to_indices(np.array([2, 0, 1]))) == [0, 0, 2]


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

    def step_probs(filt, ybar=ybar):
        """The joint conditional ``FactorialBpf.step`` propagates through,
        and the predictive p(ybar | x_prev) of each particle."""
        logw, row_max = smc.fbpf_accumulate(np.log(filt.rows), filt.theta, filt.var_chain,
                                            filt.joint_idx, np.full(filt.N, ybar))
        seen = []
        advance = smc.fbpf_advance

        def spy(pred, tot, anc, u, *rest):
            # the rows the pass draws from: the ancestors' predictive rows
            # over their totals
            seen.append(pred[anc] / tot[anc][:, None])
            return advance(pred, tot, anc, u, *rest)

        monkeypatch.setattr(smc, "fbpf_advance", spy)
        filt.step(ybar)
        monkeypatch.undo()
        return seen[0], np.exp(row_max) * np.nansum(np.exp(logw), axis=1)

    filt = fixed_filter(pis, thetas, sig2s, states=(1, 2))
    table = filt.joint_idx
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

    # a reading far above most joint means: four of the six lanes sit more
    # than 700 below the best one, where the step writes 0 in place of exp
    far = 400.0
    filt = fixed_filter(pis, thetas, sig2s, states=(1, 2))
    probs_far, _ = step_probs(filt, far)
    log_want = np.array([
        math.log(pis[0][1, a] * pis[1][2, b]) + norm.logpdf(far, thetas[0][a] + thetas[1][b], sd)
        for a, b in table
    ])
    assert np.sum(log_want - log_want.max() < _pure.EXP_FLOOR) == 4
    want_far = np.exp(log_want - log_want.max())
    assert np.abs(probs_far - want_far / want_far.sum()).max() < 1e-12


def test_first_stage_weights_match_brute_force(monkeypatch):
    # a bank of two houses, each with its six particles in the six distinct
    # joint states, so every particle has its own predictive; the resample
    # must weight particle i by p(y | x_i) over the house's total
    pis = [(np.array([[0.9, 0.1], [0.2, 0.8]]),
            np.array([[0.7, 0.2, 0.1], [0.1, 0.6, 0.3], [0.3, 0.3, 0.4]])),
           (np.array([[0.5, 0.5], [0.05, 0.95]]),
            np.array([[0.2, 0.2, 0.6], [0.8, 0.1, 0.1], [0.1, 0.1, 0.8]]))]
    thetas = [(np.array([0.0, 3.0]), np.array([0.0, 1.0, 5.0])),
              (np.array([0.5, 2.0]), np.array([-1.0, 1.5, 4.0]))]
    sig2s = (0.5, 1.5)
    readings = [4.2, 1.1]
    sd = math.sqrt(sum(sig2s))
    bank = fixed_filter(pis, thetas, sig2s, n_particles=6, seed=[30, 31],
                        states=joint_state_table((2, 3)))
    seen = []
    counts = smc.systematic_counts

    def spy(w, u0):
        seen.append(np.array(w))
        return counts(w, u0)

    monkeypatch.setattr(smc, "systematic_counts", spy)
    assert np.array_equal(bank.ess_frac, [1.0, 1.0])
    bank.step(readings)
    assert len(seen) == 2
    # each house's ESS/N of the weights it resampled by
    assert np.abs(bank.ess_frac - [1.0 / (6 * (w * w).sum()) for w in seen]).max() < 1e-12
    for w, (pi0, pi1), (th0, th1), y in zip(seen, pis, thetas, readings):
        pred = np.array([
            sum(pi0[a0, a] * pi1[b0, b] * norm.pdf(y, th0[a] + th1[b], sd)
                for a in range(2) for b in range(3))
            for a0, b0 in joint_state_table((2, 3))
        ])
        assert np.abs(w - pred / pred.sum()).max() < 1e-12
        assert np.ptp(pred / pred.sum()) > 0.05  # the reading does move the weights


def test_advance_emission_split_law():
    # n particles of one ancestor whose predictive has one lane, joint state
    # (1, 0, 1), where its means are theta_sel; the other lanes' means must
    # not enter the split
    d = np.array([0.5, 1.0, 2.0])
    theta_sel = np.array([4.0, 0.5, 2.0])
    ybar = 9.3
    n = 100_000
    joint = joint_state_table((2, 2, 2))
    pred = np.zeros((1, len(joint)))
    pred[0, 5] = 1.0
    theta = np.full((1, 3, 2), 1e3)
    theta[0, np.arange(3), joint[5]] = theta_sel
    stats = [np.zeros((1, 3, 2, 2)), np.zeros((1, 3, 2)), np.zeros((1, 3, 2))]
    posterior = [np.zeros((n, 6)), np.zeros((3, 2)), np.ones((3, 2)), np.ones((3, 2, 2)),
                 (2, 2, 2)]
    states, draws, *_ = smc.fbpf_advance(
        pred, pred.sum(axis=1), np.zeros(n, np.int64), stream(4, "split").random(n), joint,
        theta, d, np.full(n, ybar), stream(5, "split").standard_normal((n, 3)),
        np.zeros((1, 3), np.int64), False, *stats, *posterior)
    assert (states == joint[5]).all()
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
    # the shipped advance moves half the particles into each state, with no
    # transition fold; each one's emission is its state's mean, which leaves
    # the posterior means where they were; theta is drawn as the step draws
    # it, and the advance gives the rows out of the new states
    g, N = filt.rngs[0], filt.N
    states = np.repeat([0, 1], 150)
    pred = np.eye(2)[states]
    z = g.standard_normal(3 * N)
    _, _, _, _, _, theta, rows = smc.fbpf_advance(
        pred, pred.sum(axis=1), np.arange(N), g.random(N), filt.joint_idx, filt.theta,
        filt.var_chain, np.where(states == 0, 1.0, 5.0), z[:N].reshape(N, 1), filt.states,
        False, filt.trans_counts, filt.emis_sums, filt.emis_counts, z[N:].reshape(N, 2),
        filt.prior_mean, filt.prior_var, filt.alpha, filt.Js)
    assert np.abs(theta[:, 0].mean(axis=0) - [1.0, 5.0]).max() < 0.02
    # each particle keeps the Dir(alpha + n) mean of the row out of its
    # state; both rows sum to 1002 exactly, so the quotients are exact
    want = (prior.alpha + filt.trans_counts[0, 0]) / 1002.0
    for s in (0, 1):
        assert np.array_equal(rows[states == s, 0], np.broadcast_to(want[s], (150, 2)))


def test_step_draws_the_rows_out_of_the_new_states_from_their_dirichlet(monkeypatch,
                                                                        compiled_kernels):
    # a J=3 chain with fixed transition counts and equal means beside a J=2
    # one, so the first step, which folds no transition, spreads the
    # particles over the states; on both backends the row each particle
    # keeps is the one out of its new state, the Dirichlet posterior mean
    # (alpha + n)[x] / sum to the last bit, with 1.0 in the J=2 chain's
    # padding lane
    alpha = np.ones((3, 3)) + 2.0 * np.eye(3)
    counts = np.array([[30.0, 5.0, 2.0], [4.0, 20.0, 6.0], [1.0, 3.0, 40.0]])
    post = alpha + counts
    priors = [ChainPrior(alpha, tuple(NormalPrior(0.0, 1.0) for _ in range(3)), 1.0),
              ChainPrior(np.full((2, 2), 1.5), (NormalPrior(0.0, 1.0),) * 2, 1.0)]
    for advance in (_pure.fbpf_advance, compiled_kernels.fbpf_advance):
        monkeypatch.setattr(smc, "fbpf_advance", advance)
        filt = FactorialBpf(priors, n_particles=600, rng=stream(7, "rows"))
        filt.trans_counts[:, 0, :3, :3] = counts
        filt.theta[:] = 0.0
        filt.step(0.0)
        assert np.array_equal(filt.trans_counts[:, 0], np.broadcast_to(counts, (600, 3, 3)))
        x = filt.states[:, 0]
        assert (np.bincount(x, minlength=3) > 100).all()
        assert np.array_equal(filt.rows[:, 0], post[x] / post.sum(axis=1)[x, None])
        assert np.array_equal(filt.rows[:, 1, :2], np.full((600, 2), 0.5))
        assert (filt.rows[:, 1, 2] == 1.0).all()


class CountingGenerator(np.random.Generator):
    """A generator that tallies, per method, the values its calls draw."""

    def __init__(self, bit_generator):
        super().__init__(bit_generator)
        self.drawn = {}


def _counted(name):
    def method(self, *args, **kwargs):
        out = getattr(np.random.Generator, name)(self, *args, **kwargs)
        self.drawn[name] = self.drawn.get(name, 0) + np.size(kwargs.get("out", out))
        return out
    return method


for _name in ("random", "standard_normal", "standard_gamma", "standard_exponential", "normal",
              "uniform", "gamma", "beta", "dirichlet", "integers", "choice", "permutation",
              "shuffle", "exponential", "binomial", "multinomial", "poisson"):
    setattr(CountingGenerator, _name, _counted(_name))


@pytest.mark.parametrize("H", [1, 3])
def test_filter_draws_only_what_its_passes_read(H):
    # per house, the constructor draws the theta normals of the real lanes;
    # each step draws N + 1 uniforms, N*K emission normals and N*sum(Js)
    # theta normals, and no gamma: the rows are Dirichlet means
    priors, y = bundle_stream(4)
    N, K, C = 50, len(priors), sum(p.J for p in priors)
    rngs = [CountingGenerator(np.random.PCG64(60 + h)) for h in range(H)]
    filt = FactorialBpf(priors, N, rngs[0] if H == 1 else rngs)
    for g in rngs:
        assert g.drawn == {"standard_normal": N * C}
    for t, v in enumerate(y):
        filt.step(float(v) if H == 1 else np.full(H, v))
        for g in rngs:
            assert g.drawn == {"standard_normal": N * C + (t + 1) * (N * K + N * C),
                               "random": (t + 1) * (N + 1)}, t


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


# (data seed, filter seed) pairs of the single-chain test
SINGLE_CHAIN_SEEDS = [(10, 11)] + [(100 + i, 200 + i) for i in range(11)]


def test_fbpf_single_chain_tracks_states_and_learns_means():
    # the learned means against the known-path oracle: given the simulated
    # path, each state's mean has a Normal conjugate posterior. That
    # posterior given only the readings has two label modes, the prior's
    # order and the swapped one, to which the emission prior leaves about a
    # tenth of the mass here, so the particles split between them: fewer
    # than half may be swapped, and those in the prior's order must match
    # the oracle's mean and spread. The readings are clamped at 0, as a
    # meter reads, so the oracle sees the same clamped readings.
    true = HmmParams(
        pi=np.array([[0.95, 0.05], [0.05, 0.95]]),
        theta=np.array([0.0, 5.0]),
        sigma2=1.0,
    )
    m0, v0, s2 = np.array([0.0, 4.0]), 9.0, 1.0
    prior = ChainPrior(
        alpha=np.array([[8.0, 1.0], [1.0, 8.0]]),
        emission=tuple(NormalPrior(m, v0) for m in m0),
        sigma2=s2,
    )
    for ds, fs in SINGLE_CHAIN_SEEDS:
        x, y = simulate_hmm(true, 300, stream(ds, "bpf-data"))
        filt = FactorialBpf([prior], n_particles=300, rng=stream(fs, "bpf"))
        hits = 0
        for t in range(300):
            filt.step(float(y[t]))
            hits += int(filt.map_states()[0] == x[t])
        assert hits / 300 > 0.85, (ds, fs)
        theta = filt.theta[:, 0]
        in_order = theta[:, 0] < theta[:, 1]
        assert 1.0 - in_order.mean() < 0.5, (ds, fs)
        n = np.bincount(x, minlength=2)
        post_var = 1.0 / (1.0 / v0 + n / s2)
        post_mean = post_var * (m0 / v0 + np.bincount(x, weights=y, minlength=2) / s2)
        learned = theta[in_order]
        assert np.abs(learned.mean(axis=0) - post_mean).max() < 0.15, (ds, fs)
        ratio = learned.std(axis=0, ddof=1) / np.sqrt(post_var)
        assert ((ratio >= 0.7) & (ratio <= 1.4)).all(), (ds, fs, ratio)


# the learning-filter oracle's model: two two-state chains whose sticky
# rows have small concentrations, so a few counts move them, and whose
# state means overlap within the readings' spread
ORACLE_PRIORS = [
    ChainPrior(np.array([[3.0, 1.0], [1.0, 3.0]]), (NormalPrior(0.0, 0.3), NormalPrior(2.0, 0.3)),
               0.15),
    ChainPrior(np.array([[2.0, 1.0], [1.0, 2.0]]), (NormalPrior(0.0, 0.3), NormalPrior(1.2, 0.3)),
               0.15),
]
ORACLE_READINGS = np.array([0.2, 1.4, 3.0, 2.1, 0.9, 3.3])


def test_learning_filter_matches_exact_enumeration():
    """The shipped filter, learning its transition rows and means, against
    the exact enumeration of the model's 4^t joint paths with both
    integrated out (``exact_learning_filter``), at N = 10^3 over 48 seeds
    and N = 10^4 over 12. The particle histograms of the joint state lie
    within three times the i.i.d. CLT scale 0.5 sum_j sqrt(p_j (1 - p_j) / N)
    in total variation, averaged over t and seeds, which allows the
    resampled particle system nine times the variance of independent
    draws; the mean TV falls with N at a log-log slope within criterion 7's
    [-0.7, -0.3]; and exp(log_evidence - log p(y_1:t)), the estimate's
    ratio to the truth, has mean 1 within 4 standard errors at every t."""
    exact, logp = exact_learning_filter(ORACLE_PRIORS, ORACLE_READINGS)
    scale = 0.5 * np.sqrt(exact * (1.0 - exact)).sum(axis=1).mean()
    Js = tuple(p.J for p in ORACLE_PRIORS)
    tv = {}
    for N, seeds in ((1_000, 48), (10_000, 12)):
        tvs, ratios = [], []
        for seed in range(seeds):
            filt = FactorialBpf(ORACLE_PRIORS, N, stream(seed, "learning-oracle", N))
            hist, evidence = [], []
            for v in ORACLE_READINGS:
                filt.step(float(v))
                joint = np.ravel_multi_index(filt.states.T, Js)
                hist.append(np.bincount(joint, weights=filt.weights, minlength=len(exact[0])))
                evidence.append(filt.log_evidence)
            tvs.append(0.5 * np.abs(np.array(hist) - exact).sum(axis=1).mean())
            ratios.append(np.exp(np.array(evidence) - logp))
        tv[N] = float(np.mean(tvs))
        assert tv[N] < 3.0 * scale / math.sqrt(N), (N, tv[N])
        ratios = np.array(ratios)
        se = ratios.std(axis=0, ddof=1) / math.sqrt(len(ratios))
        assert (np.abs(ratios.mean(axis=0) - 1.0) < 4.0 * se).all(), (N, ratios.mean(axis=0), se)
    slope = math.log(tv[10_000] / tv[1_000]) / math.log(10.0)
    assert -0.7 <= slope <= -0.3, slope


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
    priors = FbpfHook(model, cfg, stream(17, "digest-hook")).bank.priors
    rng = stream(18, "digest-hook-data")
    u_on = float(model.U[1])
    y = (u_on * (rng.random(T) < 0.5) + 0.15 * (rng.random(T) < 0.3)
         + rng.normal(0.0, 0.02, T))
    return priors, y


def filter_digests(priors, y):
    """sha256 of every step's shifted ``logw`` and row max and of the
    particle states, emissions, means and the real lanes of the rows after
    filtering y, plus the running log-evidence."""
    accumulate = smc.fbpf_accumulate
    logw_hash = hashlib.sha256()

    def hashed_accumulate(*args):
        out = accumulate(*args)
        for a in out:
            logw_hash.update(a.tobytes())
        return out

    # the draws shrug off a one-ulp change in logw; its hash does not
    smc.fbpf_accumulate = hashed_accumulate
    try:
        filt = FactorialBpf(priors, n_particles=200, rng=stream(19, "digest"))
        for v in y:
            filt.step(float(v))
    finally:
        smc.fbpf_accumulate = accumulate
    real = [filt.rows[:, k, :J].tobytes() for k, J in enumerate(filt.Js)]
    return [logw_hash.hexdigest()] + [
        hashlib.sha256(a).hexdigest()
        for a in [getattr(filt, name).tobytes() for name in ("states", "emis", "theta")] + real
    ] + [filt.log_evidence]


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


PARTICLE_ARRAYS = ("states", "emis", "theta", "rows", "trans_counts", "emis_sums",
                   "emis_counts", "weights")


def test_bank_houses_match_lone_filters():
    # a three-house bank and three lone filters on equal generators, from
    # the first step: every house's arrays, log-evidence and estimators
    # match its lone filter bit for bit, and so does its house(h) view
    priors, _ = hook_stream(1)
    H, N = 3, 60
    bank = FactorialBpf(priors, N, [stream(25, "bank", h) for h in range(H)])
    alone = [FactorialBpf(priors, N, stream(25, "bank", h)) for h in range(H)]
    readings = np.abs(stream(26, "bank-readings").normal(2.0, 1.5, (80, H)))
    for t, y in enumerate(readings):
        bank.step(y)
        for f, v in zip(alone, y):
            f.step(float(v))
        maps, means = bank.map_states(), bank.power_means()
        assert maps.shape == (H, bank.K) and [m.shape for m in means] == [(H, J) for J in bank.Js]
        for h, f in enumerate(alone):
            view = bank.house(h)
            for name in PARTICLE_ARRAYS:
                own = getattr(bank, name)[h * N:(h + 1) * N]
                assert np.array_equal(own, getattr(f, name)), (t, h, name)
                assert np.array_equal(getattr(view, name), getattr(f, name)), (t, h, name)
            assert bank.log_evidence[h] == f.log_evidence == view.log_evidence
            assert bank.ess_frac[h] == f.ess_frac == view.ess_frac
            assert np.array_equal(maps[h], f.map_states())
            assert np.array_equal(view.map_states(), f.map_states())
            for a, b, c in zip(means, f.power_means(), view.power_means()):
                assert np.array_equal(a[h], b) and np.array_equal(c, b), (t, h)
    # a view reads its house and nothing more
    view = bank.house(-1)
    assert view.N == N and view.emis.shape == (N, bank.K)
    assert isinstance(view.log_evidence, float) and isinstance(view.ess_frac, float)
    with pytest.raises(ValueError, match="read-only"):
        view.theta[0, 0, 0] = 1.0
    with pytest.raises(TypeError, match="does not step"):
        view.step(1.0)
    with pytest.raises(IndexError):
        bank.house(H)


def test_bank_rejects_what_it_cannot_step():
    prior = ChainPrior(np.ones((2, 2)), (NormalPrior(0, 1), NormalPrior(3, 1)), 1.0)
    g = stream(1, "houses")
    with pytest.raises(ValueError, match="distinct generator"):
        FactorialBpf([prior], 20, [g, stream(2, "houses"), g])
    with pytest.raises(ValueError, match="n_particles must be >= 1"):
        FactorialBpf([prior], 0, g)
    bank = FactorialBpf([prior], 20, [stream(3, "houses"), stream(4, "houses")])
    lone = FactorialBpf([prior], 20, stream(5, "houses"))
    for filt, y in ((bank, [1.0]), (bank, 1.0), (lone, [1.0])):
        with pytest.raises(ValueError, match="one reading per house"):
            filt.step(y)
    # a house whose every weight vanishes stops the step before any draw
    before = [getattr(bank, name).copy() for name in PARTICLE_ARRAYS]
    draws = [g.bit_generator.state for g in bank.rngs]
    with pytest.raises(DegenerateWeightsError, match=r"houses \[1\]"):
        bank.step([1.0, 1e300])
    assert bank.n == 0 and [g.bit_generator.state for g in bank.rngs] == draws
    assert np.array_equal(bank.log_evidence, [0.0, 0.0])
    for name, was in zip(PARTICLE_ARRAYS, before):
        assert np.array_equal(getattr(bank, name), was), name


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_step_rejects_a_reading_that_is_not_finite(bad):
    # the reading is at fault, not the model: the step names the house and
    # the reading before any draw, and leaves every house as it was, after
    # a first step too
    prior = ChainPrior(np.ones((2, 2)), (NormalPrior(0, 1), NormalPrior(3, 1)), 1.0)
    bank = FactorialBpf([prior], 20, [stream(6, "finite"), stream(7, "finite")])
    lone = FactorialBpf([prior], 20, stream(8, "finite"))
    bank.step([1.0, 2.0])
    lone.step(1.0)
    for filt, y, house in ((bank, [1.0, bad], 1), (bank, [bad, bad], 0), (lone, bad, 0)):
        before = [getattr(filt, name).copy() for name in PARTICLE_ARRAYS]
        draws = [g.bit_generator.state for g in filt.rngs]
        evidence, ess = np.copy(filt.log_evidence), np.copy(filt.ess_frac)
        with pytest.raises(ValueError, match=rf"house {house}: reading {bad} is not finite"):
            filt.step(y)
        assert filt.n == 1 and [g.bit_generator.state for g in filt.rngs] == draws
        assert np.array_equal(filt.log_evidence, evidence)
        assert np.array_equal(filt.ess_frac, ess)
        for name, was in zip(PARTICLE_ARRAYS, before):
            assert np.array_equal(getattr(filt, name), was), name


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
