"""Weak-limit hierarchical prior: augmentation draws against exact oracles,
and stationarity of the collapsed sweep on an enumerable two-state instance.

Two independent routes pin down the table-count law: the Stirling-number
formula and direct convolution of the Bernoulli product representation. The
sweep check rejection-samples the capped-model posterior, applies one sweep
to each draw, and compares marginals before and after. The shipped sweep,
vectorised over states, must reproduce the per-state loop it replaced
(``hdp_reference``) bit for bit and leave the generator where it leaves it.
"""

import math

import hdp_reference
import numpy as np
import pytest
from hdp_reference import antoniak_pmf, sample_m, sample_rho, stirling_unsigned

from powersplit.distributions import NormalPrior
from powersplit.hdp import (
    _BLOCK,
    DurationMixturePrior,
    EmissionMixturePrior,
    HdpHsmmPriors,
    WeakLimitHdp,
    _table_counts,
    _tables_by_jumps,
    gibbs_sweep_hdphsmm,
    hdp_sweep,
    init_hdphsmm_state,
    pi_bar_from,
    sample_beta_posterior,
    sample_hdp_prior,
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


def test_weak_limit_rejects_a_nan_row():
    # a 0/0 row: every comparison with NaN is false, so each check must fail it
    pi = np.array([[0.5, 0.5], [np.nan, np.nan]])
    with pytest.raises(ValueError, match="simplex"):
        WeakLimitHdp(gamma=1.0, alpha=1.0, beta=np.array([0.5, 0.5]), pi=pi)


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


def training_priors(y, sigma2):
    """The priors ``pipeline.train.summarize_house`` builds for series ``y``."""
    spread = max(float(y.max() - y.min()), 1.0)
    return HdpHsmmPriors(emission=NormalPrior(float(y.mean()), (2.0 * spread) ** 2),
                         duration=DurationHyper(), sigma2=sigma2)


def test_hdphsmm_sweep_finds_separated_states():
    rng = stream(8, "hdphsmm")
    true = HsmmParams(
        pi_bar=np.array([[0.0, 1.0], [1.0, 0.0]]),
        theta=np.array([0.0, 8.0]),
        sigma2=1.0,
        durations=(DurationParams(0.6, 4.0, 2, 0.5), DurationParams(0.3, 6.0, 2, 0.4)),
    )
    path, y = simulate_hsmm(true, 600, rng)

    priors = training_priors(y, 1.0)
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


# ---------------------------------------------------------------------------
# the sweep against its per-state reference
# ---------------------------------------------------------------------------


def test_table_counts_in_blocks_equal_per_cell_draws():
    # more customers than one block holds, so the cells are drawn one at a
    # time and the big one in two blocks; draws and generator state match
    # sample_m cell by cell
    n = np.zeros((3, 3))
    n[1, 1], n[0, 2], n[2, 0] = _BLOCK + 150_000, 7, 3
    weight = np.array([0.3, 1.1, 2.0])
    a, b = stream(64, "blocks"), stream(64, "blocks")
    got = _table_counts(n, weight, a)
    want = [[sample_m(int(n[k, j]), weight[j], b) for j in range(3)] for k in range(3)]
    assert np.array_equal(got, np.array(want, dtype=float))
    assert a.random() == b.random()


@pytest.mark.parametrize("n, w", [(12, 0.7), (30, 3.0)])
def test_tables_by_jumps_match_antoniak_pmf(n, w):
    rng = stream(65, "jumps", n)
    draws = np.array([_tables_by_jumps(n, w, rng) for _ in range(20_000)])
    assert tv(np.bincount(draws, minlength=n + 1) / len(draws), antoniak_pmf(n, w)) < 0.03


def test_sweep_survives_a_self_transition_near_one():
    # pi_00 = 1 - 2e-12 makes the self-loop auxiliaries sum to about 1e12
    # customers, which one uniform a customer cannot hold in memory
    pi = np.array([[1 - 2e-12, 1e-12, 1e-12], [0.3, 0.4, 0.3], [0.5, 0.25, 0.25]])
    hdp = WeakLimitHdp(gamma=2.0, alpha=3.0, beta=np.array([0.5, 0.3, 0.2]), pi=pi)
    out = hdp_sweep(hdp, np.array([[0, 2, 1], [1, 0, 1], [2, 0, 0]]), stream(66, "near-one"))
    assert out.pi[0, 0] > 1 - 1e-6
    assert np.abs(out.pi.sum(axis=1) - 1.0).max() < 1e-9


def _random_hdp(L, rng):
    """A weak-limit state whose rows include an exact zero diagonal entry,
    so the draw-free pjj = 0 path runs too."""
    hdp = sample_hdp_prior(2.0, 3.0, L, rng)
    if L == 1:
        return hdp
    pi = hdp.pi.copy()
    j = int(rng.integers(L))
    pi[j, j] = 0.0
    pi[j] /= pi[j].sum()
    return WeakLimitHdp(gamma=2.0, alpha=3.0, beta=hdp.beta, pi=pi)


@pytest.mark.parametrize("rho_cap", [None, 0, 3, 20])
def test_hdp_sweep_matches_per_state_reference(rho_cap):
    rng = stream(60, "hdp-oracle")
    for i in range(100):
        L = 1 + i % 6
        hdp = _random_hdp(L, rng)
        counts = rng.integers(0, 6, size=(L, L)) * (rng.random((L, L)) < 0.7)
        np.fill_diagonal(counts, 0)
        a, b = stream(61, "hdp-oracle", i), stream(61, "hdp-oracle", i)
        got = hdp_sweep(hdp, counts, a, rho_cap=rho_cap)
        want = hdp_reference.hdp_sweep(hdp, counts, b, rho_cap=rho_cap)
        assert np.array_equal(got.beta, want.beta) and np.array_equal(got.pi, want.pi), i
        assert a.random() == b.random()


def _sweep_case(T, L, dmax, mean_len):
    """Data from a three-level segment model, priors as training builds
    them and an initial state."""
    rng = stream(62, "sweep-case", T, L)
    durs = tuple(DurationParams(0.5, mean_len, 2, mean_len / (mean_len + 2)) for _ in range(3))
    true = HsmmParams(pi_bar=np.array([[0.0, 0.5, 0.5], [0.5, 0.0, 0.5], [0.5, 0.5, 0.0]]),
                      theta=np.array([0.0, 150.0, 400.0]), sigma2=400.0, durations=durs)
    _, y = simulate_hsmm(true, T, rng)
    priors = training_priors(y, 400.0)
    return y, priors, init_hdphsmm_state(4.0, 4.0, L, priors, rng)


# case: (T, L, dmax, mean segment length)
SWEEP_CASES = {
    "train_fit_shape": (300, 8, 200, 12.0),
    "window_covers_horizon": (40, 4, 60, 6.0),
    "short_window_resumes_walks": (120, 5, 4, 15.0),
}


@pytest.mark.parametrize("case", sorted(SWEEP_CASES))
def test_sweep_matches_per_state_reference(case):
    T, L, dmax, mean_len = SWEEP_CASES[case]
    y, priors, state = _sweep_case(T, L, dmax, mean_len)
    a, b = stream(63, "sweep-oracle", case), stream(63, "sweep-oracle", case)
    got = want = state
    empty_states = resumed = 0
    for sweep in range(20):
        got = gibbs_sweep_hdphsmm(got, y, priors, a, dmax=dmax)
        want = hdp_reference.gibbs_sweep_hdphsmm(want, y, priors, b, dmax=dmax)
        for name, x, w in (("z", got.path.z, want.path.z), ("D", got.path.D, want.path.D),
                           ("theta", got.theta, want.theta), ("beta", got.hdp.beta, want.hdp.beta),
                           ("pi", got.hdp.pi, want.hdp.pi)):
            assert np.array_equal(x, w), (case, sweep, name)
        assert got.durations == want.durations, (case, sweep)
        empty_states += int((np.bincount(got.path.z, minlength=L) == 0).sum())
        resumed += int(np.any(got.path.D[:-1] > dmax))
    assert a.random() == b.random()
    # the prior draw of a state with no segments ran, and the short window
    # resumed walks after censored picks
    assert empty_states > 0
    assert resumed > 0 or case != "short_window_resumes_walks"
