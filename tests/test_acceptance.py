"""Release gate: one test per numbered check, each at its stated tolerance
and budget. The conftest hook prints a per-criterion verdict line after the
run.

Oracles here are independent routes: exhaustive path/segmentation
enumeration, probability-domain filters, grid quadrature, closed-form
transforms. They deliberately avoid the library's own message passes.
"""

import gc
import itertools
import json
import math
import time
from datetime import datetime

import numpy as np
import pytest
from click.testing import CliRunner
from scipy.integrate import simpson
from scipy.special import betainc, betaln, logsumexp
from scipy.stats import norm

from powersplit.distributions import (
    NormalPrior,
    conj_update_beta_negbin,
    conj_update_dirichlet,
    conj_update_gamma_poisson,
    conj_update_normal,
    negbin_logpmf,
    normal_logpdf,
    poisson_logpmf,
)
from powersplit.dispatch import (
    MeanFieldState,
    NominalLoadModel,
    TclConfig,
    controlled_kernel,
    fleet_counts_step,
    invariant_pmf,
    kernel_derivative,
    mean_field_step,
    product_model,
    tcl_nominal_model,
    tilted_controllable,
    transfer_function,
)
from powersplit.hdp import WeakLimitHdp, antoniak_pmf, hdp_sweep, sample_m
from powersplit.hmm import (
    HmmParams,
    backward_messages,
    blocked_sample_states,
    forward_messages,
    loglik as hmm_loglik,
    simulate_hmm,
    smoothing_marginals,
)
from powersplit.hsmm import (
    DurationHyper,
    DurationParams,
    HsmmParams,
    blocked_sample_segments,
    hsmm_backward_messages,
    hsmm_loglik,
    hsmm_smoothed_marginals,
)
from powersplit.pipeline.cli import main as cli_main
from powersplit.pipeline.config import (
    ControlConfig,
    DeviceBundle,
    DurationMixturePrior,
    EmissionMixturePrior,
    HyperParamBundle,
)
from powersplit.pipeline.control import simulate_control
from powersplit.pipeline.disagg import disaggregate
from powersplit.pipeline.io import Trace
from powersplit.pipeline.synth import synth_generate
from powersplit.rng import stream
from powersplit.smc import (
    ChainPrior,
    Ensemble,
    FactorialBpf,
    apf_step,
    optimal_proposal_hmm,
    uniform_ensemble,
)

START = datetime(2026, 1, 1)


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------


def enumerate_hmm_paths(params: HmmParams, y):
    """All J^T state paths with joint weights p(x, y)."""
    J, T = params.J, len(y)
    lik = norm.pdf(np.asarray(y)[:, None], params.theta[None, :],
                   math.sqrt(params.sigma2))
    paths = np.array(list(itertools.product(range(J), repeat=T)))
    w = params.init[paths[:, 0]] * lik[0, paths[:, 0]]
    for t in range(1, T):
        w = w * params.pi[paths[:, t - 1], paths[:, t]] * lik[t, paths[:, t]]
    return paths, w


def enumerate_segmentations(params: HsmmParams, y):
    """Every censored segmentation with its joint weight.

    Returns (states, prefix durations, censored flag, weight); exact
    segmentations carry all durations, censored ones only the prefix.
    """
    y = np.asarray(y, dtype=float)
    T, J = len(y), params.J
    sd = math.sqrt(params.sigma2)

    def emis(j, a, b):
        return float(np.prod(norm.pdf(y[a:b], params.theta[j], sd)))

    out = []

    def recurse(t, states, durs, prob):
        prev = states[-1] if states else None
        for j in range(J):
            pj = params.init[j] if prev is None else params.pi_bar[prev, j]
            if pj == 0:
                continue
            tailp = math.exp(params.durations[j].logtail(T - t))
            out.append(((*states, j), tuple(durs), True,
                        prob * pj * tailp * emis(j, t, T)))
            for d in range(1, T - t + 1):
                pd = math.exp(float(params.durations[j].logpmf(d)))
                if pd == 0:
                    continue
                p_d = prob * pj * pd * emis(j, t, t + d)
                if t + d == T:
                    out.append(((*states, j), (*durs, d), False, p_d))
                else:
                    recurse(t + d, (*states, j), (*durs, d), p_d)

    recurse(0, (), (), 1.0)
    return out


def oracle_hsmm_smoothing(params, y):
    segs = enumerate_segmentations(params, y)
    Z = sum(p for *_, p in segs)
    occ = np.zeros((len(y), params.J))
    for states, durs, censored, p in segs:
        t = 0
        for s, d in zip(states, durs):
            occ[t:t + d, s] += p
            t += d
        if censored:
            occ[t:, states[-1]] += p
    return occ / Z, math.log(Z)


def oracle_filter(params: HmmParams, y):
    """Probability-domain forward filter, (T, J)."""
    sd = math.sqrt(params.sigma2)
    cur = params.init * norm.pdf(y[0], params.theta, sd)
    out = [cur / cur.sum()]
    for t in range(1, len(y)):
        cur = (params.pi.T @ out[-1]) * norm.pdf(y[t], params.theta, sd)
        out.append(cur / cur.sum())
    return np.array(out)


def apf_hmm_filter(params: HmmParams, y, n_particles, rng):
    """Fully adapted auxiliary filter with known parameters; empirical
    filtering marginals, (T, J)."""
    J = params.J
    sd = math.sqrt(params.sigma2)
    probs0, _ = optimal_proposal_hmm(None, params, float(y[0]))
    ens = uniform_ensemble(rng.choice(J, size=n_particles, p=probs0), n=1)

    def log_predictive(particles, yt):
        likv = norm.pdf(yt, params.theta, sd)
        return np.log((params.pi @ likv)[particles])

    def propose(particles, yt, prng):
        likv = norm.pdf(yt, params.theta, sd)
        rows = params.pi[particles] * likv[None, :]
        rows /= rows.sum(axis=1, keepdims=True)
        u = prng.random(len(particles))
        return np.minimum((u[:, None] > np.cumsum(rows, axis=1)).sum(axis=1), J - 1)

    marg = [np.bincount(ens.particles, weights=ens.weights, minlength=J)]
    for t in range(1, len(y)):
        ens = apf_step(ens, float(y[t]), log_predictive, propose, rng)
        marg.append(np.bincount(ens.particles, weights=ens.weights, minlength=J))
    return np.array(marg)


def tv_dicts(p: dict, q: dict) -> float:
    keys = set(p) | set(q)
    return 0.5 * sum(abs(p.get(k, 0.0) - q.get(k, 0.0)) for k in keys)


def rel_close(got, want, tol):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    return np.abs(got - want) <= tol * np.maximum(np.abs(want), 1.0)


def make_hmm():
    return HmmParams(
        pi=np.array([[0.82, 0.18], [0.25, 0.75]]),
        theta=np.array([0.0, 2.5]),
        sigma2=1.0,
        init=np.array([0.6, 0.4]),
    )


def make_hsmm():
    durations = (
        DurationParams(phi=0.6, lam=2.2, r=2, vphi=0.45),
        DurationParams(phi=0.3, lam=1.4, r=2, vphi=0.35),
    )
    return HsmmParams(
        pi_bar=np.array([[0.0, 1.0], [1.0, 0.0]]),
        theta=np.array([0.0, 2.5]),
        sigma2=1.0,
        durations=durations,
        init=np.array([0.55, 0.45]),
    )


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------


def test_criterion_01_messages_match_enumeration():
    """Chain and segment message passes agree with exhaustive enumeration
    to 1e-9 relative on J=2, T<=5; under one second all told."""
    t0 = time.perf_counter()
    hmm = make_hmm()
    rng = stream(101, "c1")
    for T in (1, 2, 3, 4, 5):
        y = rng.normal(1.0, 1.6, size=T)
        paths, w = enumerate_hmm_paths(hmm, y)
        Z = w.sum()
        want = np.array([
            [w[paths[:, t] == j].sum() for j in range(2)] for t in range(T)
        ]) / Z
        alphal = forward_messages(hmm, y)
        betal = backward_messages(hmm, y)
        assert rel_close(hmm_loglik(hmm, y), math.log(Z), 1e-9).all()
        # forward and backward routes each reproduce the evidence alone
        assert rel_close(logsumexp(alphal[-1]), math.log(Z), 1e-9).all()
        head = (np.log(hmm.init) + normal_logpdf(y[0], hmm.theta, hmm.sigma2)
                + betal[0])
        assert rel_close(logsumexp(head), math.log(Z), 1e-9).all()
        assert rel_close(smoothing_marginals(alphal, betal), want, 1e-9).all()

    hs = make_hsmm()
    for T in (2, 3, 4, 5):
        y = rng.normal(1.2, 1.5, size=T)
        want, logZ = oracle_hsmm_smoothing(hs, y)
        assert rel_close(hsmm_loglik(hs, y), logZ, 1e-9).all()
        assert rel_close(hsmm_smoothed_marginals(hs, y), want, 1e-9).all()
    assert time.perf_counter() - t0 < 1.0


def test_criterion_02_blocked_draws_match_enumerated_laws():
    """10^5 exact joint draws land within TV 0.02 of the enumerated
    posterior for both the chain path and the segmentation; under 60 s."""
    t0 = time.perf_counter()
    n = 100_000

    hmm = make_hmm()
    y = np.array([0.1, 2.2, 1.9, -0.3])
    paths, w = enumerate_hmm_paths(hmm, y)
    wpost = w / w.sum()
    code = np.array([8, 4, 2, 1])
    want = {int(p @ code): float(q) for p, q in zip(paths, wpost)}
    betal = backward_messages(hmm, y)
    rng = stream(102, "c2-chain")
    hits = np.zeros(16)
    for _ in range(n):
        hits[int(blocked_sample_states(hmm, y, rng, betal=betal) @ code)] += 1
    emp = {k: hits[k] / n for k in range(16)}
    assert tv_dicts(emp, want) < 0.02

    hs = make_hsmm()
    y = np.array([0.2, 2.3, 2.1, 0.1])
    segs = enumerate_segmentations(hs, y)
    Z = sum(p for *_, p in segs)
    want = {(s, d, c): p / Z for s, d, c, p in segs}
    messages = hsmm_backward_messages(hs, y)
    rng = stream(103, "c2-segments")
    freq: dict = {}
    for _ in range(n):
        path = blocked_sample_segments(hs, y, rng, messages=messages)
        censored = int(path.D.sum()) > path.T
        durs = tuple(path.D[:-1]) if censored else tuple(path.D)
        sig = (tuple(path.z), durs, censored)
        freq[sig] = freq.get(sig, 0) + 1
    emp = {k: v / n for k, v in freq.items()}
    assert set(emp) <= set(want)
    assert tv_dicts(emp, want) < 0.02
    assert time.perf_counter() - t0 < 60.0


def test_criterion_03_geometric_durations_reduce_to_chain():
    """Geometric segment lengths collapse the segment model onto the chain
    with self-loop mass v: marginals agree to 1e-8 on J=2, T=50."""
    J, T = 2, 50
    v = np.array([0.7, 0.45])
    pi_bar = np.array([[0.0, 1.0], [1.0, 0.0]])
    durations = tuple(
        DurationParams(phi=0.0, lam=1.0, r=1, vphi=float(v[j])) for j in range(J)
    )
    theta = np.array([0.0, 2.0])
    init = np.array([0.35, 0.65])
    hs = HsmmParams(pi_bar=pi_bar, theta=theta, sigma2=1.0,
                    durations=durations, init=init)
    P = v[:, None] * np.eye(J) + (1 - v)[:, None] * pi_bar
    hm = HmmParams(pi=P, theta=theta, sigma2=1.0, init=init)

    y = stream(104, "c3").normal(1.0, 1.5, size=T)
    want = smoothing_marginals(forward_messages(hm, y), backward_messages(hm, y))
    assert np.abs(hsmm_smoothed_marginals(hs, y) - want).max() < 1e-8
    assert abs(hsmm_loglik(hs, y) - hmm_loglik(hm, y)) < 1e-8


def _grid_moments(grid, logpost):
    w = np.exp(logpost - logpost.max())
    Z = simpson(w, x=grid)
    m1 = simpson(w * grid, x=grid) / Z
    m2 = simpson(w * grid**2, x=grid) / Z
    return m1, math.sqrt(max(m2 - m1 * m1, 0.0))


def test_criterion_04_conjugate_updates_match_quadrature():
    """Each conjugate update reproduces the quadrature posterior's mean and
    standard deviation within 1e-6 on a scalar case."""
    # Normal mean, known variance
    prior, sigma2 = NormalPrior(1.0, 4.0), 2.0
    obs = np.array([0.3, 2.1, -0.5])
    post = conj_update_normal(prior, float(obs.sum()), len(obs), sigma2)
    grid = np.linspace(-14.0, 16.0, 200_001)
    logp = normal_logpdf(grid, prior.mean, prior.var)
    for yv in obs:
        logp = logp + normal_logpdf(yv, grid, sigma2)
    m, s = _grid_moments(grid, logp)
    assert abs(m - post.mean) < 1e-6
    assert abs(s - math.sqrt(post.var)) < 1e-6
    assert conj_update_normal(prior, 0.0, 0, sigma2) == prior

    # Dirichlet-categorical, two cells (scalar first coordinate)
    alpha = np.array([1.5, 2.5])
    counts = np.array([3.0, 1.0])
    a, b = conj_update_dirichlet(alpha, counts)
    grid = np.linspace(1e-9, 1.0 - 1e-9, 200_001)
    logp = ((alpha[0] - 1.0) * np.log(grid) + (alpha[1] - 1.0) * np.log1p(-grid)
            + counts[0] * np.log(grid) + counts[1] * np.log1p(-grid))
    m, s = _grid_moments(grid, logp)
    assert abs(m - a / (a + b)) < 1e-6
    assert abs(s - math.sqrt(a * b / ((a + b) ** 2 * (a + b + 1.0)))) < 1e-6

    # Gamma rate for Poisson counts
    hyper = (2.0, 1.5)
    data = np.array([1, 4, 2])
    a, b = conj_update_gamma_poisson(hyper, int(data.sum()), len(data))
    grid = np.linspace(1e-9, 30.0, 200_001)
    logp = (hyper[0] - 1.0) * np.log(grid) - hyper[1] * grid
    for d in data:
        logp = logp + poisson_logpmf(int(d), grid)
    m, s = _grid_moments(grid, logp)
    assert abs(m - a / b) < 1e-6
    assert abs(s - math.sqrt(a) / b) < 1e-6

    # Beta success parameter for fixed-r negative binomial counts
    hyper, r = (2.0, 3.0), 2
    data = np.array([1, 3, 2])
    a, b = conj_update_beta_negbin(hyper, int(data.sum()), len(data), r)
    grid = np.linspace(1e-9, 1.0 - 1e-9, 200_001)
    logp = (hyper[0] - 1.0) * np.log(grid) + (hyper[1] - 1.0) * np.log1p(-grid)
    for d in data:
        logp = logp + negbin_logpmf(int(d), r, grid)
    m, s = _grid_moments(grid, logp)
    assert abs(m - a / (a + b)) < 1e-6
    assert abs(s - math.sqrt(a * b / ((a + b) ** 2 * (a + b + 1.0)))) < 1e-6


def test_criterion_05_table_count_sampler_matches_stirling_pmf():
    """The Bernoulli-product table-count draw matches the Stirling-number
    pmf within TV 0.005 at 10^6 draws per case; under 30 s."""
    t0 = time.perf_counter()
    rng = stream(105, "c5")
    for w in (0.1, 1.0, 10.0):
        for n in range(1, 7):
            pmf = antoniak_pmf(n, w)
            draws = sample_m(n, w, rng, size=1_000_000)
            emp = np.bincount(draws, minlength=n + 1) / 1_000_000
            assert 0.5 * np.abs(emp - pmf).sum() < 0.005
    assert time.perf_counter() - t0 < 30.0


def test_criterion_06_sweep_preserves_discretized_posterior():
    """On the enumerable two-state instance with capped self-loop
    auxiliaries, pushing the discretized joint posterior of
    (beta_1, pi_00, pi_11) through one sweep returns the same discretized
    law within quadrature tolerance 1e-3 in TV.

    The push-forward is computed in closed form: the capped-geometric and
    table-count stages have finite support, the Beta/Dirichlet stages
    integrate via regularized incomplete beta functions, and the shared-weight
    integral uses a composite Gauss-Legendre rule.
    """
    gamma, conc, R = 2.0, 3.0, 20
    D = R + 1          # diagonal count support 0..R
    ds = np.arange(D)

    # composite Gauss-Legendre rule over (0,1): 16 cells x 6 nodes
    nb, nn = 16, 6
    xg, wgl = np.polynomial.legendre.leggauss(nn)
    h = 1.0 / nb
    eb = np.linspace(0.0, 1.0, nb + 1)
    bg = (eb[:-1, None] + (xg[None, :] + 1.0) * (h / 2.0)).ravel()
    wb = np.tile(wgl * h / 2.0, nb)
    cell_of = np.repeat(np.arange(nb), nn)

    a1 = conc * bg          # row-0 diagonal pseudo-count at each node
    c1 = conc * (1.0 - bg)  # row-1 diagonal pseudo-count

    # incoming stage: joint of (d1, m1, d2, m2) under the target.
    # h1[g, d] integrates the row-0 Beta prior against q^d (1-q); the
    # truncation factor of the target cancels the capped-geometric
    # normalizer, leaving exactly this polynomial moment.
    lh1 = betaln(a1[:, None] + ds[None, :], c1[:, None] + 1.0) \
        - betaln(a1, c1)[:, None]
    lh2 = betaln(c1[:, None] + ds[None, :], a1[:, None] + 1.0) \
        - betaln(c1, a1)[:, None]
    A1 = np.zeros((len(bg), D, D))
    A2 = np.zeros((len(bg), D, D))
    for g in range(len(bg)):
        for d in range(D):
            A1[g, d, :d + 1] = antoniak_pmf(d, a1[g])
            A2[g, d, :d + 1] = antoniak_pmf(d, c1[g])
    A1 *= np.exp(lh1)[:, :, None]
    A2 *= np.exp(lh2)[:, :, None]
    V = np.einsum("g,gab,gcd->abcd", wb, A1, A2)
    Z = V.sum()

    # outgoing stage on the output grid: 16 cells in b', 20 in each q
    nq = 20
    eq = np.linspace(0.0, 1.0, nq + 1)
    ms = np.arange(D)
    # with gamma/L = 1 and both off-diagonal table counts surely 1, the
    # shared weight resamples as Beta(m1 + 2, m2 + 2)
    lfb = ((ms[None, :, None] + 1.0) * np.log(bg)[:, None, None]
           + (ms[None, None, :] + 1.0) * np.log1p(-bg)[:, None, None]
           - betaln(ms[:, None] + 2.0, ms[None, :] + 2.0)[None, :, :])
    FB = np.exp(lfb)
    P1 = betainc(a1[:, None, None] + ds[None, :, None],
                 c1[:, None, None] + 1.0, eq[None, None, :])
    Q1 = np.diff(P1, axis=2)
    P2 = betainc(c1[:, None, None] + ds[None, :, None],
                 a1[:, None, None] + 1.0, eq[None, None, :])
    Q2 = np.diff(P2, axis=2)

    M_out = np.zeros((nb, nq, nq))
    for g in range(len(bg)):
        U = np.einsum("abcd,bd->ac", V, FB[g])
        M_out[cell_of[g]] += wb[g] * (Q1[g].T @ U @ Q2[g])
    M_out /= Z

    # target cell masses: Beta prior cells minus the q^(R+1) moment term
    lr1 = betaln(a1 + R + 1.0, c1) - betaln(a1, c1)
    lr2 = betaln(c1 + R + 1.0, a1) - betaln(c1, a1)
    G1 = (np.diff(betainc(a1[:, None], c1[:, None] + 0.0, eq[None, :]), axis=1)
          - np.exp(lr1)[:, None]
          * np.diff(betainc(a1[:, None] + R + 1.0, c1[:, None], eq[None, :]), axis=1))
    G2 = (np.diff(betainc(c1[:, None], a1[:, None] + 0.0, eq[None, :]), axis=1)
          - np.exp(lr2)[:, None]
          * np.diff(betainc(c1[:, None] + R + 1.0, a1[:, None], eq[None, :]), axis=1))
    M_tgt = np.zeros((nb, nq, nq))
    for g in range(len(bg)):
        M_tgt[cell_of[g]] += wb[g] * np.outer(G1[g], G2[g])
    Zt = M_tgt.sum()
    M_tgt /= Zt

    # the two normalizers integrate the same function of b
    assert abs(Z - Zt) <= 1e-9 * Zt
    assert 0.5 * np.abs(M_out - M_tgt).sum() <= 1e-3

    # glue to the executable sweep: from a fixed point of the augmented
    # state, the sampled next-step marginals match the same closed-form
    # conditionals the quadrature used
    b0, q1v, q2v = 0.45, 0.62, 0.30
    hdp0 = WeakLimitHdp(gamma=gamma, alpha=conc,
                        beta=np.array([b0, 1.0 - b0]),
                        pi=np.array([[q1v, 1.0 - q1v], [1.0 - q2v, q2v]]))
    counts = np.array([[0, 1], [1, 0]])
    rng = stream(106, "c6-glue")
    n = 20_000
    bs = np.empty(n)
    q1s = np.empty(n)
    for i in range(n):
        nxt = hdp_sweep(hdp0, counts, rng, rho_cap=R)
        bs[i] = nxt.beta[0]
        q1s[i] = nxt.pi[0, 0]

    def trunc_geom(q):
        p = q ** ds * (1.0 - q)
        return p / p.sum()

    pd1, pd2 = trunc_geom(q1v), trunc_geom(q2v)
    ant1 = np.zeros((D, D))
    ant2 = np.zeros((D, D))
    for d in range(D):
        ant1[d, :d + 1] = antoniak_pmf(d, conc * b0)
        ant2[d, :d + 1] = antoniak_pmf(d, conc * (1.0 - b0))
    pm1 = pd1 @ ant1
    pm2 = pd2 @ ant2
    ebins = np.linspace(0.0, 1.0, 9)
    bcdf = betainc(ms[:, None, None] + 2.0, ms[None, :, None] + 2.0,
                   ebins[None, None, :])
    want_b = np.einsum("a,b,abe->e", pm1, pm2, np.diff(bcdf, axis=2))
    emp_b = np.histogram(bs, bins=ebins)[0] / n
    assert 0.5 * np.abs(emp_b - want_b).sum() < 0.03

    # q1 route additionally exercises the refreshed rows
    pdm = pd1[:, None] * ant1                      # joint (d1, m1)
    fbm = np.einsum("c,gbc->gb", pm2, FB)          # (nodes, m1)
    want_q1 = np.einsum("g,ab,gb,gaj->j", wb, pdm, fbm, Q1)
    emp_q1 = np.histogram(q1s, bins=eq)[0] / n
    assert 0.5 * np.abs(emp_q1 - want_q1).sum() < 0.03


def test_criterion_07_particle_filter_tracks_exact_filter():
    """Adapted auxiliary filtering marginals approach the exact filter:
    mean TV under 0.05 at N=10^3 and 0.02 at N=10^4 on J=2, T=50, with an
    error-vs-N slope in [-0.7, -0.3]."""
    params = make_hmm()
    _, y = simulate_hmm(params, 50, stream(107, "c7-data"))
    exact = oracle_filter(params, y)

    def mean_tv(N, seed):
        got = apf_hmm_filter(params, y, N, stream(seed, "c7-run"))
        return float(0.5 * np.abs(got - exact).sum(axis=1).mean())

    assert mean_tv(1_000, 0) < 0.05
    assert mean_tv(10_000, 1) < 0.02

    Ns = np.array([250, 1_000, 4_000, 16_000])
    errs = np.array([
        np.mean([mean_tv(int(N), 10 + 7 * i + r) for r in range(4)])
        for i, N in enumerate(Ns)
    ])
    slope = np.polyfit(np.log(Ns), np.log(errs), 1)[0]
    assert -0.7 <= slope <= -0.3


def test_criterion_08_imputed_emissions_sum_to_aggregate():
    """Every particle's imputed per-chain emissions sum to the observed
    aggregate within 1e-9 at each of 10^3 streaming steps."""
    priors = [
        ChainPrior(np.full((2, 2), 2.0), (NormalPrior(0, 4), NormalPrior(3, 4)), 0.5),
        ChainPrior(np.full((2, 2), 2.0), (NormalPrior(0, 4), NormalPrior(1, 4)), 0.3),
        ChainPrior(np.full((3, 3), 2.0),
                   (NormalPrior(0, 4), NormalPrior(2, 4), NormalPrior(5, 4)), 0.7),
    ]
    filt = FactorialBpf(priors, n_particles=64, rng=stream(108, "c8"))
    rng = stream(109, "c8-data")
    worst = 0.0
    for t in range(1_000):
        ybar = float(3.0 + 2.0 * math.sin(t / 9.0) + rng.normal(0, 0.5))
        filt.step(ybar)
        worst = max(worst, float(np.abs(filt.emis.sum(axis=1) - ybar).max()))
    assert worst < 1e-9


def test_criterion_09_per_step_cost_does_not_grow_with_history():
    """Median per-step wall time around step 10^5 stays within 20% of the
    median around step 10^3 at fixed particle count."""
    priors = [
        ChainPrior(np.full((2, 2), 2.0), (NormalPrior(0, 4), NormalPrior(3, 4)), 0.5),
        ChainPrior(np.full((2, 2), 2.0), (NormalPrior(0, 4), NormalPrior(1, 4)), 0.5),
    ]
    filt = FactorialBpf(priors, n_particles=128, rng=stream(110, "c9"))
    total = 100_300
    ys = stream(111, "c9-data").normal(3.0, 1.0, size=total)
    times = np.empty(total)
    gc.collect()
    gc.disable()
    try:
        prev = time.perf_counter()
        for t in range(total):
            filt.step(float(ys[t]))
            now = time.perf_counter()
            times[t] = now - prev
            prev = now
    finally:
        gc.enable()
    early = float(np.median(times[700:1_300]))
    late = float(np.median(times[99_700:100_300]))
    assert 0.8 * early <= late <= 1.2 * early


def _dominant_house_bundle():
    """Four devices, the largest other load exactly one tenth the dominant
    one's running power."""
    def dur(a_lam):
        return DurationHyper(a_phi=2.0, b_phi=2.0, a_lam=a_lam, b_lam=2.0,
                             a_vphi=2.0, b_vphi=6.0, r=2)

    def dev(name, means, taus, sigma2, lam_scale):
        M = len(means)
        em = EmissionMixturePrior(
            weights=np.full(M, 1.0 / M),
            components=tuple(NormalPrior(m, t) for m, t in zip(means, taus)),
        )
        dm = DurationMixturePrior(weights=np.array([1.0]),
                                  components=(dur(lam_scale * 2.0),))
        return DeviceBundle(name=name, emission_mix=em, duration_mix=dm,
                            alpha=1.0, sigma2=sigma2, r=2)

    return HyperParamBundle(devices=(
        dev("dominant", (0.0, 5000.0), (400.0, 10000.0), 2500.0, 8.0),
        dev("heater", (0.0, 200.0, 500.0), (100.0, 400.0, 900.0), 400.0, 6.0),
        dev("fridge", (0.0, 150.0), (25.0, 100.0), 100.0, 10.0),
        dev("washer", (0.0, 100.0, 400.0), (100.0, 400.0, 900.0), 400.0, 4.0),
    ))


def test_criterion_10_dominant_device_recovered():
    """Streaming disaggregation of a four-device house whose dominant load
    runs at ten times the others: dominant state accuracy above 85% on
    T=5000 with N=2000 particles, within ten minutes."""
    t0 = time.perf_counter()
    bundle = _dominant_house_bundle()
    house = synth_generate(bundle, 5_000, stream(112, "c10-house"))
    tr = Trace(start=START, devices=house.devices, values=house.values,
               total=house.total, sessions=((0, 5_000),))
    res = disaggregate(tr, bundle, 2_000, stream(113, "c10"),
                       truth_states=house.states)
    assert res.metrics["dominant"]["state_accuracy"] > 0.85
    assert time.perf_counter() - t0 < 600.0


def test_criterion_11_controlled_kernel_identities():
    """Zero tilt returns the nominal kernel bitwise, shifting all powers by
    a constant leaves the tilt invariant bitwise, and the kernel derivative
    matches central differences to 1e-7."""
    def build(offset=0.0):
        R0 = np.array([
            [0.85, 0.15],
            [0.85, 0.15],
            [0.30, 0.70],
            [0.30, 0.70],
        ])
        Q0 = np.array([
            [0.9, 0.1],
            [0.4, 0.6],
            [0.9, 0.1],
            [0.4, 0.6],
        ])
        return product_model(R0, Q0, np.array([0.0, 4.0]) + offset)

    model = build()
    assert np.array_equal(tilted_controllable(model, 0.0), model.R0)
    P0 = controlled_kernel(model, 0.0)
    assert np.array_equal(P0, model.R0[:, model.xu_of] * model.Q0[:, model.xn_of])

    shifted = build(offset=2.0)
    for zeta in (0.5, -1.0, 2.0):
        assert np.array_equal(tilted_controllable(model, zeta),
                              tilted_controllable(shifted, zeta))

    h = 1e-5
    for zeta in (0.0, 0.4, -0.8):
        E = kernel_derivative(model, zeta)
        fd = (controlled_kernel(model, zeta + h)
              - controlled_kernel(model, zeta - h)) / (2 * h)
        assert np.abs(E - fd).max() < 1e-7


def test_criterion_12_linear_response_matches_simulation():
    """DC gain agrees with the nonlinear steady-state sensitivity within 1%,
    and the gap between finite fleets and the mean-field trajectory shrinks
    like one over the square root of the fleet size."""
    chain = NominalLoadModel(R0=np.array([[0.9, 0.1], [0.2, 0.8]]),
                             Q0=np.ones((2, 1)), U=np.array([0.0, 4.0]),
                             xu_of=np.array([0, 1]), xn_of=np.array([0, 0]))
    tcl = tcl_nominal_model(TclConfig())
    for model in (chain, tcl):
        dc = transfer_function(model, 0.0, 1.0)
        assert abs(dc.imag) < 1e-12
        h = 1e-4

        def ybar(z):
            return float(invariant_pmf(controlled_kernel(model, z))
                         @ model.power_of_state)

        fd = (ybar(h) - ybar(-h)) / (2 * h)
        assert abs(dc.real - fd) < 0.01 * abs(fd)

    P = controlled_kernel(tcl, 0.1)
    pi0 = invariant_pmf(controlled_kernel(tcl, 0.0))
    u = tcl.power_of_state
    T = 120

    def run_err(n_loads, seed):
        rng = stream(seed, "c12-fleet")
        counts = rng.multinomial(n_loads, pi0)
        mf = MeanFieldState(mu=pi0, y=float(pi0 @ u))
        errs = []
        for _ in range(T):
            counts = fleet_counts_step(counts, P, rng)
            mf = mean_field_step(mf, tcl, 0.1)
            errs.append(abs(counts @ u / n_loads - mf.y))
        return float(np.mean(errs))

    Ns = np.array([400, 4_000, 40_000])
    errs = np.array([np.mean([run_err(int(N), 3 * i + r) for r in range(3)])
                     for i, N in enumerate(Ns)])
    slope = np.polyfit(np.log(Ns), np.log(errs), 1)[0]
    assert -0.75 <= slope <= -0.25


def test_criterion_13_closed_loop_tracks_reference():
    """The fitted PI gains track the sinusoidal flat-band reference with
    normalized RMS error under 0.15 after the transient on a 10^4-load
    fleet over 1440 steps; under five minutes."""
    t0 = time.perf_counter()
    res = simulate_control(ControlConfig(), stream(114, "c13"))
    assert res["n_loads"] == 10_000
    assert len(res["traces"]["y"]) == 1_440
    assert res["nrms"] < 0.15
    assert time.perf_counter() - t0 < 300.0


def test_criterion_14_reruns_are_byte_identical(tmp_path):
    """Every pipeline command rerun with the same config and seed writes
    byte-identical files."""
    runner = CliRunner()
    cfg_doc = {
        "seed": 9,
        "horizon": 200,
        "particles": 60,
        "sweeps": 8,
        "burn_in": 5,
        "weak_limit": 4,
        "devices": [{"name": "refrigerator", "n_states": 2, "sigma2": 100.0}],
        "control": {"n_loads": 150, "steps": 48, "transient": 16, "hook": "none"},
    }
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(cfg_doc))

    def run(args):
        r = runner.invoke(cli_main, args)
        assert r.exit_code == 0, r.output

    outs = {}
    for tag in ("a", "b"):
        d = tmp_path / tag
        d.mkdir()
        trace = d / "house.csv"
        run(["synth", "--config", str(cfg), "--out", str(trace),
             "--states-out", str(d / "states.csv")])
        run(["usage", str(trace), "--out", str(d / "usage.csv")])
        run(["train", str(trace), "--config", str(cfg),
             "--out", str(d / "bundle.json")])
        run(["disagg", str(trace), "--config", str(cfg),
             "--states", str(d / "states.csv"),
             "--out", str(d / "disagg.csv"),
             "--metrics-out", str(d / "metrics.json")])
        run(["control", "--config", str(cfg), "--out", str(d / "control.csv")])
        run(["bode", "--points", "40", "--out", str(d / "bode.csv")])
        outs[tag] = sorted(p.name for p in d.iterdir())

    assert outs["a"] == outs["b"]
    for name in outs["a"]:
        assert (tmp_path / "a" / name).read_bytes() == \
            (tmp_path / "b" / name).read_bytes(), name
