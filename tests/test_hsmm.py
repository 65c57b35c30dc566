"""Segment-model messages and sampling against a censored-segmentation
enumeration oracle.

The oracle lists every segmentation of a short horizon: exact ones whose
durations sum to T, plus right-censored ones whose final segment overruns
with the matching survival weight. Summed, these give the likelihood; with
occupancy bookkeeping, the smoothing marginals. The duration law itself is
checked against ``scipy.stats`` and against a compensated complement sum.
"""

import itertools
import math
import signal

import hdp_reference
import numpy as np
import pytest
from hmm_reference import (
    HmmParams,
    backward_messages,
    forward_messages,
    loglik as hmm_loglik,
    smoothing_marginals,
)
from hsmm_reference import (
    blocked_sample_segments_loop_reference,
    hsmm_loglik,
    hsmm_smoothed_marginals,
)
from hypothesis import given, settings, strategies as st
from scipy.special import logsumexp
from scipy.stats import nbinom, norm, poisson

from powersplit import _kernels
from powersplit._kernels import _pure
from powersplit.hsmm import (
    DurationHyper,
    DurationParams,
    HsmmParams,
    blocked_sample_segments,
    duration_tables,
    hsmm_backward_messages,
    poisson_label_probs,
    sample_duration_params,
    simulate_hsmm,
)
from powersplit.rng import stream


# ---------------------------------------------------------------------------
# oracle
# ---------------------------------------------------------------------------


def enumerate_segmentations(params: HsmmParams, y):
    """Yield (signature, probability) for every censored segmentation.

    signature = (states, durations, censored flag); durations of censored
    segmentations cover the prefix only.
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
            if prev is None:
                pj = params.init[j]
            else:
                pj = params.pi_bar[prev, j]
            if pj == 0:
                continue
            # censored: this segment overruns the horizon
            tailp = math.exp(params.durations[j].logtail(T - t))
            p_c = prob * pj * tailp * emis(j, t, T)
            out.append(((*states, j), tuple(durs), True, p_c))
            # exact durations that keep the segmentation inside the horizon
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


def oracle_hsmm_loglik(params, y):
    return math.log(sum(p for *_, p in enumerate_segmentations(params, y)))


def oracle_hsmm_smoothing(params, y):
    segs = enumerate_segmentations(params, y)
    Z = sum(p for *_, p in segs)
    T, J = len(y), params.J
    occ = np.zeros((T, J))
    for states, durs, censored, p in segs:
        t = 0
        for s, d in zip(states, durs):
            occ[t : t + d, s] += p
            t += d
        if censored:
            occ[t:, states[-1]] += p
    return occ / Z


def oracle_segment_posterior(params, y):
    segs = enumerate_segmentations(params, y)
    Z = sum(p for *_, p in segs)
    return {(s, d, c): p / Z for s, d, c, p in segs}


def scipy_duration_logpmf(dur: DurationParams, d) -> np.ndarray:
    """The duration law through ``scipy.stats``: each component's pmf over
    its mass on d >= 1, mixed with weight phi."""
    d = np.asarray(d)
    parts = []
    if dur.phi > 0:
        parts.append(math.log(dur.phi) + poisson.logpmf(d, dur.lam)
                     - math.log(-math.expm1(-dur.lam)))
    if dur.phi < 1:
        parts.append(math.log1p(-dur.phi) + nbinom.logpmf(d, dur.r, 1.0 - dur.vphi)
                     - math.log(-math.expm1(dur.r * math.log1p(-dur.vphi))))
    return logsumexp(np.stack(parts), axis=0)


def scipy_duration_logtail(dur: DurationParams, m) -> np.ndarray:
    """log P(D > m) through the ``scipy.stats`` survival functions."""
    m = np.asarray(m)
    parts = []
    with np.errstate(divide="ignore"):
        if dur.phi > 0:
            parts.append(math.log(dur.phi) + poisson.logsf(m, dur.lam)
                         - math.log(-math.expm1(-dur.lam)))
        if dur.phi < 1:
            parts.append(math.log1p(-dur.phi) + nbinom.logsf(m, dur.r, 1.0 - dur.vphi)
                         - math.log(-math.expm1(dur.r * math.log1p(-dur.vphi))))
    return logsumexp(np.stack(parts), axis=0)


def duration_tail_by_complement(dur: DurationParams, dmax: int) -> np.ndarray:
    """P(D > m) for m = 0..dmax via 1 - compensated cumulative sum of the pmf."""
    pmf = np.exp(dur.logpmf(np.arange(1, dmax + 1)))
    tails = np.empty(dmax + 1)
    tails[0] = 1.0
    acc = 0.0
    comp = 0.0  # Kahan compensation
    for i, p in enumerate(pmf):
        y = p - comp
        t = acc + y
        comp = (t - acc) - y
        acc = t
        tails[i + 1] = 1.0 - acc
    return tails


def make_hsmm(seed=0, J=2):
    rng = np.random.default_rng(seed)
    pi_bar = np.zeros((J, J))
    for j in range(J):
        row = rng.dirichlet(np.ones(J - 1)) if J > 2 else np.array([1.0])
        pi_bar[j, np.arange(J) != j] = row
    durations = tuple(
        DurationParams(phi=rng.uniform(0.2, 0.8), lam=rng.uniform(1.0, 3.0),
                       r=2, vphi=rng.uniform(0.2, 0.6))
        for _ in range(J)
    )
    theta = np.arange(J) * 2.5
    init = rng.dirichlet(np.ones(J))
    return HsmmParams(pi_bar=pi_bar, theta=theta, sigma2=1.0,
                      durations=durations, init=init)


# ---------------------------------------------------------------------------
# duration distribution basics
# ---------------------------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(st.floats(0.0, 1.0), st.floats(0.2, 8.0), st.integers(1, 4), st.floats(0.05, 0.9))
def test_duration_pmf_normalizes_and_tail_matches(phi, lam, r, vphi):
    dur = DurationParams(phi=phi, lam=lam, r=r, vphi=vphi)
    d = np.arange(1, 2000)
    pmf = np.exp(dur.logpmf(d))
    assert abs(pmf.sum() - 1.0) < 1e-9
    assert np.exp(dur.logpmf(0)) == 0.0
    tails = np.exp(dur.logtail(np.arange(0, 30)))
    want = duration_tail_by_complement(dur, 29)
    assert np.abs(tails - want).max() < 1e-9


def test_duration_law_matches_scipy_stats():
    # the grid includes both one-component edges, phi = 0 and phi = 1. Values
    # below 1e-300 are left out: there the scipy.stats negative-binomial
    # survival function loses digits on the way to underflow (nbdtrc agrees
    # with a 50-digit incomplete-beta evaluation where it does not)
    d = np.arange(1, 201)
    m = np.arange(0, 201)
    log_tiny = math.log(1e-300)
    for phi, lam, r, vphi in itertools.product(
            (0.0, 0.3, 0.8, 1.0), (0.05, 1.0, 4.0, 30.0), (1, 2, 5), (0.01, 0.3, 0.6, 0.95)):
        dur = DurationParams(phi=phi, lam=lam, r=r, vphi=vphi)
        for got, want in ((dur.logpmf(d), scipy_duration_logpmf(dur, d)),
                          (dur.logtail(m), scipy_duration_logtail(dur, m))):
            keep = want > log_tiny
            assert np.all(np.isfinite(got[keep]))
            err = np.abs(got[keep] - want[keep])
            assert np.all(err <= 1e-12 * np.abs(want[keep]) + 1e-15), (phi, lam, r, vphi)


def test_duration_mean_matches_series():
    dur = DurationParams(phi=0.4, lam=3.0, r=2, vphi=0.5)
    d = np.arange(1, 5000)
    series = float((d * np.exp(dur.logpmf(d))).sum())
    assert abs(dur.mean() - series) < 1e-9


def test_duration_sampler_matches_pmf():
    dur = DurationParams(phi=0.5, lam=2.0, r=2, vphi=0.4)
    draws = dur.sample(stream(0, "dur"), 200_000)
    assert draws.min() >= 1
    hi = 25
    freq = np.bincount(draws, minlength=hi + 1)[1 : hi + 1] / len(draws)
    pmf = np.exp(dur.logpmf(np.arange(1, hi + 1)))
    assert 0.5 * np.abs(freq - pmf).sum() < 0.01


@pytest.mark.parametrize("lam, vphi", [(1e-50, 0.4), (2.0, 1e-50), (1e-5, 0.4)])
def test_duration_sampler_inverts_components_that_rarely_reach_one(lam, vphi):
    # rejection of zeros would redraw about 1 / P(component >= 1) times per
    # length, up to 1e50 times here; the alarm turns a hang into a failure
    def hang(signum, frame):
        raise TimeoutError("DurationParams.sample did not return")

    dur = DurationParams(phi=0.5, lam=lam, r=2, vphi=vphi)
    before = signal.signal(signal.SIGALRM, hang)
    signal.setitimer(signal.ITIMER_REAL, 20.0)
    try:
        assert dur.sample(stream(1, "dur-rare"), 3).min() >= 1
        draws = dur.sample(stream(2, "dur-rare"), 20_000)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, before)
    hi = 25
    freq = np.bincount(draws, minlength=hi + 1)[1 : hi + 1] / len(draws)
    pmf = np.exp(dur.logpmf(np.arange(1, hi + 1)))
    assert draws.min() >= 1 and 0.5 * np.abs(freq - pmf).sum() < 0.015


def test_duration_tables_shapes():
    durs = (DurationParams(0.5, 2.0, 2, 0.4), DurationParams(0.2, 5.0, 1, 0.6))
    logdur, logtail = duration_tables(durs, 12)
    assert logdur.shape == (2, 12) and logtail.shape == (2, 13)
    assert np.allclose(logtail[:, 0], 0.0)
    # the memoized arrays themselves are returned, so they must be read-only
    for table in (logdur, logtail):
        with pytest.raises(ValueError, match="read-only"):
            table[0, 0] = 0.0


def test_duration_tables_match_per_state_reference():
    # the one-pass tables equal the per-state ones bit for bit, sign bits
    # included, at the phi = 0 and phi = 1 edges and for mixed r
    rng = np.random.default_rng(41)
    for i in range(300):
        durs = tuple(
            DurationParams(phi=float((0.0, 1.0, rng.random())[rng.integers(3)]),
                           lam=float(np.exp(rng.normal(1.0, 2.0))), r=int(rng.integers(1, 5)),
                           vphi=float(np.clip(rng.random(), 1e-9, 1 - 1e-9)))
            for _ in range(1 + i % 8))
        dmax = int(rng.integers(1, 250))
        for got, want in zip(duration_tables(durs, dmax),
                             hdp_reference.duration_tables(durs, dmax)):
            assert np.array_equal(got, want) and np.array_equal(np.signbit(got),
                                                                np.signbit(want)), (i, durs)
        ds = np.arange(0, dmax + 2)
        for dur in durs:
            assert np.array_equal(dur.logpmf(ds), hdp_reference.logpmf(dur, ds))
            assert np.array_equal(dur.logtail(ds), hdp_reference.logtail(dur, ds))


# ---------------------------------------------------------------------------
# messages vs the oracle
# ---------------------------------------------------------------------------


def test_hsmm_loglik_matches_enumeration():
    for seed, T in [(0, 1), (1, 2), (2, 4)]:
        params = make_hsmm(seed)
        y = np.random.default_rng(50 + seed).normal(1.0, 1.5, size=T)
        got = hsmm_loglik(params, y)
        want = oracle_hsmm_loglik(params, y)
        assert abs(got - want) < 1e-9 * max(1.0, abs(want))


def test_hsmm_smoothing_matches_enumeration():
    params = make_hsmm(3)
    y = np.random.default_rng(60).normal(1.0, 1.5, size=4)
    got = hsmm_smoothed_marginals(params, y)
    want = oracle_hsmm_smoothing(params, y)
    assert np.abs(got - want).max() < 1e-9
    assert np.abs(got.sum(axis=1) - 1.0).max() < 1e-12


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 5_000), st.integers(1, 4))
def test_hsmm_messages_match_enumeration_random(seed, T):
    params = make_hsmm(seed)
    y = np.random.default_rng(seed + 7).normal(1.0, 2.0, size=T)
    assert abs(hsmm_loglik(params, y) - oracle_hsmm_loglik(params, y)) < 1e-9
    got = hsmm_smoothed_marginals(params, y)
    assert np.abs(got - oracle_hsmm_smoothing(params, y)).max() < 1e-9


def test_duration_window_is_exact_when_it_covers_the_horizon():
    params = make_hsmm(4)
    y = np.random.default_rng(61).normal(1.0, 1.5, size=12)
    full = hsmm_loglik(params, y, dmax=None)
    assert abs(hsmm_loglik(params, y, dmax=12) - full) < 1e-12
    assert abs(hsmm_loglik(params, y, dmax=40) - full) < 1e-12


# ---------------------------------------------------------------------------
# geometric durations reduce to a chain
# ---------------------------------------------------------------------------


def test_geometric_durations_match_hmm_marginals():
    # negbin r=1 conditioned on d >= 1 is geometric; the segment model then
    # collapses to a chain with self-loop mass vphi
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

    y = np.random.default_rng(70).normal(1.0, 1.5, size=T)
    want = smoothing_marginals(forward_messages(hm, y), backward_messages(hm, y))
    got = hsmm_smoothed_marginals(hs, y)
    assert np.abs(got - want).max() < 1e-8
    assert abs(hsmm_loglik(hs, y) - hmm_loglik(hm, y)) < 1e-8


# ---------------------------------------------------------------------------
# blocked segment sampling
# ---------------------------------------------------------------------------


def test_blocked_segments_match_enumerated_law():
    params = make_hsmm(5)
    y = np.array([0.2, 2.3, 2.1, 0.1])
    post = oracle_segment_posterior(params, y)
    rng = stream(1, "hsmm-blocked")
    messages = hsmm_backward_messages(params, y)
    n = 40_000
    freq: dict = {}
    for _ in range(n):
        path = blocked_sample_segments(params, y, rng, messages=messages)
        censored = int(path.D.sum()) > path.T
        durs = tuple(path.D[:-1]) if censored else tuple(path.D)
        sig = (tuple(path.z), durs, censored)
        freq[sig] = freq.get(sig, 0) + 1
    tv = 0.5 * sum(abs(freq.get(sig, 0) / n - p) for sig, p in post.items())
    # draws outside the oracle support would show up as missing mass
    assert sum(freq.get(sig, 0) for sig in post) == n
    assert tv < 0.02


def long_segment_hsmm(seed, J):
    """Segments far longer than a short window: with dmax below what is left
    of the horizon, a censor pick then often ends inside it."""
    rng = np.random.default_rng(seed)
    pi_bar = rng.dirichlet(np.ones(J), size=J)
    np.fill_diagonal(pi_bar, 0.0)
    pi_bar /= pi_bar.sum(axis=1, keepdims=True)
    durations = tuple(DurationParams(phi=0.5, lam=float(rng.uniform(15.0, 40.0)), r=2,
                                     vphi=float(rng.uniform(0.8, 0.95)))
                      for _ in range(J))
    return HsmmParams(pi_bar=pi_bar, theta=np.arange(J) * 2.5, sigma2=1.0,
                      durations=durations)


@pytest.mark.parametrize("backend", ["pure", "native"])
def test_blocked_segments_match_the_loop_reference(monkeypatch, request, backend):
    # the block walk returns the loop's paths and leaves each generator where
    # the loop leaves it, including PCG64's buffered 32-bit half (set by the
    # small integers draw) and a generator that is not PCG64
    impl = _pure if backend == "pure" else request.getfixturevalue("compiled_kernels")
    monkeypatch.setattr(_kernels, "hsmm_forward_sample", impl.hsmm_forward_sample)
    cases = [(make_hsmm(3, J=8), 300, 200), (long_segment_hsmm(4, 3), 120, 10),
             (make_hsmm(5, J=3), 40, None), (make_hsmm(6, J=2), 1, None)]
    resumed = 0
    for i, (params, T, dmax) in enumerate(cases):
        path, y = simulate_hsmm(params, T, stream(7, "reference-sim", i))
        for seed in range(4):
            shipped, reference = (np.random.Generator(np.random.MT19937(seed)) if seed == 3
                                  else stream(seed, "reference-draw", i) for _ in range(2))
            if seed == 2:
                shipped.integers(0, 10)
                reference.integers(0, 10)
            for _ in range(3):
                got = blocked_sample_segments(params, y, shipped, dmax=dmax)
                want = blocked_sample_segments_loop_reference(params, y, reference, dmax=dmax)
                assert np.array_equal(got.z, want.z) and np.array_equal(got.D, want.D)
                if dmax is not None:
                    resumed += int(np.any(got.D[:-1] > dmax))
            for draw in (lambda g: g.integers(0, 10, 4), lambda g: g.random(4)):
                assert np.array_equal(draw(shipped), draw(reference))
    assert resumed > 0  # some walks went on after a censor pick


def test_simulate_respects_censoring_contract():
    params = make_hsmm(6)
    path, y = simulate_hsmm(params, 200, stream(2, "hsmm-sim"))
    assert path.T == 200 and len(y) == 200
    total = int(path.D.sum())
    assert total - path.D[-1] < 200 <= total
    assert len(path.x) == 200
    assert y.min() >= 0.0
    assert not np.any(path.z[1:] == path.z[:-1])


# ---------------------------------------------------------------------------
# parameter moves
# ---------------------------------------------------------------------------


def test_sample_duration_params_prior_vs_posterior():
    hyper = DurationHyper(a_phi=2.0, b_phi=2.0, a_lam=8.0, b_lam=2.0,
                          a_vphi=2.0, b_vphi=4.0, r=2)
    rng = stream(3, "durparams")
    hyper.sample_prior(rng)  # the stream position the draws below were pinned at
    # no data: fresh prior draw, statistically near the prior mean of lam
    draws = [sample_duration_params([], [], hyper, rng).lam for _ in range(4000)]
    assert abs(np.mean(draws) - 4.0) < 0.15
    # plenty of long segments push lam upward
    ds = np.full(400, 9)
    cur = DurationParams(phi=1.0, lam=4.0, r=2, vphi=0.3)
    post = sample_duration_params(ds, poisson_label_probs((cur,), ds, np.zeros(400, int)),
                                  hyper, rng)
    assert post.lam > 6.0
