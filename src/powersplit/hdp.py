"""Weak-limit hierarchical Dirichlet transition prior.

The infinite transition-matrix prior is truncated at L states: shared weights
beta ~ Dir(gamma/L, ..., gamma/L) and rows pi_j ~ Dir(alpha * beta). Gibbs
inference augments with per-transition geometric self-loop counts rho (which
rebuild the diagonal the segment model never observes) and table counts m
(sums of one Bernoulli draw per customer, whose law is the Antoniak
distribution).

Convention: m[k][j] = tables in restaurant k serving dish j, so column sums
m_dot[j] = sum_k m[k][j] drive the beta posterior.

The HDP-HSMM sweep adds blocked segment draws and conjugate per-state moves
under one Normal emission prior and one duration hyperprior. The mixture
priors are the trained bundle's types; the sweep never reads them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.special import betaln

from .distributions import (
    NormalPrior,
    assert_simplex,
    assert_simplex_rows,
    categorical_sample_logits,
    conj_update_normal,
    dirichlet_sample,
)
from .hsmm import (
    DurationHyper,
    DurationParams,
    HsmmParams,
    SegmentPath,
    blocked_sample_segments,
    poisson_label_probs,
    sample_duration_params,
)

# ---------------------------------------------------------------------------
# the weak-limit pass
# ---------------------------------------------------------------------------


def sample_beta_posterior(m: np.ndarray, gamma: float, L: int,
                          rng: np.random.Generator) -> np.ndarray:
    """beta | m ~ Dir(gamma/L + column sums of m)."""
    m = np.asarray(m, dtype=float)
    if m.shape != (L, L):
        raise ValueError("m must be (L, L)")
    return dirichlet_sample(rng, gamma / L + m.sum(axis=0))


@dataclass(frozen=True)
class WeakLimitHdp:
    """Truncated shared weights and the transition rows they tie together."""

    gamma: float
    alpha: float
    beta: np.ndarray  # (L,)
    pi: np.ndarray    # (L, L) full rows, diagonal included

    def __post_init__(self):
        beta = assert_simplex(np.asarray(self.beta, dtype=float))
        pi = np.asarray(self.pi, dtype=float)
        L = len(beta)
        if pi.shape != (L, L):
            raise ValueError("pi must be (L, L)")
        assert_simplex_rows(pi)
        if self.gamma <= 0 or self.alpha <= 0:
            raise ValueError("concentrations must be positive")
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "pi", pi)

    @property
    def L(self) -> int:
        return len(self.beta)


def sample_hdp_prior(gamma: float, alpha: float, L: int,
                     rng: np.random.Generator) -> WeakLimitHdp:
    beta = dirichlet_sample(rng, np.full(L, gamma / L))
    pi = np.vstack([dirichlet_sample(rng, alpha * beta) for _ in range(L)])
    return WeakLimitHdp(gamma=gamma, alpha=alpha, beta=beta, pi=pi)


def pi_bar_from(pi: np.ndarray) -> np.ndarray:
    """Zero the diagonal and renormalize each row (the segment model never
    self-transitions)."""
    pi = np.asarray(pi, dtype=float)
    out = pi.copy()
    np.fill_diagonal(out, 0.0)
    totals = out.sum(axis=1, keepdims=True)
    if np.any(totals <= 0):
        raise ValueError("a transition row has no off-diagonal mass")
    return out / totals


def _self_loop_totals(pjj: np.ndarray, out_counts: np.ndarray, rng: np.random.Generator,
                      cap: int | None) -> np.ndarray:
    """Each state j's self-loop auxiliaries, summed: per transition out of
    j, a Geometric on {0, 1, ...} with success probability 1 - pjj[j] by
    inverse cdf, its support truncated at {0..cap} (renormalized) when
    ``cap`` is given. The states with draws to make read one block of
    uniforms in state order; a state with no transitions out or with
    pjj = 0 draws nothing."""
    draw = (out_counts > 0) & (pjj > 0)
    counts = out_counts[draw]
    totals = np.zeros(len(pjj), dtype=np.int64)
    if not counts.size:
        return totals
    q = pjj[draw].tolist()
    u = rng.random(int(counts.sum()))
    log_q = np.repeat([math.log(p) for p in q], counts)
    if cap is None:
        vals = np.floor(np.log1p(-u) / log_q).astype(np.int64)
    else:
        mass = np.repeat([1.0 - p ** (cap + 1) for p in q], counts)
        vals = np.minimum(np.floor(np.log1p(-u * mass) / log_q).astype(np.int64), cap)
    totals[draw] = np.add.reduceat(vals, np.cumsum(counts) - counts)
    return totals


# A self-transition probability near 1 makes the self-loop auxiliaries, and
# with them a diagonal cell's customer count, astronomically large (5.8e12
# in one training sweep). The table counts read their uniforms in blocks of
# at most _BLOCK, so memory stays bounded, and a cell beyond _ONE_PER_CUSTOMER
# customers jumps from one new table to the next instead of reading one
# uniform a customer.
_BLOCK = 2**18
_ONE_PER_CUSTOMER = 2**27


def _bernoulli_sums(cells: np.ndarray, weight: np.ndarray, rng: np.random.Generator,
                    first: np.ndarray | None = None) -> np.ndarray:
    """For each cell c, the count of its customers i = first[c] ..
    first[c] + cells[c] - 1 (first defaults to 0) whose uniform lies below
    weight[c] / (weight[c] + i), from one block of uniforms the cells read in
    order."""
    starts = np.cumsum(cells) - cells
    p = np.repeat(weight, cells)
    i = np.arange(len(p), dtype=float)
    i -= np.repeat(starts if first is None else starts - first, cells)
    i += p
    np.divide(p, i, out=p)  # in place: the block can hold _BLOCK customers
    del i
    hits = rng.random(len(p)) < p
    counts = np.zeros(len(cells))
    full = cells > 0
    if full.any():
        counts[full] = np.add.reduceat(hits, starts[full], dtype=np.int64)
    return counts


def _tables_by_jumps(n: int, weight: float, rng: np.random.Generator) -> int:
    """``_bernoulli_sums``'s law for a cell of n customers, O(tables) work. The
    first customer opens a table; after a table opened at customer a, the
    customers a+1..i all join existing ones with probability S(i) =
    prod_{k=a+1..i} k / (weight + k) = B(i+1, weight) / B(a+1, weight), so
    the next table opens at the first i with S(i) < v for a fresh uniform v
    in (0, 1], found by bisection, and none opens when S(n-1) >= v."""
    tables, a = 1, 0
    while a < n - 1:
        log_v = math.log(1.0 - rng.random())
        base = float(betaln(a + 1, weight))
        if float(betaln(n, weight)) - base >= log_v:
            break
        lo, hi = a, n - 1  # S(lo) >= v > S(hi)
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if float(betaln(mid + 1, weight)) - base >= log_v:
                lo = mid
            else:
                hi = mid
        tables, a = tables + 1, hi
    return tables


def _table_counts(n: np.ndarray, weight: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """The table count of every cell (k, j) of the customer counts ``n``, at
    concentration ``weight[j]``, its ``_bernoulli_sums`` over all its
    customers, the cells in row-major order: one block of
    uniforms when they hold at most ``_BLOCK`` customers in all, else one
    cell at a time, in blocks, and by jumps beyond ``_ONE_PER_CUSTOMER``."""
    if np.any(weight <= 0):
        raise ValueError("weight must be positive")
    cells = n.astype(np.int64).ravel()
    w = np.broadcast_to(weight, n.shape).ravel()
    if cells.sum() <= _BLOCK:
        return _bernoulli_sums(cells, w, rng).reshape(n.shape)
    m = np.zeros(len(cells))
    for c, (size, wc) in enumerate(zip(cells.tolist(), w.tolist())):
        if size > _ONE_PER_CUSTOMER:
            m[c] = _tables_by_jumps(size, wc, rng)
            continue
        for first in range(0, size, _BLOCK):
            block = np.array([min(_BLOCK, size - first)])
            m[c] += _bernoulli_sums(block, np.array([wc]), rng, np.array([first]))[0]
    return m.reshape(n.shape)


def hdp_sweep(hdp: WeakLimitHdp, trans_counts: np.ndarray,
              rng: np.random.Generator, rho_cap: int | None = None) -> WeakLimitHdp:
    """One partially collapsed pass in the fixed order rho, m, beta, pi.

    ``trans_counts`` are the observed super-state transitions (zero diagonal).
    Each kind takes one generator call: a block of uniforms for every
    state's self-loop auxiliaries, one for every cell's table count (or one
    per cell and block past ``_BLOCK`` customers, see ``_table_counts``),
    then one gamma call for beta and one for all the rows of pi. The draws
    equal those of a loop that draws one state's auxiliaries, then one
    cell's count, at a time, in that order, and the generator ends where
    that loop leaves it, save for a cell of more than ``_ONE_PER_CUSTOMER``
    customers.
    """
    L = hdp.L
    n = np.asarray(trans_counts, dtype=np.int64)
    if n.shape != (L, L):
        raise ValueError("trans_counts must be (L, L)")
    if np.any(np.diag(n) != 0):
        raise ValueError("observed transitions cannot be self-loops")

    # rho: rebuild the unobserved diagonal from the current rows
    out_counts = n.sum(axis=1)
    pjj = np.diag(hdp.pi).copy()
    if np.any((pjj >= 1.0 - 1e-12) & (out_counts > 0)):
        raise ValueError("self-transition probability saturated at 1")
    pjj = np.minimum(pjj, 1.0 - 1e-12)
    if not np.all(pjj >= 0):
        raise ValueError("pi_jj must lie in [0, 1)")
    n_aug = n.astype(float)
    np.fill_diagonal(n_aug, _self_loop_totals(pjj, out_counts, rng, rho_cap))

    # m: table counts per (restaurant k, dish j)
    m = _table_counts(n_aug, hdp.alpha * hdp.beta, rng)

    beta = sample_beta_posterior(m, hdp.gamma, L, rng)
    # pi_j | beta, counts ~ Dir(alpha * beta + n_aug[j]), self-loop auxiliaries
    # on the diagonal; one standard_gamma call draws every row, in row order
    pi = dirichlet_sample(rng, hdp.alpha * beta + n_aug)
    return replace(hdp, beta=beta, pi=pi)


# ---------------------------------------------------------------------------
# full segment-model sweep under the weak-limit prior
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EmissionMixturePrior:
    """Mixture-of-Normals prior for per-state emission means."""

    weights: np.ndarray
    components: tuple[NormalPrior, ...]

    def __post_init__(self):
        w = assert_simplex(np.asarray(self.weights, dtype=float))
        if len(w) != len(self.components):
            raise ValueError("weights/components mismatch")
        object.__setattr__(self, "weights", w)


@dataclass(frozen=True)
class DurationMixturePrior:
    """Mixture of duration hyperparameter bundles."""

    weights: np.ndarray
    components: tuple[DurationHyper, ...]

    def __post_init__(self):
        w = assert_simplex(np.asarray(self.weights, dtype=float))
        if len(w) != len(self.components):
            raise ValueError("weights/components mismatch")
        object.__setattr__(self, "weights", w)

    def sample_prior(self, rng: np.random.Generator) -> DurationParams:
        m = categorical_sample_logits(rng, np.log(np.maximum(self.weights, 1e-300)))
        return self.components[m].sample_prior(rng)


@dataclass(frozen=True)
class HdpHsmmPriors:
    """The sweep's base measures, shared by every state."""

    emission: NormalPrior
    duration: DurationHyper
    sigma2: float


@dataclass(frozen=True)
class HdpHsmmState:
    hdp: WeakLimitHdp
    theta: np.ndarray
    durations: tuple[DurationParams, ...]
    path: SegmentPath | None = None

    def hsmm_params(self, sigma2: float) -> HsmmParams:
        return HsmmParams(
            pi_bar=pi_bar_from(self.hdp.pi),
            theta=self.theta,
            sigma2=sigma2,
            durations=self.durations,
        )


def init_hdphsmm_state(gamma: float, alpha: float, L: int,
                       priors: HdpHsmmPriors, rng: np.random.Generator) -> HdpHsmmState:
    hdp = sample_hdp_prior(gamma, alpha, L, rng)
    theta = rng.normal(priors.emission.mean, math.sqrt(priors.emission.var), size=L)
    durations = tuple(priors.duration.sample_prior(rng) for _ in range(L))
    return HdpHsmmState(hdp=hdp, theta=theta, durations=durations)


def _state_slices(labels: np.ndarray, L: int):
    """The stable sort order of ``labels`` and, for each state j, the slice
    of the sorted positions labelled j, which keep their original order."""
    ends = np.cumsum(np.bincount(labels, minlength=L)).tolist()
    return np.argsort(labels, kind="stable"), [slice(a, b) for a, b in zip([0] + ends, ends)]


def sample_theta(prior: NormalPrior, y: np.ndarray, x: np.ndarray, L: int,
                 sigma2: float, rng: np.random.Generator) -> np.ndarray:
    """Every state's emission mean from its conjugate posterior given the
    readings ``y[x == j]``, in state order: one normal per state. The loop
    sums one contiguous slice a state, in the order ``y[x == j]`` holds it.
    """
    order, slices = _state_slices(x, L)
    ys = y[order]
    out = np.empty(L)
    for j, seg in enumerate(slices):
        obs = ys[seg]
        post = conj_update_normal(prior, obs.sum(), len(obs), sigma2)
        out[j] = rng.normal(post.mean, math.sqrt(post.var))
    return out


def sample_durations(hyper: DurationHyper, durations: tuple, D: np.ndarray,
                     z: np.ndarray, rng: np.random.Generator) -> tuple:
    """Every state's ``sample_duration_params`` on its segment lengths
    ``D[z == j]``, in state order. Every segment's Poisson-vs-negbin weight
    is formed first, so the loop over states only makes the draws."""
    order, slices = _state_slices(z, len(durations))
    ds = np.asarray(D, dtype=np.int64)[order]
    p_poisson = poisson_label_probs(durations, D, z)[order]
    return tuple(sample_duration_params(ds[seg], p_poisson[seg], hyper, rng)
                 for seg in slices)


def gibbs_sweep_hdphsmm(state: HdpHsmmState, y, priors: HdpHsmmPriors,
                        rng: np.random.Generator, dmax: int | None = None) -> HdpHsmmState:
    """One sweep: blocked segments under the normalized rows, the weak-limit
    prior pass, then per-state emission means and duration parameters from
    their conjugate posteriors."""
    y = np.asarray(y, dtype=float)
    L = state.hdp.L
    params = state.hsmm_params(priors.sigma2)
    path = blocked_sample_segments(params, y, rng, dmax=dmax)

    counts = np.bincount(path.z[:-1] * L + path.z[1:], minlength=L * L).reshape(L, L)
    hdp = hdp_sweep(state.hdp, counts, rng)
    theta = sample_theta(priors.emission, y, path.x, L, priors.sigma2, rng)
    durations = sample_durations(priors.duration, state.durations, path.D, path.z, rng)
    return HdpHsmmState(hdp=hdp, theta=theta, durations=durations, path=path)
