"""Online inference: ``FactorialBpf``, the particle-learning filter that
splits an aggregate power reading across K chains by enumerating the joint
state space. Each particle carries conjugate sufficient statistics and
refreshes its parameters from them every step; of its transition matrices
it keeps only the rows out of its current states, the rows the next step
reads.

The joint state space is always the full row-major product of the chains'
states (``joint_state_table``), so the joint predictive of every particle is
an outer sum of its K per-chain rows: a step builds (N, M) arrays and never
an (N, M, K) gather.

A filter serves one house. ``step_filters`` advances H houses that share
priors, particle count and step count in one pass over their H*N stacked
particles, with one reading per particle in the accumulate. Every draw stays
per house, from the house's own generator in a lone house's order, so the
pass leaves each house byte-identical to stepping it alone;
``FactorialBpf.step`` is the pass for one house. Each house draws a step's
randoms with one generator call per kind, and the deterministic work
between the draws runs in the ``_kernels`` passes (accumulate, shift,
total, propagate, fold, posterior, Dirichlet rows), which are compiled on
the native backend and bit-identical to their NumPy twins; every exp and
log stays in NumPy. ``map_states_of`` and ``power_means_of`` read the
estimators of all houses at once.

Per-step cost is fixed: sufficient statistics replace the path, so nothing
grows with the stream length. With the exact joint conditional as the
proposal, the first-stage weight is the one-step predictive p(y | x), and
the filter keeps the running log-evidence log p(y_1:t) as the sum of the
log mean predictives.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._kernels import (
    fbpf_accumulate,
    fbpf_dirichlet,
    fbpf_fold,
    fbpf_posterior,
    fbpf_propagate,
    fbpf_shift,
    fbpf_total,
    systematic_counts,
)
from .distributions import NormalPrior
# bound here, though the step draws through ``fbpf_propagate``, because the
# benchmark's tracer patches ``smc.categorical_rows_sample``
from .distributions import categorical_rows_sample  # noqa: F401


class DegenerateWeightsError(RuntimeError):
    """Every incremental weight vanished: the model cannot explain the data."""


def counts_to_indices(counts: np.ndarray) -> np.ndarray:
    """Ancestor index vector (length N) from offspring counts."""
    return np.repeat(np.arange(len(counts)), counts)


@dataclass(frozen=True)
class ChainPrior:
    """Conjugate prior bundle for one chain: Dirichlet rows for transitions,
    a Normal prior per state mean, known emission variance."""

    alpha: np.ndarray                  # (J, J)
    emission: tuple[NormalPrior, ...]  # length J
    sigma2: float

    def __post_init__(self):
        a = np.asarray(self.alpha, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError("alpha must be square")
        if len(self.emission) != a.shape[0]:
            raise ValueError("one emission prior per state")
        if self.sigma2 <= 0:
            raise ValueError("sigma2 must be positive")
        object.__setattr__(self, "alpha", a)

    @property
    def J(self) -> int:
        return self.alpha.shape[0]


# ---------------------------------------------------------------------------
# factorial filter
# ---------------------------------------------------------------------------

# largest joint state space M = prod(J_k); a step holds a few (N, M) arrays
JOINT_CAP = 1024


def joint_state_table(Js: tuple[int, ...]) -> np.ndarray:
    """Row-major enumeration of the joint state space, shape (prod J_k, K)."""
    M = 1
    for J in Js:
        M *= J
    if M > JOINT_CAP:
        raise ValueError(f"joint state space {M} exceeds cap {JOINT_CAP}")
    grids = np.meshgrid(*[np.arange(J) for J in Js], indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=1).astype(np.int32)


def conditional_emission_sample(theta_sel: np.ndarray, sumtheta: np.ndarray,
                                var_chain: np.ndarray, ybar,
                                z: np.ndarray) -> np.ndarray:
    """Split the aggregate across chains, one row per particle.

    ``theta_sel`` (N, K) holds each particle's emission means at its joint
    state, ``sumtheta`` (N,) their row sums and ``ybar`` the reading, one
    scalar or one per particle. The conditional law is Normal with mean
    theta_k + s2_k (ybar - sum theta) / S and covariance
    diag(s2) - s2 s2^T / S, S = sum s2. Sampling uses a centered draw, from
    the (N, K) standard normals ``z``, projected onto the zero-sum subspace,
    so each row sums to ybar to machine precision by construction.
    """
    # the scaled standard normals are Generator.normal(0, sd)'s own draws
    g = np.sqrt(var_chain) * z
    resid = ybar - sumtheta - g.sum(axis=1)
    return theta_sel + var_chain * (resid / var_chain.sum())[:, None] + g


# ---------------------------------------------------------------------------
# the streaming filter object (vectorized over particles and houses)
# ---------------------------------------------------------------------------

# predictive lanes this far below their row's maximum weigh under 1e-304 of
# it: they cannot move a row total >= 1 and no uniform lands in them, so the
# step sets them to 0 instead of taking numpy's slow exp of deep negatives
EXP_FLOOR = -700.0


class FactorialBpf:
    """Streaming disaggregation filter for one house.

    Each particle carries, for every chain: the current state, the imputed
    emission, transition counts, per-state emission sums/counts, and sampled
    parameters: the emission means ``theta`` and, in ``rows``, the
    transition row out of the current state. Every step weights by the
    joint predictive, resamples, propagates through the exact joint
    conditional, imputes emissions that sum to the aggregate, folds the
    statistics, and refreshes parameters from their conjugate posteriors.
    Weights are uniform after every step. ``log_evidence`` accumulates the
    log of the mean first-stage predictive, an estimate of log p(y_1:t).

    Every draw comes from the house's own generator ``rng``. Houses that
    share priors, particle count and step count advance together through
    ``step_filters``, one pass over their stacked particles, and each ends
    byte-identical to the same house stepped alone; ``step`` is that pass
    for one house.

    With a single chain this is the plain Bayesian particle filter.
    """

    def __init__(self, priors: list[ChainPrior], n_particles: int,
                 rng: np.random.Generator):
        self.priors = list(priors)
        self.K = len(priors)
        self.Js = tuple(p.J for p in priors)
        self.Jmax = max(self.Js)
        self.N = int(n_particles)
        self.rng = rng
        self.joint_idx = joint_state_table(self.Js)
        self.M = len(self.joint_idx)
        self.var_chain = np.array([p.sigma2 for p in priors])
        self.n = 0
        self.log_evidence = 0.0

        N, K, Jm = self.N, self.K, self.Jmax
        self.states = np.zeros((N, K), dtype=np.int64)
        self.emis = np.zeros((N, K))
        self.trans_counts = np.zeros((N, K, Jm, Jm))
        self.emis_sums = np.zeros((N, K, Jm))
        self.emis_counts = np.zeros((N, K, Jm))
        self.weights = np.full(N, 1.0 / N)

        # prior means/vars laid out per chain for the vectorized refresh
        self.prior_mean = np.zeros((K, Jm))
        self.prior_var = np.ones((K, Jm))
        self.alpha = np.zeros((K, Jm, Jm))
        for k, p in enumerate(priors):
            J = p.J
            self.prior_mean[k, :J] = [c.mean for c in p.emission]
            self.prior_var[k, :J] = [c.var for c in p.emission]
            self.alpha[k, :J, :J] = p.alpha
        # what houses stepped together must share
        self._law = (N, self.Js, self.var_chain.tobytes(), self.alpha.tobytes(),
                     self.prior_mean.tobytes(), self.prior_var.tobytes())

        # theta from the prior; the first step moves from the uniform rows,
        # and the prior's row draw only keeps each step's draws in place
        self.theta, _ = _refresh_params(self, self.emis_sums, self.emis_counts,
                                        self.trans_counts, self.states,
                                        rng.standard_normal((N, K, Jm)), [rng])
        self.rows = np.zeros((N, K, Jm))
        for k, J in enumerate(self.Js):
            self.rows[:, k, :J] = 1.0 / J

    def step(self, ybar: float) -> None:
        """Consume one aggregate reading (``step_filters`` on this house)."""
        step_filters([self], [ybar])

    # -- estimators ---------------------------------------------------------

    def map_states(self) -> np.ndarray:
        """Per-chain particle-vote winner; ties go to the lowest state index."""
        return map_states_of([self])[0]

    def power_means(self) -> list[np.ndarray]:
        """Posterior-mean power per state, one array per chain."""
        return [pm[0] for pm in power_means_of([self])]


# -- passes over the stacked particles of one or more houses ----------------


def _check_houses(filters) -> None:
    law, n = filters[0]._law, filters[0].n
    if any(f._law != law or f.n != n for f in filters):
        raise ValueError("houses stepped together must share priors, "
                         "particle count and step count")
    if len({id(f.rng) for f in filters}) != len(filters):
        raise ValueError("houses stepped together must draw from distinct generators")


def _stack(filters, name: str) -> np.ndarray:
    """The houses' ``name`` arrays stacked along the particle axis."""
    parts = [getattr(f, name) for f in filters]
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def _refresh_params(spec: FactorialBpf, emis_sums, emis_counts, trans_counts, states, z,
                    rngs):
    """(theta, rows) drawn from each particle's conjugate posterior, the H
    houses' particles stacked: theta from the pre-drawn standard normals
    ``z``; the transition matrices from one ``standard_gamma`` call per
    house, over all of the house's chain blocks, from its generator in
    ``rngs``, of which ``rows`` keeps the rows out of ``states``."""
    theta, conc = fbpf_posterior(z, emis_sums, emis_counts, trans_counts, spec.var_chain,
                                 spec.prior_mean, spec.prior_var, spec.alpha, spec.Js,
                                 len(rngs))
    gam = np.empty_like(conc)
    for h, g in enumerate(rngs):
        g.standard_gamma(conc[h], out=gam[h])
    return theta, fbpf_dirichlet(gam, states, spec.Js, spec.N)


def step_filters(filters, readings) -> None:
    """Advance H houses by one aggregate reading each, ``readings[h]`` for
    ``filters[h]``, in one pass over their H*N stacked particles.

    The houses must share priors, particle count and step count, and draw
    from distinct generators. The pass computes the joint predictive from the
    outer sums of ``fbpf_accumulate``, each house's normalisation and
    log-evidence, the resample gathers, the propagation, the imputation, the
    statistics fold and the parameter refresh once for all houses. Every
    draw stays per house, from that house's generator and in a lone house's
    order, with one call per kind: ``random(N + 1)``, the systematic uniform
    then the categorical ones; ``standard_normal(N*K + N*K*Jmax)``, the
    emission normals then the theta ones; then ``standard_gamma`` over all
    of the house's chain blocks. A generator method draws element by element
    and keeps no state between calls, so these are the bits that one call
    per draw would give, and each house ends byte-identical to stepping it
    alone; its arrays become row slices of the stacked results.

    The resample copies only the statistics: ``rows`` and ``theta`` are
    redrawn from them at the end of the step, ``rows`` out of the new states,
    so the split reads the ancestors' means through the ancestor indices.
    Raises ``DegenerateWeightsError``, leaving every house as it was, when
    all of some house's predictive weights vanish.
    """
    _check_houses(filters)
    spec = filters[0]
    H, N, K, Jm = len(filters), spec.N, spec.K, spec.Jmax
    y = np.asarray(readings, dtype=float)
    if y.shape != (H,):
        raise ValueError(f"need one reading per house ({H}), got shape {y.shape}")
    ybar = np.repeat(y, N)
    rngs = [f.rng for f in filters]

    states = _stack(filters, "states")
    theta = _stack(filters, "theta")
    with np.errstate(divide="ignore"):  # the padding lanes' log is -inf
        logrows = np.log(_stack(filters, "rows"))
    logw, sumtheta = fbpf_accumulate(logrows, theta, spec.var_chain, spec.joint_idx, ybar)
    row_max, keep = fbpf_shift(logw, EXP_FLOOR)
    live = np.isfinite(row_max)
    dead = np.flatnonzero(~live.reshape(H, N).any(axis=1))
    if len(dead):
        raise DegenerateWeightsError(
            f"all joint predictive weights are zero (houses {dead.tolist()})")

    # first stage: predictive weights, then each house's systematic resample
    pred = logw  # shifted and exponentiated in place
    np.exp(pred, out=pred)
    row_tot = fbpf_total(pred, keep)
    with np.errstate(divide="ignore"):
        logpred = np.where(live, row_max + np.log(row_tot), -np.inf).reshape(H, N)
    mx = logpred.max(axis=1)  # finite: every house has a finite row_max
    w = np.exp(logpred - mx[:, None])
    evidence = mx + np.log(w.mean(axis=1))
    w /= w.sum(axis=1, keepdims=True)
    u = np.empty((H, N + 1))
    z = np.empty((H, N * K * (1 + Jm)))
    for h, g in enumerate(rngs):
        g.random(out=u[h])
        g.standard_normal(out=z[h])
    idx = counts_to_indices(np.concatenate(
        [systematic_counts(w[h], u[h, 0] / N) for h in range(H)]))

    # joint propagation through the exact conditional, then emissions that
    # sum to the aggregate
    j_star, new_states = fbpf_propagate(pred, row_tot, idx, u[:, 1:].reshape(-1),
                                        spec.joint_idx)
    emis = conditional_emission_sample(theta[idx[:, None], np.arange(K), new_states],
                                       sumtheta[idx, j_star], spec.var_chain, ybar,
                                       z[:, :N * K].reshape(H * N, K))
    trans_counts, emis_sums, emis_counts = fbpf_fold(
        idx, states, new_states, emis, spec.n > 0, _stack(filters, "trans_counts"),
        _stack(filters, "emis_sums"), _stack(filters, "emis_counts"))

    del logw, pred, keep, sumtheta  # the (H*N, M) arrays, before the refresh allocates
    theta, rows = _refresh_params(spec, emis_sums, emis_counts, trans_counts, new_states,
                                  z[:, N * K:].reshape(H * N, K, Jm), rngs)
    weights = np.full(H * N, 1.0 / N)
    for h, f in enumerate(filters):
        own = slice(h * N, (h + 1) * N)
        f.states, f.emis, f.theta, f.rows = new_states[own], emis[own], theta[own], rows[own]
        f.trans_counts, f.emis_sums = trans_counts[own], emis_sums[own]
        f.emis_counts, f.weights = emis_counts[own], weights[own]
        f.log_evidence += float(evidence[h])
        f.n += 1


def map_states_of(filters) -> np.ndarray:
    """(H, K) per-chain particle-vote winners of H houses that share priors
    and particle count; ties go to the lowest state index."""
    _check_houses(filters)
    spec = filters[0]
    H = len(filters)
    states, weights = _stack(filters, "states"), _stack(filters, "weights")
    house = np.repeat(np.arange(H), spec.N)
    out = np.empty((H, spec.K), dtype=np.int64)
    for k, J in enumerate(spec.Js):
        votes = np.bincount(house * J + states[:, k], weights=weights, minlength=H * J)
        out[:, k] = votes.reshape(H, J).argmax(axis=1)
    return out


def power_means_of(filters) -> list[np.ndarray]:
    """Posterior-mean power per state of H houses that share priors and
    particle count, one (H, J_k) array per chain."""
    _check_houses(filters)
    spec = filters[0]
    H, N = len(filters), spec.N
    theta, weights = _stack(filters, "theta"), _stack(filters, "weights")
    total = weights.reshape(H, N).sum(axis=1)[:, None]
    return [(theta[:, k, :J] * weights[:, None]).reshape(H, N, J).sum(axis=1) / total
            for k, J in enumerate(spec.Js)]
