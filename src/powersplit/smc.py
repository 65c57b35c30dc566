"""Online inference: ``FactorialBpf``, the particle-learning filter that
splits an aggregate power reading across K chains by enumerating the joint
state space. Each particle carries conjugate sufficient statistics. It
draws its emission means from their posterior every step and integrates its
transition matrices out: it keeps the Dirichlet posterior mean of the row
out of each chain's current state, the exact one-step predictive that the
next step reads (particle learning with the conjugate rows marginalised).

The joint state space is always the full row-major product of the chains'
states (``joint_state_table``), so the joint predictive of every particle is
an outer sum of its K per-chain rows: a step builds (N, M) arrays and never
an (N, M, K) gather.

A filter serves one house, or a bank of houses that share priors and
particle count, stepped in one pass over their stacked particles. Each
house draws a step's randoms from its own generator, with one call per
kind, and the deterministic work between the draws runs in three
``_kernels`` passes (the shifted predictive, its totals, the advance of
each particle through its conjugate posterior to its next rows), which are
compiled on the native backend and bit-identical to their NumPy twins;
every exp and log stays in NumPy.

Per-step cost is fixed: sufficient statistics replace the path, so nothing
grows with the stream length. With the exact joint conditional as the
proposal, the first-stage weight is the one-step predictive p(y | x), and
the filter keeps the running log-evidence log p(y_1:t) as the sum of the
log mean predictives.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np

from ._kernels import (
    fbpf_accumulate,
    fbpf_advance,
    fbpf_total,
    systematic_counts,
)
from ._kernels._pure import conjugate_posterior
from .distributions import NormalPrior
# bound here, though the step draws through ``fbpf_advance``, because the
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


# ---------------------------------------------------------------------------
# the streaming filter object (vectorized over particles and houses)
# ---------------------------------------------------------------------------


class FactorialBpf:
    """Streaming disaggregation filter for one house, or a bank of houses
    that share priors and particle count.

    Each particle carries, for every chain: the current state, the imputed
    emission, transition counts, per-state emission sums/counts, the
    emission means ``theta`` drawn from their posterior and, in ``rows``,
    the Dirichlet posterior mean of the transition row out of the current
    state (1.0 in the padding lanes of chains with fewer than ``Jmax``
    states, which no pass reads). Every step weights by the joint
    predictive, resamples, propagates through the exact joint conditional,
    imputes emissions that sum to the aggregate, folds the statistics,
    draws theta from its conjugate posterior and takes the rows out of the
    new states. Weights are uniform after every step. ``log_evidence``
    accumulates the log of the mean first-stage predictive, an estimate of
    log p(y_1:t), and ``ess_frac`` holds the last step's first-stage
    effective sample size over N (1.0 before the first step).

    ``rng`` is one generator for a lone house: ``step`` takes a scalar
    reading, ``map_states`` returns (K,), ``power_means`` (J_k,) arrays,
    and ``log_evidence`` and ``ess_frac`` are floats. A sequence of H
    distinct generators makes a bank: the particle arrays hold (H*N, ...)
    rows, house after house, ``step`` takes H readings, and the estimators,
    ``log_evidence`` and ``ess_frac`` gain a leading house axis. Every draw
    stays per house, from the house's own generator in a lone house's
    order, so each house of a bank ends byte-identical to the same house
    filtered alone; ``house(h)`` reads one house as a lone filter.

    With a single chain this is the plain Bayesian particle filter.
    """

    def __init__(self, priors: list[ChainPrior], n_particles: int, rng):
        self.priors = list(priors)
        self.K = len(priors)
        self.Js = tuple(p.J for p in priors)
        self.Jmax = max(self.Js)
        self.N = int(n_particles)
        if self.N < 1:
            raise ValueError(f"n_particles must be >= 1, got {n_particles!r}")
        self._lone = isinstance(rng, np.random.Generator)
        self.rngs = (rng,) if self._lone else tuple(rng)
        if not self.rngs or len({id(g) for g in self.rngs}) != len(self.rngs):
            raise ValueError("a bank needs one distinct generator per house")
        self.H = len(self.rngs)
        self.joint_idx = joint_state_table(self.Js)
        self.M = len(self.joint_idx)
        self.var_chain = np.array([p.sigma2 for p in priors])
        self.n = 0
        self.log_evidence = 0.0 if self._lone else np.zeros(self.H)
        self.ess_frac = 1.0 if self._lone else np.ones(self.H)

        H, N, K, Jm = self.H, self.N, self.K, self.Jmax
        self.states = np.zeros((H * N, K), dtype=np.int64)
        self.emis = np.zeros((H * N, K))
        self.trans_counts = np.zeros((H * N, K, Jm, Jm))
        self.emis_sums = np.zeros((H * N, K, Jm))
        self.emis_counts = np.zeros((H * N, K, Jm))
        self.weights = np.full(H * N, 1.0 / N)

        # prior means/vars laid out per chain for the vectorized refresh
        self.prior_mean = np.zeros((K, Jm))
        self.prior_var = np.ones((K, Jm))
        self.alpha = np.zeros((K, Jm, Jm))
        for k, p in enumerate(priors):
            J = p.J
            self.prior_mean[k, :J] = [c.mean for c in p.emission]
            self.prior_var[k, :J] = [c.var for c in p.emission]
            self.alpha[k, :J, :J] = p.alpha

        # theta from the prior, each house drawing the normals of its real
        # lanes; the first state has no predecessor, so the first step moves
        # from the uniform rows
        z = np.empty((H, N * sum(self.Js)))
        for h, g in enumerate(self.rngs):
            g.standard_normal(out=z[h])
        self.theta = conjugate_posterior(z.reshape(H * N, -1), self.emis_sums, self.emis_counts,
                                         self.var_chain, self.prior_mean, self.prior_var,
                                         self.Js)
        self.rows = np.ones((H * N, K, Jm))
        for k, J in enumerate(self.Js):
            self.rows[:, k, :J] = 1.0 / J

    def house(self, h: int) -> FactorialBpf:
        """House ``h`` as a lone filter over its row slices of the arrays,
        without a copy. The view is read-only: its arrays are not writeable
        and it does not step. It is valid until the next step."""
        h = range(self.H)[h]
        own = slice(h * self.N, (h + 1) * self.N)
        view = copy.copy(self)
        for name in ("states", "emis", "theta", "rows", "trans_counts", "emis_sums",
                     "emis_counts", "weights"):
            part = getattr(self, name)[own]
            part.flags.writeable = False
            setattr(view, name, part)
        view.H, view._lone, view.rngs = 1, True, None
        view.log_evidence = float(np.reshape(self.log_evidence, -1)[h])
        view.ess_frac = float(np.reshape(self.ess_frac, -1)[h])
        return view

    def step(self, ybar) -> None:
        """Consume one aggregate reading per house: a scalar for a lone
        house, H readings for a bank.

        Three passes over the H*N particles: ``fbpf_accumulate``, the joint
        predictive shifted by its row max; after NumPy's exp, ``fbpf_total``,
        whose row totals give each house's log-evidence, resample weights
        and ``ess_frac``; and ``fbpf_advance``, which moves each resampled
        particle from its ancestor's predictive row, imputes its emissions,
        folds its statistics, draws theta from their conjugate posterior and
        writes the rows the next step reads: the Dirichlet posterior mean
        ``(alpha + n)[k, x_k] / sum`` of the row out of each chain's new
        state, the one-step predictive of the next state with the transition
        rows integrated out. Every draw stays per house, from that house's
        generator and in a lone house's order, with one call per kind:
        ``random(N + 1)``, the systematic uniform then the categorical ones;
        then ``standard_normal(N*K + N*sum(Js))``, the emission normals then
        the theta ones of the real lanes. A generator method draws element
        by element and keeps no state between calls, so these are the bits
        that one call per draw would give, and each house ends
        byte-identical to filtering it alone.

        Raises ``ValueError`` naming the house when a reading is NaN or
        infinite, and ``DegenerateWeightsError`` when all of some house's
        predictive weights vanish; either leaves every house and generator
        as they were.
        """
        if self.rngs is None:
            raise TypeError("a house view does not step: step the filter it reads")
        H, N, K = self.H, self.N, self.K
        y = np.asarray(ybar, dtype=float)
        want = () if self._lone else (H,)
        if y.shape != want:
            raise ValueError(f"need one reading per house, shape {want}, got {y.shape}")
        bad = np.flatnonzero(~np.isfinite(y.reshape(H)))
        if len(bad):
            h = int(bad[0])
            raise ValueError(f"house {h}: reading {y.reshape(H)[h]} is not finite")
        ybar = np.repeat(y.reshape(H), N)

        logw, row_max = fbpf_accumulate(np.log(self.rows), self.theta, self.var_chain,
                                        self.joint_idx, ybar)
        live = np.isfinite(row_max)
        dead = np.flatnonzero(~live.reshape(H, N).any(axis=1))
        if len(dead):
            raise DegenerateWeightsError(
                f"all joint predictive weights are zero (houses {dead.tolist()})")

        # first stage: predictive weights, then each house's systematic resample
        pred = logw  # exponentiated in place
        np.exp(pred, out=pred)
        row_tot = fbpf_total(pred)
        with np.errstate(divide="ignore"):
            logpred = np.where(live, row_max + np.log(row_tot), -np.inf).reshape(H, N)
        mx = logpred.max(axis=1)  # finite: every house has a finite row_max
        w = np.exp(logpred - mx[:, None])
        evidence = mx + np.log(w.mean(axis=1))
        w /= w.sum(axis=1, keepdims=True)
        ess_frac = 1.0 / (N * np.einsum("hn,hn->h", w, w))
        u = np.empty((H, N + 1))
        z = np.empty((H, N * (K + sum(self.Js))))
        for h, g in enumerate(self.rngs):
            g.random(out=u[h])
            g.standard_normal(out=z[h])
        idx = counts_to_indices(np.concatenate(
            [systematic_counts(w[h], u[h, 0] / N) for h in range(H)]))

        # joint propagation through the exact conditional, emissions that sum
        # to the aggregate, the statistics they update, theta drawn from them
        # and the rows out of the new states
        (self.states, self.emis, self.trans_counts, self.emis_sums, self.emis_counts,
         self.theta, self.rows) = fbpf_advance(
            pred, row_tot, idx, u[:, 1:].reshape(-1), self.joint_idx, self.theta,
            self.var_chain, ybar, z[:, :N * K].reshape(H * N, K), self.states, self.n > 0,
            self.trans_counts, self.emis_sums, self.emis_counts,
            z[:, N * K:].reshape(H * N, -1), self.prior_mean, self.prior_var, self.alpha,
            self.Js)
        self.weights = np.full(H * N, 1.0 / N)
        evidence = self.log_evidence + evidence
        self.log_evidence = float(evidence[0]) if self._lone else evidence
        self.ess_frac = float(ess_frac[0]) if self._lone else ess_frac
        self.n += 1

    # -- estimators ---------------------------------------------------------

    def map_states(self) -> np.ndarray:
        """Per-chain particle-vote winners, (K,) for a lone house and (H, K)
        for a bank; ties go to the lowest state index."""
        H = self.H
        house = np.repeat(np.arange(H), self.N)
        out = np.empty((H, self.K), dtype=np.int64)
        for k, J in enumerate(self.Js):
            votes = np.bincount(house * J + self.states[:, k], weights=self.weights,
                                minlength=H * J)
            out[:, k] = votes.reshape(H, J).argmax(axis=1)
        return out[0] if self._lone else out

    def power_means(self) -> list[np.ndarray]:
        """Posterior-mean power per state, one array per chain: (J_k,) for a
        lone house and (H, J_k) for a bank: one weighted contraction over
        the particles, which ``einsum`` adds in a fixed order, where BLAS
        may not."""
        H, N, Jm = self.H, self.N, self.Jmax
        w = self.weights.reshape(H, N)
        means = np.einsum("hn,hnq->hq", w, self.theta.reshape(H, N, -1))
        means /= w.sum(axis=1)[:, None]
        means = [means[:, k * Jm:k * Jm + J] for k, J in enumerate(self.Js)]
        return [m[0] for m in means] if self._lone else means
