"""Online inference: particle filters and particle learning.

Two layers:

  * a generic auxiliary particle filter step driven by caller hooks, with the
    exact one-step proposal for a single chain with known parameters,
  * ``FactorialBpf``, the particle-learning filter that splits an aggregate
    power reading across K chains by enumerating the joint state space. Each
    particle carries conjugate sufficient statistics and refreshes its
    parameters from them every step.

The joint state space is always the full row-major product of the chains'
states (``joint_state_table``), so the joint predictive of every particle is
an outer sum of its K per-chain rows: a step builds (N, M) arrays and never
an (N, M, K) gather.

Per-step cost is fixed: sufficient statistics replace the path, so nothing
grows with the stream length. With the exact joint conditional as the
proposal, the first-stage weight is the one-step predictive p(y | x), and
the filter keeps the running log-evidence log p(y_1:t) as the sum of the
log mean predictives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._kernels import fbpf_accumulate, systematic_counts
from .distributions import NormalPrior, assert_simplex, categorical_rows_sample
from .hmm import HmmParams


class DegenerateWeightsError(RuntimeError):
    """Every incremental weight vanished: the model cannot explain the data."""


# ---------------------------------------------------------------------------
# resampling
# ---------------------------------------------------------------------------


def systematic_resample(weights, rng: np.random.Generator) -> np.ndarray:
    """Offspring counts from one uniform draw: U_i = U_1 + (i-1)/N with
    U_1 ~ U[0, 1/N). Stratification bounds each count near N * W_i."""
    w = assert_simplex(np.asarray(weights, dtype=float), atol=1e-9)
    n = len(w)
    u0 = rng.random() / n
    return systematic_counts(w, u0)


def counts_to_indices(counts: np.ndarray) -> np.ndarray:
    """Ancestor index vector (length N) from offspring counts."""
    return np.repeat(np.arange(len(counts)), counts)


def _normalize_log(logw: np.ndarray) -> np.ndarray:
    mx = logw.max()
    if not np.isfinite(mx):
        raise DegenerateWeightsError("all incremental weights are zero")
    w = np.exp(logw - mx)
    return w / w.sum()


# ---------------------------------------------------------------------------
# generic particle steps
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Ensemble:
    """Particle cloud: per-particle state, normalized weights, time index."""

    particles: np.ndarray
    weights: np.ndarray
    n: int = 0

    def __post_init__(self):
        w = assert_simplex(np.asarray(self.weights, dtype=float), atol=1e-9)
        object.__setattr__(self, "weights", w)

    @property
    def size(self) -> int:
        return len(self.weights)


def uniform_ensemble(particles, n: int = 0) -> Ensemble:
    particles = np.asarray(particles)
    N = len(particles)
    return Ensemble(particles=particles, weights=np.full(N, 1.0 / N), n=n)


def apf_step(ens: Ensemble, y, log_predictive, propose, rng: np.random.Generator,
             log_correction=None) -> Ensemble:
    """Auxiliary filter step: weight by the one-step predictive, resample,
    then propagate the survivors.

    With an exact predictive and the optimal proposal the second-stage
    weights are uniform; ``log_correction(new, prev, y)`` adjusts them when
    either piece is approximate.
    """
    logpred = np.asarray(log_predictive(ens.particles, y), dtype=float)
    logw = np.log(np.maximum(ens.weights, 1e-300)) + logpred
    idx = counts_to_indices(systematic_resample(_normalize_log(logw), rng))
    survivors = ens.particles[idx]
    new = propose(survivors, y, rng)
    N = ens.size
    if log_correction is None:
        weights = np.full(N, 1.0 / N)
    else:
        weights = _normalize_log(np.asarray(log_correction(new, survivors, y), dtype=float))
    return Ensemble(particles=new, weights=weights, n=ens.n + 1)


# ---------------------------------------------------------------------------
# optimal proposal for one chain
# ---------------------------------------------------------------------------


def optimal_proposal_hmm(x_prev: int | None, params: HmmParams, y: float):
    """Exact one-step conditional over the next state and its normalizer.

    Returns (probs over states, predictive p(y | x_prev)); x_prev None uses
    the initial distribution (the first observation of a stream).
    """
    row = params.init if x_prev is None else params.pi[x_prev]
    ll = -0.5 * ((y - params.theta) ** 2 / params.sigma2
                 + np.log(2.0 * math.pi * params.sigma2))
    mx = ll.max()
    terms = row * np.exp(ll - mx)
    total = terms.sum()
    if total <= 0:
        raise DegenerateWeightsError("zero predictive mass")
    return terms / total, float(total * np.exp(mx))


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


def joint_state_table(Js: tuple[int, ...], cap: int = JOINT_CAP) -> np.ndarray:
    """Row-major enumeration of the joint state space, shape (prod J_k, K)."""
    M = 1
    for J in Js:
        M *= J
    if M > cap:
        raise ValueError(f"joint state space {M} exceeds cap {cap}")
    grids = np.meshgrid(*[np.arange(J) for J in Js], indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=1).astype(np.int32)


def conditional_emission_sample(theta_sel: np.ndarray, sumtheta: np.ndarray,
                                var_chain: np.ndarray, ybar: float,
                                rng: np.random.Generator) -> np.ndarray:
    """Split the aggregate across chains, one row per particle.

    ``theta_sel`` (N, K) holds each particle's emission means at its joint
    state and ``sumtheta`` (N,) their row sums. The conditional law is Normal
    with mean theta_k + s2_k (ybar - sum theta) / S and covariance
    diag(s2) - s2 s2^T / S, S = sum s2. Sampling uses a centered draw
    projected onto the zero-sum subspace, so each row sums to ybar to machine
    precision by construction.
    """
    g = rng.normal(0.0, np.sqrt(var_chain), theta_sel.shape)
    resid = ybar - sumtheta - g.sum(axis=1)
    return theta_sel + var_chain * (resid / var_chain.sum())[:, None] + g


# ---------------------------------------------------------------------------
# the streaming filter object (vectorized over particles)
# ---------------------------------------------------------------------------


class FactorialBpf:
    """Streaming disaggregation filter.

    Each particle carries, for every chain: the current state, the imputed
    emission, transition counts, per-state emission sums/counts, and sampled
    parameters. Every step weights by the joint predictive, resamples,
    propagates through the exact joint conditional, imputes emissions that
    sum to the aggregate, folds the statistics, and refreshes parameters
    from their conjugate posteriors. Weights are uniform after every step.
    ``log_evidence`` accumulates the log of the mean first-stage predictive,
    an estimate of log p(y_1:t).

    With a single chain this is the plain Bayesian particle filter.
    """

    def __init__(self, priors: list[ChainPrior], n_particles: int,
                 rng: np.random.Generator, cap: int = JOINT_CAP):
        self.priors = list(priors)
        self.K = len(priors)
        self.Js = tuple(p.J for p in priors)
        self.Jmax = max(self.Js)
        self.N = int(n_particles)
        self.rng = rng
        self.joint_idx = joint_state_table(self.Js, cap=cap)
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
        self.theta = np.zeros((N, K, Jm))
        self.pi = np.zeros((N, K, Jm, Jm))
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

        self._draw_params()

    # -- internal passes ----------------------------------------------------

    def _draw_params(self):
        """Refresh every particle's parameters from prior + statistics."""
        N, K, Jm = self.N, self.K, self.Jmax
        s2 = self.var_chain[None, :, None]
        post_var = 1.0 / (1.0 / self.prior_var[None] + self.emis_counts / s2)
        post_mean = post_var * (self.prior_mean[None] / self.prior_var[None]
                                + self.emis_sums / s2)
        self.theta = post_mean + np.sqrt(post_var) * self.rng.standard_normal((N, K, Jm))
        conc = self.alpha[None] + self.trans_counts
        for k in range(K):
            J = self.Js[k]
            block = self.rng.standard_gamma(conc[:, k, :J, :J])
            self.pi[:, k, :J, :J] = block / block.sum(axis=2, keepdims=True)

    def _gather_log_rows(self) -> np.ndarray:
        """(N, K, Jmax) log transition rows out of the current states, or the
        log-uniform initial rows before the first observation."""
        N, K, Jm = self.N, self.K, self.Jmax
        rows = np.empty((N, K, Jm))
        if self.n == 0:
            for k, J in enumerate(self.Js):
                rows[:, k, :J] = 1.0 / J
                rows[:, k, J:] = 0.0
        else:
            ii = np.arange(N)[:, None]
            kk = np.arange(K)[None, :]
            rows = self.pi[ii, kk, self.states]
        with np.errstate(divide="ignore"):
            return np.log(rows)

    def step(self, ybar: float) -> None:
        """Consume one aggregate reading.

        The joint predictive comes from the outer sums of ``fbpf_accumulate``.
        The resample copies only the statistics: ``pi`` and ``theta`` are
        redrawn from them at the end of the step, so the split reads the
        ancestors' means through the ancestor indices.
        """
        rng = self.rng
        log_rows = self._gather_log_rows()
        logw, sumtheta = fbpf_accumulate(log_rows, self.theta, self.var_chain,
                                         self.joint_idx, float(ybar))
        row_max = logw.max(axis=1)
        if not np.any(np.isfinite(row_max)):
            raise DegenerateWeightsError("all joint predictive weights are zero")

        # first stage: predictive weights, then the systematic resample
        with np.errstate(invalid="ignore", divide="ignore"):
            shifted = np.exp(logw - row_max[:, None])
            row_tot = shifted.sum(axis=1)
            logpred = np.where(np.isfinite(row_max), row_max + np.log(row_tot), -np.inf)
        mx = logpred.max()  # finite: some row_max is finite
        w = np.exp(logpred - mx)
        self.log_evidence += float(mx + np.log(w.mean()))
        idx = counts_to_indices(systematic_resample(w / w.sum(), rng))

        self.states = self.states[idx]
        self.trans_counts = self.trans_counts[idx]
        self.emis_sums = self.emis_sums[idx]
        self.emis_counts = self.emis_counts[idx]
        probs = shifted[idx] / row_tot[idx][:, None]

        # joint propagation through the exact conditional
        j_star = categorical_rows_sample(rng, probs)
        new_states = self.joint_idx[j_star].astype(np.int64)

        # emissions that sum to the aggregate
        N, K = self.N, self.K
        kk = np.arange(K)[None, :]
        self.emis = conditional_emission_sample(
            self.theta[idx[:, None], kk, new_states], sumtheta[idx, j_star],
            self.var_chain, ybar, rng)

        # statistics; every (particle, chain) row gets exactly one increment,
        # so fancy-index adds equal np.add.at
        rows = np.arange(N * K)
        new_flat = new_states.ravel()
        if self.n > 0:
            flat = self.trans_counts.reshape(N * K, self.Jmax, self.Jmax)
            flat[rows, self.states.ravel(), new_flat] += 1.0
        self.emis_sums.reshape(N * K, self.Jmax)[rows, new_flat] += self.emis.ravel()
        self.emis_counts.reshape(N * K, self.Jmax)[rows, new_flat] += 1.0

        self.states = new_states
        self._draw_params()
        self.weights = np.full(N, 1.0 / N)
        self.n += 1

    # -- estimators ---------------------------------------------------------

    def map_states(self) -> np.ndarray:
        """Per-chain particle-vote winner; ties go to the lowest state index."""
        out = np.empty(self.K, dtype=np.int64)
        for k in range(self.K):
            votes = np.bincount(self.states[:, k], weights=self.weights,
                                minlength=self.Js[k])
            out[k] = int(np.argmax(votes))
        return out

    def power_means(self) -> list[np.ndarray]:
        """Posterior-mean power per state, one array per chain."""
        return [
            np.average(self.theta[:, k, : self.Js[k]], axis=0, weights=self.weights)
            for k in range(self.K)
        ]

    def emission_means(self) -> np.ndarray:
        """Posterior-mean imputed emission per chain at the current step."""
        return np.average(self.emis, axis=0, weights=self.weights)
