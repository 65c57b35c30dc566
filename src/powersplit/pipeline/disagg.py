"""Streaming disaggregation of a metered total into per-device series.

The bundle's segment-level priors are bridged to per-minute chain priors:
emission components (sorted by mean, so state 0 is the lowest power) become
the state means, and the duration prior's implied mean run length sets a
sticky Dirichlet diagonal with matching expected self-transition mass.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..hsmm import DurationParams
from ..smc import ChainPrior, DegenerateWeightsError, FactorialBpf
from .config import DeviceBundle, HyperParamBundle
from .io import Trace


def _prior_mean_duration(bundle: DeviceBundle) -> float:
    """Mean run length under the duration prior, evaluated at the prior
    means of the mixture components."""
    total = 0.0
    for w, h in zip(bundle.duration_mix.weights, bundle.duration_mix.components):
        p = DurationParams(
            phi=h.a_phi / (h.a_phi + h.b_phi),
            lam=h.a_lam / h.b_lam,
            r=h.r,
            vphi=h.a_vphi / (h.a_vphi + h.b_vphi),
        )
        total += float(w) * p.mean()
    return max(total, 1.0 + 1e-6)


def chain_prior(bundle: DeviceBundle, noise_var: float = 0.0) -> ChainPrior:
    """Per-minute prior for one device chain.

    The diagonal concentration is chosen so the prior expected self-loop
    probability equals 1 - 1/dbar for prior mean run length dbar.
    """
    comps = sorted(bundle.emission_mix.components, key=lambda c: c.mean)
    J = len(comps)
    dbar = _prior_mean_duration(bundle)
    off = bundle.alpha
    diag = off * max(J - 1, 1) * (dbar - 1.0)
    alpha = np.full((J, J), off)
    np.fill_diagonal(alpha, max(diag, off))
    return ChainPrior(alpha=alpha, emission=tuple(comps),
                      sigma2=bundle.sigma2 + noise_var)


def build_filter(trace_devices, bundle: HyperParamBundle, n_particles: int,
                 rng, noise_var: float = 0.0) -> FactorialBpf:
    K = len(trace_devices)
    priors = [chain_prior(bundle.device(name), noise_var / K)
              for name in trace_devices]
    return FactorialBpf(priors, n_particles, rng)


@dataclass(frozen=True)
class DisaggResult:
    devices: tuple[str, ...]
    states: np.ndarray      # (T, K) canonical MAP labels (0 = lowest power)
    powers: np.ndarray      # (T, K) posterior-mean power of the MAP state
    residual: np.ndarray    # (T,) total minus summed MAP powers
    covered: np.ndarray     # (T,) bool, rows inside a session
    metrics: dict | None
    log_evidence: float     # the filter's running log p(total readings)
    ess_frac: np.ndarray    # (covered,) first-stage ESS/N of each step


def disaggregate(trace: Trace, bundle: HyperParamBundle, n_particles: int,
                 rng, noise_var: float = 0.0, truth_states=None) -> DisaggResult:
    """Run the factorial filter over a trace's total column.

    One filter spans all sessions: learned parameters persist, and the
    single transition bridging a gap is a documented approximation. Rows
    outside every session are left as zeros with ``covered`` False.

    ``truth_states`` (T, K) enables state accuracy metrics; per-device RMSE
    against ``trace.values`` is always reported when values are nonzero.
    A reading that no particle can explain raises ``DegenerateWeightsError``
    naming its timestamp.
    """
    T, K = trace.values.shape
    filt = build_filter(trace.devices, bundle, n_particles, rng, noise_var)

    states = np.zeros((T, K), dtype=np.int64)
    powers = np.zeros((T, K))
    residual = np.zeros(T)
    covered = np.zeros(T, dtype=bool)
    ess_frac = []
    for a, b in trace.sessions:
        for t in range(a, b):
            try:
                filt.step(float(trace.total[t]))
            except DegenerateWeightsError as exc:
                raise DegenerateWeightsError(
                    f"reading at {trace.timestamps()[t]:%Y-%m-%dT%H:%M} "
                    f"(total {trace.total[t]:.9g}): {exc}") from exc
            ess_frac.append(filt.ess_frac)
            mp = filt.map_states()
            pm = filt.power_means()
            states[t] = mp
            powers[t] = [pm[k][mp[k]] for k in range(K)]
            residual[t] = trace.total[t] - powers[t].sum()
            covered[t] = True

    # canonicalize labels by the final posterior power ordering
    ranks = []
    for k in range(K):
        order = np.argsort(filt.power_means()[k])
        rank = np.empty_like(order)
        rank[order] = np.arange(len(order))
        ranks.append(rank)
        states[covered, k] = rank[states[covered, k]]

    metrics = None
    if truth_states is not None or trace.values.any():
        metrics = {}
        sel = covered
        for k, name in enumerate(trace.devices):
            m = {"rmse": float(np.sqrt(np.mean(
                (powers[sel, k] - trace.values[sel, k]) ** 2)))}
            if truth_states is not None:
                m["state_accuracy"] = float(np.mean(
                    states[sel, k] == truth_states[sel, k]))
            metrics[name] = m
        metrics["aggregate_rmse"] = float(np.sqrt(np.mean(residual[sel] ** 2)))
    return DisaggResult(devices=trace.devices, states=states, powers=powers,
                        residual=residual, covered=covered, metrics=metrics,
                        log_evidence=filt.log_evidence, ess_frac=np.array(ess_frac))
