"""Hyperparameter training: per-device segment-model sweeps over houses,
then moment summaries of what the chains found.

Each device column is fit independently per house under a weak-limit prior
with broad base measures: one Normal emission prior, centred on the series
mean with twice its range as standard deviation, and the default duration
hyperprior. The final post-burn-in path labels the series; the
top-occupancy states (as many as the device is configured for, ranked by
empirical mean) become mixture components. Across-house spread of the
matched means supplies the emission prior variance; pooled segment lengths
per rank are fit with a two-component truncated mixture whose point fit is
re-expanded into moderately concentrated hyperpriors.

Transition rows keep a flat symmetric concentration: streaming re-learns
them conjugately, so training only needs to not rule anything out.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from ..distributions import NormalPrior
from ..hdp import (
    DurationMixturePrior,
    EmissionMixturePrior,
    HdpHsmmPriors,
    init_hdphsmm_state,
    gibbs_sweep_hdphsmm,
)
from ..hsmm import DurationHyper, DurationParams
from ..rng import substream
from .config import DeviceBundle, DeviceConfig, HyperParamBundle, RunConfig
from .io import Trace

# duration window for the message passes; segments longer than this are
# folded into the censor term, so keep it comfortably above real run lengths
TRAIN_DMAX = 200

# negative-binomial count of every trained duration component
TRAIN_R = 2


# ---------------------------------------------------------------------------
# truncated duration mixture point fit
# ---------------------------------------------------------------------------


def _trunc_poisson_mean(lam: float) -> float:
    return lam / -math.expm1(-lam)


def _trunc_negbin_mean(v: float, r: int) -> float:
    return (r * v / (1.0 - v)) / -math.expm1(r * math.log1p(-v))


def _invert_increasing(f, target: float, lo: float, hi: float) -> float:
    """Root of f(x) = target for increasing f, growing hi as needed."""
    if f(lo) >= target:
        # target at or below the infimum (e.g. every segment one step long)
        return lo
    while f(hi) < target:
        hi *= 2.0
        if hi > 1e12:
            return hi
    # imported here, so that commands which never train skip loading
    # scipy.optimize and the scipy.sparse it imports
    from scipy.optimize import brentq
    return float(brentq(lambda x: f(x) - target, lo, hi, xtol=1e-12))


def fit_duration_mixture(lengths, r: int) -> tuple[float, float, float]:
    """EM point fit (phi, lam, vphi) of the positive-support mixture
    phi * Poisson(lam | d >= 1) + (1 - phi) * NegBin(r, vphi | d >= 1).

    Both truncated components are one-parameter exponential families in
    their natural parameter, so the M-step is exact mean inversion. EM stops
    after 200 iterations, or once the log-likelihood moves by less than
    1e-10 of itself.
    """
    ds = np.asarray(lengths, dtype=np.int64)
    if np.any(ds < 1):
        raise ValueError("lengths must be positive")
    mbar = float(ds.mean())
    lam = max(_invert_increasing(_trunc_poisson_mean, mbar, 1e-9, 10.0), 1e-3)
    vphi = min(max(mbar / (mbar + r) * 0.8, 1e-4), 1.0 - 1e-4)
    phi = 0.5
    if len(ds) < 3 or mbar < 1.0 + 1e-9:
        return phi, lam, vphi

    prev = -np.inf
    for _ in range(200):
        lp1, lp2 = DurationParams(phi=phi, lam=lam, r=r, vphi=vphi).weighted_logpmfs(ds)
        m0 = np.maximum(lp1, lp2)
        tot = m0 + np.log(np.exp(lp1 - m0) + np.exp(lp2 - m0))
        g1 = np.exp(lp1 - tot)
        ll = float(tot.sum())

        w1 = float(g1.sum())
        w2 = float(len(ds) - w1)
        phi = min(max(w1 / len(ds), 1e-3), 1.0 - 1e-3)
        if w1 > 1e-9:
            m1 = max(float((g1 * ds).sum() / w1), 1.0 + 1e-9)
            lam = max(_invert_increasing(_trunc_poisson_mean, m1, 1e-9, 10.0), 1e-3)
        if w2 > 1e-9:
            m2 = max(float(((1.0 - g1) * ds).sum() / w2), 1.0 + 1e-9)
            vphi = min(max(
                _invert_increasing(lambda v: _trunc_negbin_mean(v, r), m2,
                                   1e-12, 1.0 - 1e-12),
                1e-4), 1.0 - 1e-4)
        if abs(ll - prev) < 1e-10 * (1.0 + abs(ll)):
            break
        prev = ll
    return phi, lam, vphi


def _duration_hyper(phi: float, lam: float, vphi: float, r: int) -> DurationHyper:
    """Re-expand a point fit into a proper hyperprior centered on it."""
    strength, lam_conc = 6.0, 4.0  # the hyperprior's pseudo-counts
    return DurationHyper(
        a_phi=1.0 + strength * phi,
        b_phi=1.0 + strength * (1.0 - phi),
        a_lam=lam_conc * lam,
        b_lam=lam_conc,
        a_vphi=1.0 + strength * vphi,
        b_vphi=1.0 + strength * (1.0 - vphi),
        r=r,
    )


# ---------------------------------------------------------------------------
# per-house sweep and state matching
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HouseSummary:
    """What one house's final path says about one device."""

    means: np.ndarray        # (M,) matched state means, ascending
    shares: np.ndarray       # (M,) occupancy shares of the matched states
    lengths: tuple           # per-rank segment length arrays
    resid_ss: float          # within-state residual sum of squares
    resid_n: int


def summarize_house(y: np.ndarray, n_states: int, L: int, sweeps: int,
                    burn_in: int, sigma2: float, rng) -> HouseSummary:
    y = np.asarray(y, dtype=float)
    lo, hi = float(y.min()), float(y.max())
    spread = max(hi - lo, 1.0)
    priors = HdpHsmmPriors(emission=NormalPrior(float(y.mean()), (2.0 * spread) ** 2),
                           duration=DurationHyper(), sigma2=sigma2)
    state = init_hdphsmm_state(gamma=4.0, alpha=4.0, L=L, priors=priors, rng=rng)
    for _ in range(max(sweeps, burn_in + 1)):
        state = gibbs_sweep_hdphsmm(state, y, priors, rng, dmax=TRAIN_DMAX)

    path = state.path
    x = path.x
    z, D = path.z, path.D
    if D.sum() > path.T:
        # drop the censored tail segment from the length pool
        z, D = z[:-1], D[:-1]

    occ = np.bincount(x, minlength=L)
    keep = np.argsort(occ)[::-1][:n_states]
    keep = keep[occ[keep] > 0]
    if len(keep) < n_states:
        warnings.warn(
            f"only {len(keep)} of {n_states} states occupied in the final path",
            stacklevel=2,
        )
    means = np.array([float(y[x == j].mean()) for j in keep])
    order = np.argsort(means)
    keep = keep[order]
    means = means[order]
    shares = occ[keep] / occ[keep].sum()
    lengths = tuple(np.asarray(D[z == j], dtype=np.int64) for j in keep)

    resid_ss = 0.0
    resid_n = 0
    for j, mu in zip(keep, means):
        sel = y[x == j]
        resid_ss += float(((sel - mu) ** 2).sum())
        resid_n += len(sel)
    return HouseSummary(means=means, shares=shares, lengths=lengths,
                        resid_ss=resid_ss, resid_n=resid_n)


def _longest_session(trace: Trace, k: int) -> np.ndarray:
    a, b = max(trace.sessions, key=lambda s: s[1] - s[0])
    return trace.values[a:b, k]


def train_device(series_by_house: dict, dev: DeviceConfig, L: int, sweeps: int,
                 burn_in: int, rng) -> DeviceBundle:
    """Fit one device's bundle from its per-house series."""
    if not series_by_house:
        raise ValueError("no houses to train on")
    if len(series_by_house) == 1:
        warnings.warn(
            f"training {dev.name!r} on a single house: across-house spread "
            "is unidentified, falling back to a wide default", stacklevel=2,
        )
    summaries = {}
    for house, y in series_by_house.items():
        sub = substream(rng, "train", dev.name, house)
        summaries[house] = summarize_house(
            y, dev.n_states, L, sweeps, burn_in, dev.sigma2, sub
        )

    M = dev.n_states
    per_rank_means = [[] for _ in range(M)]
    per_rank_share = [[] for _ in range(M)]
    per_rank_lengths = [[] for _ in range(M)]
    resid_ss = resid_n = 0.0
    for s in summaries.values():
        for m in range(len(s.means)):
            per_rank_means[m].append(s.means[m])
            per_rank_share[m].append(s.shares[m])
            per_rank_lengths[m].append(s.lengths[m])
        resid_ss += s.resid_ss
        resid_n += s.resid_n
    sigma2 = resid_ss / resid_n if resid_n > 1 else dev.sigma2
    sigma2 = max(sigma2, 1.0)

    comps, weights, dur_comps = [], [], []
    for m in range(M):
        vals = np.array(per_rank_means[m])
        if len(vals) == 0:
            warnings.warn(f"rank {m} of {dev.name!r} unmatched in every house",
                          stacklevel=2)
            continue
        mean = float(vals.mean())
        if len(vals) >= 2:
            var = max(float(vals.var(ddof=1)), sigma2)
        else:
            var = max(4.0 * sigma2, 1.0)
        comps.append(NormalPrior(mean, var))
        weights.append(float(np.mean(per_rank_share[m])))
        pooled = np.concatenate(per_rank_lengths[m]) if per_rank_lengths[m] else np.array([2])
        phi, lam, vphi = fit_duration_mixture(pooled, TRAIN_R)
        dur_comps.append(_duration_hyper(phi, lam, vphi, TRAIN_R))

    if not comps:
        raise RuntimeError(f"no occupied states found for {dev.name!r}")
    w = np.array(weights)
    w = w / w.sum()
    return DeviceBundle(
        name=dev.name,
        emission_mix=EmissionMixturePrior(weights=w, components=tuple(comps)),
        duration_mix=DurationMixturePrior(weights=w.copy(), components=tuple(dur_comps)),
        alpha=1.0,
        sigma2=sigma2,
        r=TRAIN_R,
    )


def train_hyperparams(traces: dict, config: RunConfig, rng) -> HyperParamBundle:
    """Bundle fit across houses; ``traces`` maps house name to Trace.

    Uses each trace's longest contiguous session: the segment message pass
    needs gap-free data.
    """
    if not traces:
        raise ValueError("no traces given")
    bundles = []
    for dev in config.devices:
        series = {}
        for house, tr in traces.items():
            if dev.name not in tr.devices:
                continue
            k = tr.devices.index(dev.name)
            series[house] = _longest_session(tr, k)
        if not series:
            warnings.warn(f"device {dev.name!r} absent from every trace",
                          stacklevel=2)
            continue
        bundles.append(train_device(series, dev, config.weak_limit,
                                    config.sweeps, config.burn_in, rng))
    if not bundles:
        raise RuntimeError("no devices could be trained")
    return HyperParamBundle(devices=tuple(bundles))
