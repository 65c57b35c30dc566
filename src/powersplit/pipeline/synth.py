"""Synthetic house generation from a hyperparameter bundle.

Each device draws segment-model parameters from its priors, simulates a
path with explicit durations, and contributes its (zero-clamped) emissions;
the total column adds white meter noise on top of the exact sum. The true
state paths are returned as a sidecar so downstream metrics can score
state-level accuracy on data whose truth is known.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import datetime

import numpy as np

from ..distributions import dirichlet_sample
from ..hsmm import HsmmParams, simulate_hsmm
from ..rng import substream
from .config import DeviceBundle, HyperParamBundle


@dataclass(frozen=True)
class SynthHouse:
    devices: tuple[str, ...]
    values: np.ndarray    # (T, K) device watts
    total: np.ndarray     # (T,) with meter noise
    states: np.ndarray    # (T, K) true state labels, power-ordered


def draw_device_params(bundle: DeviceBundle, rng: np.random.Generator) -> HsmmParams:
    """Concrete segment-model parameters for one device.

    One state per emission-mixture component, ordered by drawn mean so
    state labels are canonical (0 = lowest power); off-diagonal transition
    rows from the symmetric concentration.
    """
    J = bundle.n_states
    theta = np.array([
        rng.normal(c.mean, np.sqrt(c.var)) for c in bundle.emission_mix.components
    ])
    order = np.argsort(theta)
    theta = theta[order]
    durations = tuple(bundle.duration_mix.sample_prior(rng) for _ in range(J))
    if J < 2:
        raise ValueError("segment simulation needs at least two states")
    pi_bar = np.zeros((J, J))
    for j in range(J):
        row = dirichlet_sample(rng, np.full(J - 1, bundle.alpha))
        pi_bar[j, [k for k in range(J) if k != j]] = row
    return HsmmParams(pi_bar=pi_bar, theta=theta, sigma2=bundle.sigma2,
                      durations=durations)


def synth_generate(bundle: HyperParamBundle, T: int, rng,
                   meter_noise_var: float = 0.0) -> SynthHouse:
    names = tuple(d.name for d in bundle.devices)
    K = len(names)
    values = np.empty((T, K))
    states = np.empty((T, K), dtype=np.int64)
    for k, dev in enumerate(bundle.devices):
        r = substream(rng, "device", dev.name)
        p = draw_device_params(dev, r)
        path, y = simulate_hsmm(p, T, r)
        values[:, k] = y
        states[:, k] = path.x
    total = values.sum(axis=1)
    if meter_noise_var > 0:
        total = total + rng.normal(0.0, np.sqrt(meter_noise_var), size=T)
    return SynthHouse(devices=names, values=values, total=total, states=states)


def write_states(path, start: datetime, names, states: np.ndarray) -> None:
    from .io import atomic_write_text
    from datetime import timedelta
    lines = ["timestamp," + ",".join(names)]
    for t in range(len(states)):
        ts = (start + timedelta(minutes=t)).strftime("%Y-%m-%dT%H:%M")
        lines.append(ts + "," + ",".join(str(int(s)) for s in states[t]))
    atomic_write_text(path, "\n".join(lines) + "\n")


def load_states(path, devices, start: datetime, T: int) -> np.ndarray:
    """A true state sidecar as a (T, K) label array, columns in ``devices``
    order. The header names each device once, in any order; row t holds
    minute t from ``start`` and one integer label per device. Anything else
    raises ``ValueError`` naming the device or row."""
    import csv
    from datetime import timedelta
    from .io import _parse_ts
    with open(path, "r", encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    header = rows.pop(0) if rows else []
    if header[:1] != ["timestamp"]:
        raise ValueError("header must be: timestamp, <devices...>")
    names = header[1:]
    for name in names:
        if name not in devices:
            raise ValueError(f"column {name!r} is not a device of the trace")
    for name in devices:
        if names.count(name) != 1:
            raise ValueError(f"device {name!r} needs one column, found {names.count(name)}")
    cols = [1 + names.index(name) for name in devices]
    if len(rows) != T:
        raise ValueError(f"{len(rows)} rows, but the trace spans {T} minutes")
    out = np.empty((T, len(devices)), dtype=np.int64)
    for t, row in enumerate(rows):
        line = t + 2
        if len(row) != len(header):
            raise ValueError(f"row {line}: expected {len(header)} cells")
        want = start + timedelta(minutes=t)
        if _parse_ts(row[0], line) != want:
            raise ValueError(f"row {line}: timestamp {row[0]!r}, expected "
                             f"{want:%Y-%m-%dT%H:%M}")
        for k, c in enumerate(cols):
            try:
                out[t, k] = int(row[c])
            except ValueError:
                raise ValueError(f"row {line}, device {devices[k]!r}: state "
                                 f"{row[c]!r} is not an integer") from None
    return out
