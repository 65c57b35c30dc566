"""Fleet tracking runs: design PI gains from the frequency response, then
simulate the closed loop, optionally closing it through a per-house
disaggregation filter instead of direct state knowledge.

All powers are per-load units (the thermostat model's kW scale); house
appliance watts are converted where they enter a meter.
"""

from __future__ import annotations

import math

import numpy as np

from ..distributions import NormalPrior
from ..dispatch import (
    NominalLoadModel,
    TclConfig,
    bode_points,
    closed_loop_simulate,
    controlled_kernel,
    fit_pi_gains,
    invariant_pmf,
    tcl_nominal_model,
)
from ..hsmm import simulate_hsmm
from ..rng import substream
from ..smc import ChainPrior, FactorialBpf
from .config import ControlConfig, check_tracking_window, default_bundle
from .disagg import chain_prior
from .synth import draw_device_params

DEFAULT_FREQS = np.logspace(-4.0, math.log10(math.pi), 400)

# nuisance appliances sharing each house meter in the filtered-hook run
HOOK_NUISANCE = ("refrigerator", "dishwasher")


def design_gains(model: NominalLoadModel, freqs=None):
    """(kp, ki, bode_data) at the nominal operating point."""
    if freqs is None:
        freqs = DEFAULT_FREQS
    data = bode_points(model, 0.0, freqs)
    kp, ki = fit_pi_gains(data)
    return kp, ki, data


def reference_signal(config: ControlConfig, baseline: float) -> np.ndarray:
    """Per-load sinusoidal deviation target, amplitude as a fraction of the
    nominal per-load baseline power."""
    t = np.arange(config.steps)
    amp = config.amplitude_frac * baseline
    return amp * np.sin(2.0 * math.pi * t / config.period)


def _scale_prior(p: ChainPrior, scale: float) -> ChainPrior:
    emission = tuple(NormalPrior(c.mean * scale, c.var * scale * scale)
                     for c in p.emission)
    return ChainPrior(alpha=p.alpha, emission=emission,
                      sigma2=p.sigma2 * scale * scale)


def _tcl_chain_prior(u_on: float) -> ChainPrior:
    """Deliberately rough prior for the thermostat chain: the filter is
    expected to sharpen the ON power online."""
    alpha = np.array([[20.0, 1.0], [1.0, 20.0]])
    emission = (NormalPrior(0.0, (0.05 * u_on) ** 2),
                NormalPrior(0.9 * u_on, (0.3 * u_on) ** 2))
    return ChainPrior(alpha=alpha, emission=emission,
                      sigma2=(0.02 * u_on) ** 2)


class FbpfHook:
    """A filter bank (``smc.FactorialBpf``) of one house per load; each
    house meters one thermostat load plus nuisance appliances plus white
    noise, and every house shares one prior list. Every control period
    steps the bank once, each house from its own generator.

    The hook hands the simulator each load's estimated mode and estimated ON
    power; the true states it receives drive only the meter readings.
    """

    def __init__(self, model: NominalLoadModel, config: ControlConfig, rng):
        self.model = model
        n, T = config.n_houses, config.steps
        bundle = default_bundle()
        priors = [_tcl_chain_prior(float(model.U[1]))] + [
            _scale_prior(chain_prior(bundle.device(name), noise_var=0.0), 1e-3)
            for name in HOOK_NUISANCE]
        self.nuisance_kw = np.zeros((n, T))
        rngs = []
        for i in range(n):
            r = substream(rng, "hook-house", i)
            for name in HOOK_NUISANCE:
                params = draw_device_params(bundle.device(name), r)
                _, y = simulate_hsmm(params, T, r)
                self.nuisance_kw[i] += y / 1000.0
            rngs.append(substream(rng, "hook-filter", i))
        self.bank = FactorialBpf(priors, config.hook_particles, rngs)
        self.noise = (math.sqrt(config.meter_noise_var)
                      * substream(rng, "hook-noise").standard_normal((n, T)))
        self.mode_hits = 0
        self.mode_calls = 0

    @property
    def filters(self) -> list[FactorialBpf]:
        """Each house as a read-only lone filter (``FactorialBpf.house``),
        valid until the next period."""
        return [self.bank.house(h) for h in range(self.bank.H)]

    def __call__(self, t: int, states) -> tuple[np.ndarray, np.ndarray]:
        totals = (self.model.power_of_state[states] + self.nuisance_kw[:, t]
                  + self.noise[:, t])
        self.bank.step(totals)
        xu = self.bank.map_states()[:, 0]
        u_on = self.bank.power_means()[0][:, 1]
        true_modes = self.model.xu_of[np.asarray(states, dtype=np.int64)]
        self.mode_hits += int((xu == true_modes).sum())
        self.mode_calls += len(xu)
        return xu, u_on

    @property
    def mode_accuracy(self) -> float:
        return self.mode_hits / max(self.mode_calls, 1)


def simulate_control(config: ControlConfig, rng) -> dict:
    """Design gains, run the loop, and score tracking.

    Hooks: ``none`` evolves occupancy counts for ``n_loads`` loads;
    ``oracle`` runs loads individually with exact mode knowledge;
    ``fbpf`` runs one load per house behind a metered filter, so the fleet
    size is ``n_houses``. Raises ``ValueError`` unless ``steps`` exceeds
    ``transient``.
    """
    check_tracking_window(config)
    model = tcl_nominal_model(TclConfig())
    kp, ki, bode = design_gains(model)

    pi0 = invariant_pmf(controlled_kernel(model, 0.0))
    baseline = float(pi0 @ model.power_of_state)
    reference = reference_signal(config, baseline)

    hook = None
    n_loads = config.n_loads
    if config.hook == "oracle":
        u_on = float(model.U[1])

        def hook(t, states):
            modes = model.xu_of[np.asarray(states, dtype=np.int64)]
            return modes, np.full(len(states), u_on)
    elif config.hook == "fbpf":
        hook = FbpfHook(model, config, rng)
        n_loads = config.n_houses
    elif config.hook != "none":
        raise ValueError(f"unknown hook {config.hook!r}")

    traces = closed_loop_simulate(n_loads, model, reference, (kp, ki), rng,
                                  disagg_hook=hook)
    post = slice(config.transient, None)
    err = traces["e"][post]
    ref_rms = float(np.sqrt(np.mean(reference[post] ** 2)))
    nrms = float(np.sqrt(np.mean(err ** 2)) / ref_rms) if ref_rms > 0 else float("nan")
    out = {
        "traces": traces,
        "reference": reference,
        "kp": kp,
        "ki": ki,
        "bode": bode,
        "baseline": baseline,
        "n_loads": n_loads,
        "nrms": nrms,
    }
    if isinstance(hook, FbpfHook):
        out["hook_accuracy"] = hook.mode_accuracy
    return out
