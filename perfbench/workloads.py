"""The four closed-loop workloads.

Each workload has one caller: the next reading, sweep or control period
starts only after the previous one returns. Inputs are generated from the
seed outside the timed region. A workload keeps going until its timed
operations add up to the requested seconds, then returns an ``Outcome``.

Work units (the numerator of ``units_per_s``):

- ``disagg-stream``: meter readings filtered;
- ``train-fit``: house-minutes x sweeps x devices;
- ``fleet-oracle``: loads x control periods;
- ``fleet-fbpf``: houses x control periods.
"""

from __future__ import annotations

import math
import sys
import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass, field
from datetime import datetime

import numpy as np

import powersplit.pipeline.train as train_mod
from powersplit.dispatch import (
    TclConfig,
    closed_loop_simulate,
    controlled_kernel,
    invariant_pmf,
    tcl_nominal_model,
)
from powersplit.pipeline import control
from powersplit.pipeline.config import ControlConfig, RunConfig, default_bundle
from powersplit.pipeline.disagg import build_filter
from powersplit.pipeline.io import Trace
from powersplit.pipeline.synth import synth_generate
from powersplit.rng import stream

# disagg-stream: default four-device house (K=4, M=36) at the config default N
DISAGG_PARTICLES = 2000
DISAGG_HOUSE_MINUTES = 2000
DISAGG_SETUPS = 5
# state accuracy is scored on a fixed prefix of the first house, so it is
# deterministic at a fixed seed whatever the machine's speed
DISAGG_ACC_READINGS = 300

# train-fit: houses of the four default devices, weak limit L=8; many short
# houses sample the per-series sweep cost more evenly than a few long ones,
# which keeps the p90 sweep latency steady across seeds
TRAIN_HOUSES = 8
TRAIN_MINUTES = 300
TRAIN_SWEEPS = 3

# fleet-*: one control episode is a full reference cycle. Accuracy is scored
# on the first three episodes, which every run completes: mode accuracy
# varies from house to house, and 60 houses repeat where 20 do not.
FLEET = {
    "fleet-oracle": {"hook": "oracle", "n": 2000, "periods": 40},
    "fleet-fbpf": {"hook": "fbpf", "n": 20, "periods": 100},
}
FBPF_PARTICLES = 200
FLEET_ACC_EPISODES = 3

# floors sit well below every accuracy seen at baseline; the oracle hook
# hands over the true modes, so anything short of 1 is a defect
ACCURACY_FLOOR = {
    "disagg-stream": 0.7,
    "train-fit": 0.7,
    "fleet-oracle": 1.0,
    "fleet-fbpf": 0.8,
}

# criterion 8: imputed emissions sum to the reading on every particle
SUM_TOL = 1e-9


@dataclass
class Outcome:
    units: float = 0.0           # work completed, in the workload's unit
    timed_s: float = 0.0         # summed duration of the timed operations
    latencies: list = field(default_factory=list)   # seconds per step
    setups: list = field(default_factory=list)      # seconds per set-up
    attempted: int = 0
    failed: int = 0
    accuracy: float = math.nan
    checks: dict = field(default_factory=dict)      # check name -> passed
    nrms: list = field(default_factory=list)        # per fleet episode

    def check(self, name: str, ok: bool) -> None:
        """Record one output check; a failed check is a failed operation."""
        self.checks[name] = self.checks.get(name, True) and bool(ok)
        if not ok:
            self.failed += 1

    def crash(self) -> None:
        """Count the operation that raised and keep the run going."""
        traceback.print_exc(file=sys.stderr)
        self.failed += 1


@contextmanager
def span(tracer, name: str):
    if tracer is None:
        yield
        return
    idx = tracer.open(name)
    try:
        yield
    finally:
        tracer.close(idx)


def _emissions_sum(filt, ybar: float) -> bool:
    return float(np.abs(filt.emis.sum(axis=1) - ybar).max()) <= SUM_TOL * (1.0 + abs(ybar))


def _canonical_accuracy(map_states: np.ndarray, power_means, truth: np.ndarray) -> float:
    """Mean over chains of MAP-label accuracy after relabelling each chain's
    states by posterior mean power (0 = lowest), the order the truth uses."""
    accs = []
    for k, pm in enumerate(power_means):
        rank = np.empty(len(pm), dtype=np.int64)
        rank[np.argsort(pm)] = np.arange(len(pm))
        accs.append(float(np.mean(rank[map_states[:, k]] == truth[:, k])))
    return float(np.mean(accs))


# ---------------------------------------------------------------------------
# disagg-stream
# ---------------------------------------------------------------------------


def disagg_stream(seed: int, seconds: float, tracer) -> Outcome:
    out = Outcome()
    bundle = default_bundle()
    rng = stream(seed, "disagg")

    def house(i):
        return synth_generate(bundle, DISAGG_HOUSE_MINUTES, stream(seed, "house", i))

    def new_filter(h):
        t0 = time.perf_counter()
        filt = build_filter(h.devices, bundle, DISAGG_PARTICLES, rng)
        out.setups.append(time.perf_counter() - t0)
        return filt

    h_idx, h = 0, house(0)
    for _ in range(DISAGG_SETUPS - 1):
        new_filter(h)
    filt = new_filter(h)
    K = len(h.devices)
    first_maps = np.zeros((DISAGG_ACC_READINGS, K), dtype=np.int64)
    t = 0
    while out.timed_s < seconds or (h_idx == 0 and t < DISAGG_ACC_READINGS):
        if t == len(h.total):
            h_idx, t = h_idx + 1, 0
            h = house(h_idx)
            filt = new_filter(h)
        y = float(h.total[t])
        out.attempted += 1
        with span(tracer, "bench.reading"):
            t0 = time.perf_counter()
            try:
                filt.step(y)
                mp = filt.map_states()
                pm = filt.power_means()
            except Exception:
                out.crash()
                filt = new_filter(h)
                t += 1
                continue
            dt = time.perf_counter() - t0
        out.latencies.append(dt)
        out.timed_s += dt
        out.units += 1
        out.check("emissions_sum_to_reading", _emissions_sum(filt, y))
        if h_idx == 0 and t < DISAGG_ACC_READINGS:
            first_maps[t] = mp
            if t == DISAGG_ACC_READINGS - 1:
                out.accuracy = _canonical_accuracy(
                    first_maps, pm, h.states[:DISAGG_ACC_READINGS])
        t += 1
    return out


# ---------------------------------------------------------------------------
# train-fit
# ---------------------------------------------------------------------------


def _majority_accuracy(x: np.ndarray, truth: np.ndarray) -> float:
    """Share of minutes whose weak-limit label maps, by majority vote, onto
    the true state."""
    table = np.zeros((x.max() + 1, truth.max() + 1))
    np.add.at(table, (x, truth), 1.0)
    return float(table.max(axis=1).sum() / len(x))


def _bundle_ok(bundle, names) -> bool:
    if bundle is None or sorted(d.name for d in bundle.devices) != sorted(names):
        return False
    for d in bundle.devices:
        means = np.array([c.mean for c in d.emission_mix.components])
        vars_ = np.array([c.var for c in d.emission_mix.components])
        if not (np.all(np.isfinite(means)) and np.all(vars_ > 0)
                and np.all(np.isfinite(vars_)) and d.sigma2 > 0):
            return False
    return True


def train_fit(seed: int, seconds: float, tracer) -> Outcome:
    out = Outcome()
    bundle = default_bundle()
    houses = [synth_generate(bundle, TRAIN_MINUTES, stream(seed, "train-house", i))
              for i in range(TRAIN_HOUSES)]
    traces = {
        f"house{i}": Trace(start=datetime(2020, 1, 1), devices=h.devices,
                           values=np.maximum(h.values, 0.0), total=h.total,
                           sessions=((0, TRAIN_MINUTES),))
        for i, h in enumerate(houses)
    }
    config = RunConfig(weak_limit=8, sweeps=TRAIN_SWEEPS, burn_in=TRAIN_SWEEPS - 1)
    names = config.device_names()

    last = {}   # id(series) -> (series, latest sweep state)
    sweep = train_mod.gibbs_sweep_hdphsmm

    def timed_sweep(state, y, priors, rng, dmax=None):
        out.attempted += 1
        t0 = time.perf_counter()
        new = sweep(state, y, priors, rng, dmax=dmax)
        out.latencies.append(time.perf_counter() - t0)
        out.units += len(y)
        last[id(y)] = (y, new)
        return new

    train_mod.gibbs_sweep_hdphsmm = timed_sweep
    try:
        fit = 0
        while out.timed_s < seconds:
            last.clear()
            result = None
            t0 = time.perf_counter()
            with span(tracer, "pipeline.train.train_hyperparams"):
                try:
                    result = train_mod.train_hyperparams(
                        traces, config, stream(seed, "train", fit))
                except Exception:
                    out.crash()
            out.timed_s += time.perf_counter() - t0
            out.check("trained_bundle_valid", _bundle_ok(result, names))
            if fit == 0:
                out.accuracy = _final_path_accuracy(last.values(), traces, houses)
            fit += 1
    finally:
        train_mod.gibbs_sweep_hdphsmm = sweep
    return out


def _final_path_accuracy(finals, traces, houses) -> float:
    """Mean majority-label accuracy of each series' last sweep path."""
    series = [(tr.values[:, k], h.states[:, k])
              for tr, h in zip(traces.values(), houses) for k in range(len(h.devices))]
    accs = []
    for y, state in finals:
        truth = next((t for s, t in series if np.array_equal(y, s)), None)
        if truth is not None:
            accs.append(_majority_accuracy(state.path.x, truth))
    return float(np.mean(accs)) if accs else math.nan


# ---------------------------------------------------------------------------
# fleet-oracle and fleet-fbpf
# ---------------------------------------------------------------------------


class OracleHook:
    """Exact mode knowledge, as the ``oracle`` hook of ``simulate_control``."""

    def __init__(self, model):
        self.model = model
        self.u_on = float(model.U[1])

    def __call__(self, t, states):
        modes = self.model.xu_of[np.asarray(states, dtype=np.int64)]
        return modes, np.full(len(states), self.u_on)


class TimedHook:
    """Wraps a control hook: marks control periods, scores the hook's mode
    estimates, and checks the filters' imputed emissions after each call.

    A control period runs from one hook call to the next (or to the end of
    the episode); its latency excludes the benchmark's own checks.
    """

    def __init__(self, hook, model, tracer):
        self.hook = hook
        self.model = model
        self.tracer = tracer
        self.entries: list[float] = []
        self.check_s: list[float] = []
        self.hits = 0
        self.calls = 0
        self.bad_periods = 0
        self._period = -1

    def __call__(self, t, states):
        tr = self.tracer
        self.entries.append(time.perf_counter())
        if tr is not None:
            if self._period >= 0:
                tr.close(self._period)
            self._period = tr.open("dispatch.step")
        with span(tr, "dispatch.hook"):
            xu, u_on = self.hook(t, states)
        c0 = time.perf_counter()
        with span(tr, "bench.check"):
            states = np.asarray(states, dtype=np.int64)
            self.hits += int((np.asarray(xu) == self.model.xu_of[states]).sum())
            self.calls += len(states)
            if isinstance(self.hook, control.FbpfHook) and not self._sums_ok(t, states):
                self.bad_periods += 1
        self.check_s.append(time.perf_counter() - c0)
        return xu, u_on

    def _sums_ok(self, t, states) -> bool:
        hook = self.hook
        totals = (self.model.power_of_state[states] + hook.nuisance_kw[:, t]
                  + hook.noise[:, t])
        return all(_emissions_sum(f, float(y)) for f, y in zip(hook.filters, totals))

    def finish(self) -> list[float]:
        """Close the open period; per-period latencies in seconds."""
        end = time.perf_counter()
        if self.tracer is not None and self._period >= 0:
            self.tracer.close(self._period)
        marks = np.array(self.entries + [end])
        return list(np.diff(marks) - np.array(self.check_s))


def fleet(kind: str, seed: int, seconds: float, tracer) -> Outcome:
    out = Outcome()
    spec = FLEET[kind]
    n, periods = spec["n"], spec["periods"]
    episode = hits = calls = 0
    while out.timed_s < seconds or episode < FLEET_ACC_EPISODES:
        t0 = time.perf_counter()
        model = tcl_nominal_model(TclConfig())
        kp, ki, _ = control.design_gains(model)
        pi0 = invariant_pmf(controlled_kernel(model, 0.0))
        baseline = float(pi0 @ model.power_of_state)
        cfg = ControlConfig(n_loads=n, n_houses=n, steps=periods, period=periods,
                            transient=periods // 4, hook=spec["hook"],
                            hook_particles=FBPF_PARTICLES)
        reference = control.reference_signal(cfg, baseline)
        if cfg.hook == "fbpf":
            hook = control.FbpfHook(model, cfg, stream(seed, "hook", episode))
        else:
            hook = OracleHook(model)
        out.setups.append(time.perf_counter() - t0)

        timed = TimedHook(hook, model, tracer)
        traces = None
        t0 = time.perf_counter()
        with span(tracer, "dispatch.closed_loop_simulate"):
            try:
                traces = closed_loop_simulate(
                    n, model, reference, (kp, ki),
                    stream(seed, "fleet", episode), disagg_hook=timed)
            except Exception:
                out.crash()
            finally:
                latencies = timed.finish()
        out.timed_s += time.perf_counter() - t0 - sum(timed.check_s)
        out.attempted += len(latencies)
        out.latencies.extend(latencies)
        out.units += n * len(latencies)
        if isinstance(hook, control.FbpfHook):
            out.failed += timed.bad_periods
            out.checks["emissions_sum_to_reading"] = (
                out.checks.get("emissions_sum_to_reading", True) and timed.bad_periods == 0)
        finite = traces is not None and all(np.isfinite(v).all() for v in traces.values())
        if traces is not None:
            out.check("fleet_traces_finite", finite)
        if finite:
            post = slice(cfg.transient, None)
            ref_rms = float(np.sqrt(np.mean(reference[post] ** 2)))
            out.nrms.append(float(np.sqrt(np.mean(traces["e"][post] ** 2))) / ref_rms)
        if episode < FLEET_ACC_EPISODES:
            hits += timed.hits
            calls += timed.calls
            out.accuracy = hits / max(calls, 1)
        episode += 1
    return out


WORKLOADS = {
    "disagg-stream": disagg_stream,
    "train-fit": train_fit,
    "fleet-oracle": lambda *a: fleet("fleet-oracle", *a),
    "fleet-fbpf": lambda *a: fleet("fleet-fbpf", *a),
}


def run_workload(name: str, seed: int, seconds: float, tracer) -> Outcome:
    """Run one workload and check its state accuracy against the floor."""
    out = WORKLOADS[name](seed, seconds, tracer)
    out.check("state_accuracy_floor", out.accuracy >= ACCURACY_FLOOR[name])  # NaN fails
    return out
