"""Command-line entry points.

Every writer goes through the atomic nine-significant-digit emitters, so a
command rerun with the same inputs and seed produces byte-identical files.
Set POWERSPLIT_LOG=INFO (or DEBUG) for progress logging on stderr: every
command then reports its name, the kernel backend and its wall time, and
``disagg`` also the filter's final log-evidence. A trace file that does not
parse, whose device columns the bundle does not know, or whose total the
filter cannot explain, is a bad parameter (exit code 2) whose message names
the file and the row, device or timestamp; so is a ``--bundle`` file that
does not parse or breaks the bundle schema, a ``--states`` sidecar whose
device columns or minutes do not match the trace's or whose labels are not
integers, a config setting or ``--weak-limit``/``--particles`` override
below its floor, two ``train`` or ``usage`` traces whose file stem, the
house name, is the same, and a ``bode`` band that is empty, not positive,
or holds no -45 degree phase crossing to fit the gains at.
"""

from __future__ import annotations

import json
import logging
import math
import os
import sys
import time
from dataclasses import replace
from datetime import datetime
from pathlib import Path

import click
import numpy as np

from .. import KERNEL_BACKEND
from ..dispatch import TclConfig, tcl_nominal_model
from ..rng import stream
from ..smc import DegenerateWeightsError
from .config import RunConfig, default_bundle, load_bundle, load_config, save_bundle
from .control import design_gains, simulate_control
from .disagg import disaggregate
from .io import atomic_write_text, fmt, load_trace, write_trace
from .synth import load_states, synth_generate, write_states
from .train import train_hyperparams
from .usage import report_rows, usage_report

log = logging.getLogger("powersplit")

SYNTH_START = datetime(2026, 1, 1)


def _config(path, **overrides) -> RunConfig:
    """The config at ``path``, or the defaults, with the command-line
    ``overrides`` that were given; a config that does not parse or a
    setting out of range is a bad parameter naming the field."""
    given = {key: value for key, value in overrides.items() if value is not None}
    try:
        cfg = load_config(path) if path else RunConfig()
        return replace(cfg, **given)
    except ValueError as exc:
        hint = ["--config"] + [f"--{key.replace('_', '-')}" for key in given]
        raise click.BadParameter(str(exc), param_hint=hint) from exc


def _trace(path):
    try:
        return load_trace(path)
    except ValueError as exc:
        raise click.BadParameter(f"{path}: {exc}", param_hint="trace") from exc


def _houses(traces) -> dict:
    """Each trace path keyed by its file stem, which names the house."""
    paths = {}
    for p in traces:
        house = Path(p).stem
        if house in paths:
            raise click.BadParameter(f"{paths[house]} and {p} share the file stem {house!r}, "
                                     "which names the house", param_hint="traces")
        paths[house] = p
    return paths


def _states(path, trace):
    try:
        return load_states(path, trace.devices, trace.start, trace.T)
    except ValueError as exc:
        raise click.BadParameter(f"{path}: {exc}", param_hint="--states") from exc


def _bundle(path, cfg: RunConfig):
    if not path:
        return default_bundle(cfg)
    try:
        return load_bundle(path)
    except ValueError as exc:
        raise click.BadParameter(f"{path}: {exc}", param_hint="--bundle") from exc


@click.group()
@click.pass_context
def main(ctx):
    """Disaggregation and fleet-control pipeline."""
    # one handler per invocation, bound to the current stderr (test runners swap it)
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
    level = os.environ.get("POWERSPLIT_LOG", "WARNING").upper()
    log.setLevel(getattr(logging, level, logging.WARNING))
    log.addHandler(handler)
    t0 = time.perf_counter()

    def finish():
        log.info("%s: backend=%s wall=%.3fs", ctx.invoked_subcommand, KERNEL_BACKEND,
                 time.perf_counter() - t0)
        log.removeHandler(handler)

    ctx.call_on_close(finish)


@main.command()
@click.option("--config", "config_path", type=click.Path(exists=True))
@click.option("--seed", type=int, default=None, help="Overrides the config seed.")
@click.option("--bundle", "bundle_path", type=click.Path(exists=True),
              help="Hyperparameter bundle; defaults to the built-in priors.")
@click.option("--out", required=True, type=click.Path())
@click.option("--states-out", type=click.Path(),
              help="Also write the true state paths for later scoring.")
def synth(config_path, seed, bundle_path, out, states_out):
    """Generate a synthetic house trace."""
    cfg = _config(config_path, seed=seed)
    bundle = _bundle(bundle_path, cfg)
    for dev in bundle.devices:  # the filter takes one-state chains; simulation does not
        if dev.n_states < 2:
            raise click.BadParameter(f"{bundle_path}: device {dev.name!r} has one state; segment "
                                     "simulation needs at least two", param_hint="--bundle")
    rng = stream(cfg.seed, "synth")
    house = synth_generate(bundle, cfg.horizon, rng,
                           meter_noise_var=cfg.meter_noise_var)
    write_trace(out, SYNTH_START, house.devices, house.values, house.total)
    if states_out:
        write_states(states_out, SYNTH_START, house.devices, house.states)
    click.echo(f"wrote {out}: {cfg.horizon} minutes, "
               f"{len(house.devices)} devices")


@main.command()
@click.argument("traces", nargs=-1, required=True, type=click.Path(exists=True))
@click.option("--out", required=True, type=click.Path())
def usage(traces, out):
    """Summarize device usage over one or more traces."""
    rows = []
    for house, p in _houses(traces).items():
        rows.extend(report_rows([usage_report(house, _trace(p))]))
    lines = ["house,device,rank,used,energy,share,minutes_on"]
    for r in rows:
        lines.append(",".join([
            r["house"], r["device"], str(r["rank"]), str(r["used"]),
            fmt(r["energy"]), fmt(r["share"]), str(r["minutes_on"]),
        ]))
    atomic_write_text(out, "\n".join(lines) + "\n")
    click.echo(f"wrote {out}: {len(rows)} rows")


@main.command()
@click.argument("traces", nargs=-1, required=True, type=click.Path(exists=True))
@click.option("--config", "config_path", type=click.Path(exists=True))
@click.option("--seed", type=int, default=None)
@click.option("--weak-limit", type=int, default=None,
              help="Overrides the config weak-limit truncation.")
@click.option("--out", required=True, type=click.Path())
def train(traces, config_path, seed, weak_limit, out):
    """Fit a hyperparameter bundle from device-level traces."""
    cfg = _config(config_path, seed=seed, weak_limit=weak_limit)
    data = {house: _trace(p) for house, p in _houses(traces).items()}
    rng = stream(cfg.seed, "train")
    bundle = train_hyperparams(data, cfg, rng)
    save_bundle(bundle, out)
    click.echo(f"wrote {out}: {len(bundle.devices)} devices "
               f"from {len(data)} houses")


@main.command()
@click.argument("trace_path", type=click.Path(exists=True))
@click.option("--config", "config_path", type=click.Path(exists=True))
@click.option("--seed", type=int, default=None)
@click.option("--bundle", "bundle_path", type=click.Path(exists=True))
@click.option("--particles", type=int, default=None,
              help="Overrides the config particle count.")
@click.option("--states", "states_path", type=click.Path(exists=True),
              help="True state sidecar; enables accuracy metrics.")
@click.option("--out", required=True, type=click.Path())
@click.option("--metrics-out", type=click.Path())
def disagg(trace_path, config_path, seed, bundle_path, particles, states_path,
           out, metrics_out):
    """Stream the factorial filter over a metered total."""
    cfg = _config(config_path, seed=seed, particles=particles)
    trace = _trace(trace_path)
    bundle = _bundle(bundle_path, cfg)
    known = {d.name for d in bundle.devices}
    unknown = [name for name in trace.devices if name not in known]
    if unknown:
        raise click.BadParameter(
            f"{trace_path}: device column(s) {', '.join(map(repr, unknown))} not in the "
            f"bundle, which has {', '.join(map(repr, sorted(known)))}", param_hint="trace")
    truth = _states(states_path, trace) if states_path else None
    rng = stream(cfg.seed, "disagg")
    try:
        res = disaggregate(trace, bundle, cfg.particles, rng,
                           noise_var=cfg.meter_noise_var, truth_states=truth)
    except DegenerateWeightsError as exc:
        raise click.BadParameter(f"{trace_path}: {exc}", param_hint="trace") from exc
    log.info("disagg: log_evidence=%s", fmt(res.log_evidence))
    log.info("disagg: ess_frac min=%s mean=%s", fmt(res.ess_frac.min()),
             fmt(res.ess_frac.mean()))

    header = ["timestamp"]
    for name in res.devices:
        header += [f"state_{name}", f"power_{name}"]
    header.append("residual")
    lines = [",".join(header)]
    stamps = trace.timestamps()
    for t in range(trace.T):
        if not res.covered[t]:
            continue
        cells = [stamps[t].strftime("%Y-%m-%dT%H:%M")]
        for k in range(len(res.devices)):
            cells += [str(int(res.states[t, k])), fmt(res.powers[t, k])]
        cells.append(fmt(res.residual[t]))
        lines.append(",".join(cells))
    atomic_write_text(out, "\n".join(lines) + "\n")

    if res.metrics is not None:
        doc = json.dumps(res.metrics, indent=2, sort_keys=True)
        if metrics_out:
            atomic_write_text(metrics_out, doc + "\n")
        click.echo(doc)
    click.echo(f"wrote {out}: {int(res.covered.sum())} minutes")


@main.command()
@click.option("--config", "config_path", type=click.Path(exists=True))
@click.option("--seed", type=int, default=None)
@click.option("--out", required=True, type=click.Path())
def control(config_path, seed, out):
    """Closed-loop fleet tracking with designed PI gains."""
    cfg = _config(config_path, seed=seed)
    rng = stream(cfg.seed, "control")
    res = simulate_control(cfg.control, rng)
    tr = res["traces"]
    lines = ["t,reference,y,ybar,ytilde,e,zeta"]
    for t in range(cfg.control.steps):
        lines.append(",".join([str(t)] + [
            fmt(v) for v in (res["reference"][t], tr["y"][t], tr["ybar"][t],
                             tr["ytilde"][t], tr["e"][t], tr["zeta"][t])
        ]))
    atomic_write_text(out, "\n".join(lines) + "\n")
    line = (f"kp={fmt(res['kp'])} ki={fmt(res['ki'])} "
            f"nrms={fmt(res['nrms'])} loads={res['n_loads']}")
    if "hook_accuracy" in res:
        line += f" hook_accuracy={fmt(res['hook_accuracy'])}"
    click.echo(line)
    click.echo(f"wrote {out}")


@main.command()
@click.option("--points", type=int, default=400)
@click.option("--wmin", type=float, default=1e-4, help="rad/sample")
@click.option("--wmax", type=float, default=math.pi, help="rad/sample")
@click.option("--out", required=True, type=click.Path())
def bode(points, wmin, wmax, out):
    """Frequency response of the thermostat fleet and the fitted gains."""
    if points < 2:
        raise click.BadParameter(f"need at least 2 points, got {points}", param_hint=["--points"])
    band = ["--wmin", "--wmax"]
    if not 0.0 < wmin < wmax < math.inf:
        raise click.BadParameter(f"need 0 < wmin < wmax < inf, got wmin={wmin}, wmax={wmax}",
                                 param_hint=band)
    model = tcl_nominal_model(TclConfig())
    freqs = np.logspace(math.log10(wmin), math.log10(wmax), points)
    try:
        kp, ki, data = design_gains(model, freqs=freqs)
    except ValueError as exc:
        raise click.BadParameter(f"{exc} [{wmin}, {wmax}]", param_hint=band) from exc
    lines = ["w,mag_db,phase_deg"]
    for w, mag, ph in data:
        lines.append(",".join([fmt(w), fmt(mag), fmt(ph)]))
    atomic_write_text(out, "\n".join(lines) + "\n")
    click.echo(f"kp={fmt(kp)} ki={fmt(ki)}")
    click.echo(f"wrote {out}")


if __name__ == "__main__":
    main()
