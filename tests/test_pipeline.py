"""Pipeline plumbing: trace files and their gap policy, config schema,
bundle serialization, synthesis, training, streaming disaggregation, the
control loop wrapper, and the CLI commands end to end.
"""

import json
import math
import os
import re
import subprocess
import sys
import time
from datetime import datetime
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from powersplit import KERNEL_BACKEND
from powersplit.hsmm import DurationParams
from powersplit.pipeline.cli import main
from powersplit.pipeline.config import (
    ControlConfig,
    DeviceConfig,
    RunConfig,
    bundle_from_doc,
    bundle_to_doc,
    default_bundle,
    load_bundle,
    load_config,
    save_bundle,
)
from powersplit.pipeline.control import design_gains, reference_signal, simulate_control
from powersplit.pipeline.disagg import chain_prior, disaggregate
from powersplit.pipeline.io import (
    Trace,
    atomic_write_text,
    fmt,
    load_trace,
    write_trace,
)
from powersplit.pipeline.synth import (
    draw_device_params,
    load_states,
    synth_generate,
    write_states,
)
from powersplit.pipeline.train import (
    fit_duration_mixture,
    summarize_house,
    train_device,
    train_hyperparams,
)
from powersplit.pipeline.usage import report_rows, usage_report
from powersplit.rng import stream

START = datetime(2026, 1, 1)


def write_csv(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


# ---------------------------------------------------------------------------
# io
# ---------------------------------------------------------------------------


def test_fmt_nine_significant_digits():
    assert fmt(1 / 3) == "0.333333333"
    assert fmt(2.0) == "2"
    assert fmt(-0.5) == "-0.5"
    assert fmt(12345.678912345) == "12345.6789"


def test_atomic_write_creates_directories(tmp_path):
    p = tmp_path / "a" / "b" / "c.txt"
    atomic_write_text(p, "hello\n")
    assert p.read_text() == "hello\n"
    assert not list(p.parent.glob(".tmp-*"))


def test_load_trace_contiguous_clamps_negative(tmp_path):
    p = write_csv(tmp_path / "t.csv", (
        "timestamp,fridge,total\n"
        "2026-01-01T00:00,100,105\n"
        "2026-01-01T00:01,-3,97\n"
        "2026-01-01T00:02,95,99\n"
    ))
    tr = load_trace(p)
    assert tr.devices == ("fridge",)
    assert tr.T == 3
    assert tr.sessions == ((0, 3),)
    assert tr.values[1, 0] == 0.0
    assert list(tr.total) == [105.0, 97.0, 99.0]


def test_load_trace_fills_missing_cells(tmp_path):
    p = write_csv(tmp_path / "t.csv", (
        "timestamp,fridge,total\n"
        "2026-01-01T00:00,,105\n"
        "2026-01-01T00:01,90,\n"
        "2026-01-01T00:02,,99\n"
    ))
    tr = load_trace(p)
    # head cell backfills from the first observation, later cells carry back
    assert tr.values[0, 0] == 90.0
    assert tr.values[2, 0] == 90.0
    assert tr.total[1] == 105.0


def test_load_trace_fills_short_row_gap(tmp_path):
    p = write_csv(tmp_path / "t.csv", (
        "timestamp,fridge,total\n"
        "2026-01-01T00:00,100,105\n"
        "2026-01-01T00:04,80,85\n"
    ))
    tr = load_trace(p)
    assert tr.T == 5
    assert tr.sessions == ((0, 5),)
    assert list(tr.values[:, 0]) == [100.0, 100.0, 100.0, 100.0, 80.0]


def test_load_trace_splits_on_long_gap(tmp_path):
    p = write_csv(tmp_path / "t.csv", (
        "timestamp,fridge,total\n"
        "2026-01-01T00:00,100,105\n"
        "2026-01-01T00:01,100,105\n"
        "2026-01-01T00:09,80,85\n"
        "2026-01-01T00:10,80,85\n"
    ))
    tr = load_trace(p)
    assert tr.T == 11
    assert tr.sessions == ((0, 2), (9, 11))
    assert np.all(tr.values[2:9, 0] == 0.0)


def test_load_trace_error_paths(tmp_path):
    cases = [
        ("empty trace", ""),
        ("header", "time,fridge,total\n2026-01-01T00:00,1,1\n"),
        ("no rows", "timestamp,fridge,total\n"),
        ("bad timestamp", "timestamp,fridge,total\nnot-a-time,1,1\n"),
        ("strictly increasing",
         "timestamp,fridge,total\n2026-01-01T00:01,1,1\n2026-01-01T00:00,1,1\n"),
        ("expected 3 cells", "timestamp,fridge,total\n2026-01-01T00:00,1\n"),
        ("no data", "timestamp,fridge,total\n2026-01-01T00:00,,1\n"),
    ]
    for i, (_, text) in enumerate(cases):
        p = write_csv(tmp_path / f"bad{i}.csv", text)
        with pytest.raises(ValueError):
            load_trace(p)


@pytest.mark.parametrize("cell", ["inf", "-inf", "nan"])
@pytest.mark.parametrize("column", ["fridge", "total"])
def test_load_trace_rejects_non_finite_cells(tmp_path, cell, column):
    rows = ["2026-01-01T00:00,1,1", "2026-01-01T00:01,2,2"]
    rows[1] = f"2026-01-01T00:01,{cell},2" if column == "fridge" else f"2026-01-01T00:01,2,{cell}"
    p = write_csv(tmp_path / "bad.csv", "timestamp,fridge,total\n" + "\n".join(rows) + "\n")
    with pytest.raises(ValueError, match=rf"row 3, column '{column}': non-finite value '{cell}'"):
        load_trace(p)


def test_load_trace_names_the_cell_that_is_not_a_number(tmp_path):
    p = write_csv(tmp_path / "bad.csv", "timestamp,fridge,total\n2026-01-01T00:00,12W,1\n")
    with pytest.raises(ValueError, match="row 2, column 'fridge': not a number: '12W'"):
        load_trace(p)


def test_write_trace_round_trip(tmp_path):
    values = np.array([[100.25, 0.0], [50.5, 1200.0], [0.0, 800.75]])
    total = values.sum(axis=1)
    p = tmp_path / "round.csv"
    write_trace(p, START, ("fridge", "heater"), values, total)
    tr = load_trace(p)
    assert tr.devices == ("fridge", "heater")
    assert np.array_equal(tr.values, values)
    assert np.array_equal(tr.total, total)
    assert tr.start == START


def test_load_config_from_file(tmp_path):
    doc = {
        "seed": 7,
        "horizon": 123,
        "devices": [{"name": "fridge", "n_states": 2, "sigma2": 50.0}],
        "control": {"n_loads": 99, "hook": "oracle"},
    }
    p = tmp_path / "c.json"
    p.write_text(json.dumps(doc))
    cfg = load_config(p)
    assert cfg.seed == 7 and cfg.horizon == 123
    assert cfg.device_names() == ["fridge"]
    assert cfg.control.n_loads == 99 and cfg.control.hook == "oracle"
    # untouched fields keep their defaults
    assert cfg.particles == RunConfig().particles


def test_load_config_rejects_unknown_and_mistyped_keys():
    with pytest.raises(ValueError, match="unknown config key"):
        load_config({"sede": 1})
    with pytest.raises(ValueError, match="wrong type"):
        load_config({"seed": "one"})
    with pytest.raises(ValueError, match="devices\\[0\\]"):
        load_config({"devices": [{"name": "x", "states": 2}]})
    with pytest.raises(ValueError, match="control"):
        load_config({"control": {"loads": 5}})
    with pytest.raises(ValueError, match="hook"):
        load_config({"control": {"hook": "psychic"}})


def test_bundle_round_trip(tmp_path):
    bundle = default_bundle()
    p = tmp_path / "bundle.json"
    save_bundle(bundle, p)
    back = load_bundle(p)
    assert bundle_to_doc(back) == bundle_to_doc(bundle)
    again = bundle_from_doc(bundle_to_doc(bundle))
    for a, b in zip(bundle.devices, again.devices):
        assert a.name == b.name and a.alpha == b.alpha and a.r == b.r
        assert np.array_equal(a.emission_mix.weights, b.emission_mix.weights)


def test_default_bundle_filters_by_config():
    cfg = load_config({"devices": [{"name": "refrigerator"}]})
    bundle = default_bundle(cfg)
    assert [d.name for d in bundle.devices] == ["refrigerator"]
    with pytest.raises(ValueError):
        default_bundle(load_config({"devices": [{"name": "sauna"}]}))
    with pytest.raises(KeyError):
        bundle.device("sauna")


# ---------------------------------------------------------------------------
# synthesis
# ---------------------------------------------------------------------------


def test_draw_device_params_canonical_order():
    dev = default_bundle().device("furnace")
    params = draw_device_params(dev, stream(0, "draw"))
    assert params.J == 3
    assert np.all(np.diff(params.theta) >= 0)
    assert np.all(np.diag(params.pi_bar) == 0.0)
    assert params.sigma2 == dev.sigma2


def test_synth_generate_total_is_exact_sum():
    bundle = default_bundle()
    house = synth_generate(bundle, 300, stream(1, "synth"))
    assert house.values.shape == (300, 4)
    assert np.array_equal(house.total, house.values.sum(axis=1))
    assert np.all(house.values >= 0.0)
    again = synth_generate(bundle, 300, stream(1, "synth"))
    assert np.array_equal(house.values, again.values)
    other = synth_generate(bundle, 300, stream(2, "synth"))
    assert not np.array_equal(house.values, other.values)
    noisy = synth_generate(bundle, 300, stream(1, "synth"), meter_noise_var=25.0)
    assert not np.array_equal(noisy.total, noisy.values.sum(axis=1))


def test_states_sidecar_round_trip(tmp_path):
    house = synth_generate(default_bundle(), 50, stream(3, "synth"))
    p = tmp_path / "states.csv"
    write_states(p, START, house.devices, house.states)
    assert np.array_equal(load_states(p), house.states)


# ---------------------------------------------------------------------------
# usage
# ---------------------------------------------------------------------------


def test_usage_report_ranks_and_flags():
    values = np.array([
        [100.0, 0.0, 50.0],
        [100.0, 0.0, 0.0],
        [100.0, 0.0, 50.0],
    ])
    tr = Trace(start=START, devices=("a", "b", "c"), values=values,
               total=values.sum(axis=1), sessions=((0, 3),))
    rep = usage_report("h1", tr)
    assert rep.total_energy == 400.0
    names = [d.name for d in rep.devices]
    assert names == ["a", "c", "b"]
    a, c, b = rep.devices
    assert a.used and c.used and not b.used
    assert a.share == 300.0 / 400.0
    assert c.minutes_on == 2
    rows = report_rows([rep])
    assert [r["rank"] for r in rows] == [1, 2, 3]
    assert rows[2]["used"] == 0


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------


def test_fit_duration_mixture_recovers_components():
    true = DurationParams(phi=0.7, lam=6.0, r=2, vphi=0.5)
    ds = true.sample(stream(4, "durmix"), 4000)
    phi, lam, vphi = fit_duration_mixture(ds, r=2)
    assert abs(phi - 0.7) < 0.15
    assert abs(lam - 6.0) < 0.6
    fitted = DurationParams(phi=phi, lam=lam, r=2, vphi=vphi)
    assert abs(fitted.mean() - ds.mean()) < 0.25


def test_fit_duration_mixture_degenerate_inputs():
    phi, lam, vphi = fit_duration_mixture([3, 4], r=2)
    assert 0 < phi < 1 and lam > 0 and 0 < vphi < 1
    phi, lam, vphi = fit_duration_mixture(np.ones(50, dtype=int), r=2)
    assert lam <= 0.1  # all-ones pool pins the mean at the support edge
    with pytest.raises(ValueError):
        fit_duration_mixture([0, 2], r=2)


def test_summarize_house_two_level_signal():
    rng = stream(5, "summarize")
    spans = rng.integers(4, 12, size=80)
    levels = np.tile([0.0, 150.0], 40)
    y = np.concatenate([
        np.full(n, v) + rng.normal(0, 5.0, n) for n, v in zip(spans, levels)
    ])
    s = summarize_house(y, n_states=2, L=4, sweeps=15, burn_in=10,
                        sigma2=25.0, rng=rng)
    assert len(s.means) == 2
    assert s.means[0] < 40 and abs(s.means[1] - 150) < 25
    assert abs(s.shares.sum() - 1.0) < 1e-12
    assert all(len(l) > 0 for l in s.lengths)


def test_train_device_single_house_warns():
    rng = stream(6, "train-warn")
    y = np.concatenate([np.full(6, v) for v in [0.0, 150.0] * 20])
    y = y + rng.normal(0, 4.0, len(y))
    dev = DeviceConfig("refrigerator", 2, 25.0)
    with pytest.warns(UserWarning, match="single house"):
        bundle = train_device({"h1": y}, dev, L=4, sweeps=10, burn_in=6, rng=rng)
    assert bundle.n_states == 2
    means = sorted(c.mean for c in bundle.emission_mix.components)
    assert means[0] < 40 and abs(means[1] - 150) < 30


def test_train_on_synthesized_data_recovers_bundle_means():
    # round trip: bundle -> synthesized houses -> retrained bundle; the
    # well-separated emission means should come back within 10%
    cfg = load_config({
        "devices": [{"name": "compressor", "n_states": 2, "sigma2": 2500.0}],
        "weak_limit": 4,
        "sweeps": 12,
        "burn_in": 8,
    })
    bundle = default_bundle(cfg)
    traces = {}
    for i in range(3):
        house = synth_generate(bundle, 420, stream(40 + i, "round-trip"))
        traces[f"h{i}"] = Trace(start=START, devices=house.devices,
                                values=house.values, total=house.total,
                                sessions=((0, 420),))
    trained = train_hyperparams(traces, cfg, stream(50, "round-trip-fit"))
    means = sorted(c.mean for c in trained.device("compressor").emission_mix.components)
    assert abs(means[0]) < 500.0
    assert abs(means[1] - 5000.0) < 500.0


# ---------------------------------------------------------------------------
# disaggregation
# ---------------------------------------------------------------------------


def test_chain_prior_diagonal_matches_mean_duration():
    dev = default_bundle().device("refrigerator")
    prior = chain_prior(dev, noise_var=10.0)
    means = [c.mean for c in prior.emission]
    assert means == sorted(means)
    assert prior.sigma2 == dev.sigma2 + 10.0
    from powersplit.pipeline.disagg import _prior_mean_duration
    dbar = _prior_mean_duration(dev)
    J = dev.n_states
    want_diag = dev.alpha * (J - 1) * (dbar - 1.0)
    assert np.allclose(np.diag(prior.alpha), max(want_diag, dev.alpha))
    off = prior.alpha[~np.eye(J, dtype=bool)]
    assert np.all(off == dev.alpha)


def test_disaggregate_two_state_device():
    cfg = load_config({"devices": [{"name": "refrigerator"}]})
    bundle = default_bundle(cfg)
    house = synth_generate(bundle, 300, stream(7, "disagg-synth"))
    tr = Trace(start=START, devices=house.devices, values=house.values,
               total=house.total, sessions=((0, 300),))
    res = disaggregate(tr, bundle, 200, stream(8, "disagg"),
                       truth_states=house.states)
    assert res.covered.all()
    acc = res.metrics["refrigerator"]["state_accuracy"]
    assert acc > 0.9
    assert res.metrics["refrigerator"]["rmse"] < 60.0
    assert np.isfinite(res.metrics["aggregate_rmse"])


def test_disaggregate_leaves_gap_rows_uncovered():
    cfg = load_config({"devices": [{"name": "refrigerator"}]})
    bundle = default_bundle(cfg)
    house = synth_generate(bundle, 60, stream(9, "gap-synth"))
    tr = Trace(start=START, devices=house.devices, values=house.values,
               total=house.total, sessions=((0, 20), (40, 60)))
    res = disaggregate(tr, bundle, 50, stream(10, "gap"))
    assert not res.covered[20:40].any()
    assert res.covered[:20].all() and res.covered[40:].all()
    assert np.all(res.powers[20:40] == 0.0)


# ---------------------------------------------------------------------------
# control wrapper
# ---------------------------------------------------------------------------


def test_design_gains_are_in_working_range():
    from powersplit.dispatch import TclConfig, tcl_nominal_model
    kp, ki, data = design_gains(tcl_nominal_model(TclConfig()))
    assert 0.3 < kp < 1.2
    assert 0.0 < ki < 0.2
    assert data.shape[1] == 3


def test_reference_signal_shape():
    cfg = ControlConfig(steps=100, period=48, amplitude_frac=0.5)
    ref = reference_signal(cfg, baseline=2.0)
    assert ref[0] == 0.0
    # quarter period falls on the grid, so the peak is exact there
    assert abs(ref[12] - 1.0) < 1e-12
    assert abs(ref.min() + 1.0) < 1e-12
    assert len(ref) == 100


def test_simulate_control_none_hook():
    cfg = ControlConfig(n_loads=400, steps=120, transient=40, hook="none")
    res = simulate_control(cfg, stream(11, "ctl"))
    assert set(res) >= {"traces", "reference", "kp", "ki", "bode", "baseline",
                        "n_loads", "nrms"}
    assert np.isfinite(res["nrms"])
    tr = res["traces"]
    want = res["kp"] * tr["e"] + res["ki"] * np.cumsum(tr["e"])
    assert np.abs(tr["zeta"] - want).max() < 1e-12


def test_simulate_control_hooks_run():
    oracle = simulate_control(
        ControlConfig(n_loads=60, steps=40, transient=10, hook="oracle"),
        stream(12, "ctl-oracle"))
    assert np.all(np.isfinite(oracle["traces"]["y"]))
    fbpf = simulate_control(
        ControlConfig(n_houses=3, steps=30, transient=10, hook="fbpf",
                      hook_particles=60, meter_noise_var=0.0004),
        stream(13, "ctl-fbpf"))
    assert fbpf["n_loads"] == 3
    assert 0.0 <= fbpf["hook_accuracy"] <= 1.0
    assert np.all(np.isfinite(fbpf["traces"]["y"]))


def test_simulate_control_rejects_empty_tracking_window():
    # the default transient is 240 steps; scoring needs at least one after it
    for steps, transient in [(200, 240), (240, 240), (30, 30)]:
        cfg = ControlConfig(n_loads=50, steps=steps, transient=transient)
        with pytest.raises(ValueError, match=r"steps \(\d+\) must exceed transient"):
            simulate_control(cfg, stream(15, "ctl-window"))
    with pytest.raises(ValueError, match="steps.*transient"):
        load_config({"control": {"steps": 200}})
    assert load_config({"control": {"steps": 241}}).control.steps == 241


def test_simulate_control_oracle_tracks_at_full_scale():
    """Criterion 13's fleet and horizon run per load behind the oracle hook:
    it tracks as well as the count path and takes seconds, not minutes."""
    t0 = time.perf_counter()
    res = simulate_control(ControlConfig(hook="oracle"), stream(114, "c13"))
    assert res["n_loads"] == 10_000
    assert len(res["traces"]["y"]) == 1_440
    assert res["nrms"] < 0.15
    assert time.perf_counter() - t0 < 60.0


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


@pytest.fixture()
def runner():
    return CliRunner()


def small_config(tmp_path, **over):
    doc = {
        "seed": 5,
        "horizon": 240,
        "particles": 80,
        "sweeps": 10,
        "burn_in": 6,
        "weak_limit": 4,
        "devices": [{"name": "refrigerator", "n_states": 2, "sigma2": 100.0}],
    }
    doc.update(over)
    p = tmp_path / "config.json"
    p.write_text(json.dumps(doc))
    return str(p)


def test_cli_synth_then_usage_then_disagg(tmp_path, runner):
    cfg = small_config(tmp_path)
    trace = str(tmp_path / "house.csv")
    states = str(tmp_path / "states.csv")
    r = runner.invoke(main, ["synth", "--config", cfg, "--out", trace,
                             "--states-out", states])
    assert r.exit_code == 0, r.output
    assert "240 minutes" in r.output

    out = str(tmp_path / "usage.csv")
    r = runner.invoke(main, ["usage", trace, "--out", out])
    assert r.exit_code == 0, r.output
    lines = (tmp_path / "usage.csv").read_text().splitlines()
    assert lines[0] == "house,device,rank,used,energy,share,minutes_on"
    assert lines[1].startswith("house,refrigerator,1,")

    dis = str(tmp_path / "disagg.csv")
    met = str(tmp_path / "metrics.json")
    r = runner.invoke(main, ["disagg", trace, "--config", cfg, "--states", states,
                             "--out", dis, "--metrics-out", met])
    assert r.exit_code == 0, r.output
    doc = json.loads((tmp_path / "metrics.json").read_text())
    assert doc["refrigerator"]["state_accuracy"] > 0.85
    header = (tmp_path / "disagg.csv").read_text().splitlines()[0]
    assert header == "timestamp,state_refrigerator,power_refrigerator,residual"


def test_cli_train_emits_loadable_bundle(tmp_path, runner):
    cfg = small_config(tmp_path, horizon=300)
    t1 = str(tmp_path / "h1.csv")
    t2 = str(tmp_path / "h2.csv")
    assert runner.invoke(main, ["synth", "--config", cfg, "--seed", "1",
                                "--out", t1]).exit_code == 0
    assert runner.invoke(main, ["synth", "--config", cfg, "--seed", "2",
                                "--out", t2]).exit_code == 0
    out = str(tmp_path / "bundle.json")
    r = runner.invoke(main, ["train", t1, t2, "--config", cfg, "--out", out])
    assert r.exit_code == 0, r.output
    bundle = load_bundle(out)
    assert [d.name for d in bundle.devices] == ["refrigerator"]
    assert bundle.devices[0].n_states == 2


def test_cli_rerun_is_byte_identical(tmp_path, runner):
    cfg = small_config(tmp_path)
    a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    assert runner.invoke(main, ["synth", "--config", cfg, "--out", a]).exit_code == 0
    assert runner.invoke(main, ["synth", "--config", cfg, "--out", b]).exit_code == 0
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_cli_bode(tmp_path, runner):
    out = str(tmp_path / "bode.csv")
    r = runner.invoke(main, ["bode", "--points", "32", "--out", out])
    assert r.exit_code == 0, r.output
    assert "kp=" in r.output
    lines = (tmp_path / "bode.csv").read_text().splitlines()
    assert lines[0] == "w,mag_db,phase_deg"
    assert len(lines) == 33


@pytest.mark.parametrize("command", ["bode", "synth"])
def test_cli_logs_backend_and_wall_time_at_info(tmp_path, runner, command):
    args = {"bode": ["bode", "--points", "8"],
            "synth": ["synth", "--config", small_config(tmp_path)]}[command]
    args = args + ["--out", str(tmp_path / "out.csv")]
    quiet = runner.invoke(main, args)
    assert quiet.exit_code == 0, quiet.output
    assert quiet.stderr == ""
    loud = runner.invoke(main, args, env={"POWERSPLIT_LOG": "INFO"})
    assert loud.exit_code == 0, loud.output
    assert loud.stdout == quiet.stdout
    assert re.fullmatch(
        rf"INFO powersplit: {command}: backend={KERNEL_BACKEND} wall=\d+\.\d{{3}}s\n",
        loud.stderr), loud.stderr


# Runs ``powersplit train`` with the kernels named by argv[1]: the path of a
# compiled-kernel loader to install, or "" for the backend the environment
# selects. Prints the module that served the segment draw and whether
# scipy.stats was imported.
TRAIN_SCRIPT = """
import importlib.util, json, sys
from powersplit import _kernels
from powersplit.pipeline.cli import main

if sys.argv[1]:
    spec = importlib.util.spec_from_file_location("compiled_kernels", sys.argv[1])
    compiled = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(compiled)
    _kernels.hsmm_backward = compiled.hsmm_backward
    _kernels.hsmm_forward_sample = compiled.hsmm_forward_sample
main(sys.argv[2:], standalone_mode=False)
print(json.dumps({"kernels": _kernels.hsmm_forward_sample.__module__,
                  "scipy.stats": "scipy.stats" in sys.modules}))
"""


def test_cli_train_bundle_does_not_depend_on_backend(tmp_path, runner, compiled_kernels):
    # four default devices, two houses; the native and the pure fit must
    # write the same bytes, and neither imports scipy.stats
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"horizon": 300, "sweeps": 3, "burn_in": 2}))
    traces = [str(tmp_path / f"h{seed}.csv") for seed in (1, 2)]
    for seed, trace in zip((1, 2), traces):
        r = runner.invoke(main, ["synth", "--config", str(cfg), "--seed", str(seed),
                                 "--out", trace])
        assert r.exit_code == 0, r.output
    src = str(Path(__file__).resolve().parents[1] / "src")
    bundles = {}
    for backend, loader in (("native", compiled_kernels.__file__), ("pure", "")):
        env = {k: v for k, v in os.environ.items() if k != "POWERSPLIT_PURE"}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        if backend == "pure":
            env["POWERSPLIT_PURE"] = "1"
        out = tmp_path / f"bundle-{backend}.json"
        proc = subprocess.run(
            [sys.executable, "-c", TRAIN_SCRIPT, loader, "train", *traces,
             "--config", str(cfg), "--out", str(out)],
            env=env, capture_output=True, text=True, timeout=300, check=False)
        assert proc.returncode == 0, proc.stderr
        report = json.loads(proc.stdout.splitlines()[-1])
        assert report == {"kernels": {"native": "compiled_kernels",
                                      "pure": "powersplit._kernels._pure"}[backend],
                          "scipy.stats": False}
        bundles[backend] = out.read_bytes()
    assert bundles["native"] == bundles["pure"]


def test_cli_control_rejects_empty_tracking_window(tmp_path, runner):
    cfg = small_config(tmp_path, control={"n_loads": 50, "steps": 200})
    out = tmp_path / "control.csv"
    r = runner.invoke(main, ["control", "--config", cfg, "--out", str(out)])
    assert r.exit_code != 0
    assert "steps (200)" in r.output and "transient (240)" in r.output
    assert not out.exists()


def test_cli_control_small(tmp_path, runner):
    cfg = small_config(
        tmp_path,
        control={"n_loads": 300, "steps": 60, "transient": 20, "hook": "none"},
    )
    out = str(tmp_path / "control.csv")
    r = runner.invoke(main, ["control", "--config", cfg, "--out", out])
    assert r.exit_code == 0, r.output
    assert "nrms=" in r.output
    lines = (tmp_path / "control.csv").read_text().splitlines()
    assert lines[0] == "t,reference,y,ybar,ytilde,e,zeta"
    assert len(lines) == 61
