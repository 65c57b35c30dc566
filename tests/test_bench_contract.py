"""The names the benchmark reaches into the package by.

``perfbench/`` patches layer entry points from outside ``src/`` and imports
workload pieces by name, so renaming or deleting one breaks the benchmark
without breaking any other test. These checks read the benchmark's source
with ``ast`` and resolve every such name against the package, and run the
span tracer around a few filter steps; nothing under ``perfbench/`` is
changed.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import numpy as np

from powersplit.dispatch import TclConfig, tcl_nominal_model
from powersplit.pipeline.config import ControlConfig, default_bundle
from powersplit.pipeline.control import FbpfHook
from powersplit.pipeline.disagg import build_filter
from powersplit.rng import stream

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def parse(name: str) -> ast.Module:
    return ast.parse((PERFBENCH / name).read_text(encoding="utf-8"))


def test_patch_points_resolve():
    tree = parse("spans.py")
    points = next(
        ast.literal_eval(node.value) for node in tree.body
        if isinstance(node, ast.Assign)
        and any(getattr(t, "id", None) == "PATCH_POINTS" for t in node.targets)
    )
    assert points
    for module, owner, attr, _ in points:
        target = importlib.import_module(module)
        if owner:
            target = getattr(target, owner)
        assert callable(getattr(target, attr, None)), (module, owner, attr)


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", PERFBENCH / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_traced_filter_steps_count_and_crosscheck():
    spans = load_spans()
    bundle = default_bundle()
    filt = build_filter([d.name for d in bundle.devices], bundle, 50, stream(22, "traced"))
    tracer = spans.Tracer("contract")
    with tracer.installed():
        for y in (120.0, 5300.0, 900.0):
            filt.step(y)
    N, K, M = filt.N, filt.K, filt.M
    # The counter checks that the tracer still unpacks the kernel's name and
    # arguments (N*M*K per call, from the argument shapes); on the pure
    # backend it no longer measures work done, since no (N, M, K) gather is
    # built. crosscheck() rechecks native calls only, so it is 0 here by
    # construction when the pure backend is active.
    assert tracer.counters["kernels.fbpf_accumulate.gathers_computed"] == 3 * N * M * K
    assert tracer.layer_stats()["smc.FactorialBpf.step"][0] == 3
    assert tracer.crosscheck() == 0


def test_traced_hook_periods_count_filter_layers():
    # the hook steps its bank through the methods the tracer patches: one
    # step and one read of each estimator per period, and one filter built;
    # its per-house views build none
    spans = load_spans()
    model = tcl_nominal_model(TclConfig())
    cfg = ControlConfig(n_houses=3, steps=5, hook="fbpf", hook_particles=20)
    tracer = spans.Tracer("contract-hook")
    with tracer.installed():
        hook = FbpfHook(model, cfg, stream(29, "traced-hook"))
        for t in range(cfg.steps):
            hook(t, np.zeros(cfg.n_houses, dtype=np.int64))
            assert len(hook.filters) == cfg.n_houses
    stats = tracer.layer_stats()
    for layer in ("step", "map_states", "power_means"):
        assert stats[f"smc.FactorialBpf.{layer}"][0] == cfg.steps, layer
    assert stats["smc.FactorialBpf.__init__"][0] == 1
    assert tracer.crosscheck() == 0


def test_objects_the_workloads_read_keep_their_attributes():
    # fleet-fbpf checks the emission sums from the hook's filters, nuisance
    # loads and meter noise; disagg-stream steps a build_filter filter
    model = tcl_nominal_model(TclConfig())
    cfg = ControlConfig(n_houses=2, steps=3, hook="fbpf", hook_particles=30)
    hook = FbpfHook(model, cfg, stream(27, "contract-hook"))
    hook(0, np.zeros(cfg.n_houses, dtype=np.int64))
    assert len(hook.filters) == cfg.n_houses
    assert hook.nuisance_kw.shape == hook.noise.shape == (cfg.n_houses, cfg.steps)
    bundle = default_bundle()
    filt = build_filter([d.name for d in bundle.devices], bundle, 40, stream(28, "contract"))
    filt.step(900.0)
    assert (filt.N, filt.K, filt.M) == (40, 4, 36)
    for f in (*hook.filters, filt):
        assert f.emis.shape == (f.N, f.K)


def test_duration_cache_resolves():
    hsmm = importlib.import_module("powersplit.hsmm")
    assert hasattr(hsmm._duration_tables_frozen, "cache_info")


def test_workload_imports_resolve():
    tree = parse("workloads.py")
    modules = {}  # local name -> imported powersplit module
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("powersplit"):
                    module = importlib.import_module(alias.name)
                    if alias.asname:
                        modules[alias.asname] = module
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("powersplit"):
            module = importlib.import_module(node.module)
            for alias in node.names:
                assert hasattr(module, alias.name), (node.module, alias.name)
                if isinstance(getattr(module, alias.name), type(module)):
                    modules[alias.asname or alias.name] = getattr(module, alias.name)
    assert modules
    # attributes read off imported modules, e.g. control.design_gains
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules):
            assert hasattr(modules[node.value.id], node.attr), (node.value.id, node.attr)
