"""powersplit benchmark: one workload, one seed, one run.

Run from the repository root:

    python3 perfbench/run.py --workload disagg-stream --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation.
``--trace 1`` first runs the workload untraced for half the time, then
patches every traced layer and runs it again for the full time; it reports
the per-layer metrics, the tracing overhead between the two passes, and
writes the spans to ``.perfbench/``. The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
The line before it holds the provenance stamp of the run and the
ungated throughput and median latency.

The package is imported from ``src/`` of the tree this file sits in, after
``setup.py build_ext --inplace`` has built whatever kernels the tree can
build; a tree without the package fails with a nonzero exit code.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

# one thread for BLAS and OpenMP; numpy is imported only after this
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
BUILD_DIR = os.path.join(ROOT, ".bench_build")
OUT_DIR = os.path.join(ROOT, ".perfbench")
NAMES = ("disagg-stream", "train-fit", "fleet-oracle", "fleet-fbpf")

# end-to-end metric -> unit
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "step_p90_ms": "ms",
    "state_accuracy": "ratio",
    "success_rate": "ratio",
}

# traced span -> the statistics reported for it
SPAN_STATS = {
    "kernels.fbpf_accumulate": ("calls", "busy_s"),
    "kernels.systematic_counts": ("calls", "busy_s"),
    "kernels.hsmm_backward": ("calls", "busy_s"),
    "smc.FactorialBpf.step": ("calls", "busy_s", "self_s"),
    "smc.FactorialBpf.map_states": ("calls", "busy_s"),
    "smc.FactorialBpf.power_means": ("calls", "busy_s"),
    "smc.FactorialBpf.__init__": ("calls", "busy_s"),
    "pipeline.control.FbpfHook.__init__": ("calls", "busy_s"),
    "distributions.categorical_rows_sample": ("calls", "busy_s"),
    "distributions.categorical_sample_logits": ("calls", "busy_s"),
    "hsmm.hsmm_backward_messages": ("calls", "busy_s", "self_s"),
    "hsmm.blocked_sample_segments": ("calls", "busy_s", "self_s"),
    "hdp.gibbs_sweep_hdphsmm": ("calls", "busy_s", "self_s"),
    "hdp.hdp_sweep": ("calls", "busy_s"),
    "pipeline.train.fit_duration_mixture": ("calls", "busy_s"),
    "dispatch.step": ("calls", "busy_s", "self_s"),
    "dispatch.hook": ("calls", "busy_s"),
    "dispatch.design_gains": ("calls", "busy_s"),
}
STAT_UNITS = {"calls": "count", "busy_s": "s", "self_s": "s"}

# other per-layer metric -> unit
PER_LAYER_EXTRA = {
    "kernels.fbpf_accumulate.gathers_computed": "count",
    "kernels.fbpf_accumulate.bytes_computed": "B",
    "kernels.hsmm_backward.terms_computed": "count",
    "kernels.hsmm_backward.bytes_computed": "B",
    "kernels.native_call_frac": "ratio",
    "kernels.crosscheck_mismatches": "count",
    "hsmm.blocked_sample_segments.segments": "count",
    "smc.ess_frac": "ratio",
    "smc.unique_ancestor_frac": "ratio",
    "hsmm.duration_tables.hit_ratio": "ratio",
    "hdp.occupied_states": "count",
    "dispatch.tracking_nrms": "ratio",
    "trace.overhead_frac": "ratio",
    "trace.wall_s": "s",
    "trace.spans": "count",
}


def per_layer_units() -> dict:
    units = {f"{name}.{stat}": STAT_UNITS[stat]
             for name, stats in SPAN_STATS.items() for stat in stats}
    units.update(PER_LAYER_EXTRA)
    return units


def build() -> None:
    """Build the tree's compiled kernels in place, once per tree."""
    stamp = os.path.join(BUILD_DIR, "built")
    if os.path.exists(stamp):
        return
    os.makedirs(BUILD_DIR, exist_ok=True)
    proc = subprocess.run(
        [sys.executable, "setup.py", "-q", "build_ext", "--inplace",
         "--build-temp", os.path.join(BUILD_DIR, "tmp")],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        timeout=900, check=False)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        sys.exit(f"build failed with exit code {proc.returncode}")
    with open(stamp, "w", encoding="utf-8") as fh:
        fh.write("ok\n")


def git_commit(root: str) -> str:
    """HEAD of the tree's own git directory, without asking git (a tree that
    is not a repository must not report an enclosing one)."""
    head = os.path.join(root, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        path = os.path.join(root, ".git", name)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(root, ".git", "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + name):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def percentile(values, q: float) -> float:
    import numpy as np
    return float(np.percentile(np.asarray(values), q))


def end_to_end_metrics(out, import_s: float) -> dict:
    setup = import_s + (statistics.median(out.setups) if out.setups else 0.0)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    vals = {
        "setup_s": setup,
        "peak_rss_mb": rss_mb,
        "step_p90_ms": percentile(out.latencies, 90) * 1e3,
        "state_accuracy": out.accuracy if math.isfinite(out.accuracy) else 0.0,
        "success_rate": 1.0 - out.failed / max(out.attempted, 1),
    }
    return {k: {"value": vals[k], "unit": END_TO_END[k]} for k in END_TO_END}


def ungated_metrics(out) -> dict:
    """Throughput and median latency. They are printed but not gated: on a
    shared 2-core host the share of time a run spends beside a busy
    neighbour moves them by 15-25% between runs, while p90 repeats."""
    return {
        "units_per_s": {"value": out.units / out.timed_s, "unit": "1/s"},
        "step_p50_ms": {"value": percentile(out.latencies, 50) * 1e3, "unit": "ms"},
        "steps": {"value": len(out.latencies), "unit": "count"},
        "timed_s": {"value": out.timed_s, "unit": "s"},
    }


def per_layer_metrics(tracer, out, base, cache_delta, mismatches) -> dict:
    stats = tracer.layer_stats()
    c = tracer.counters
    vals = {}
    for name, wanted in SPAN_STATS.items():
        calls, busy, self_s = stats.get(name, (0, 0.0, 0.0))
        got = {"calls": calls, "busy_s": busy, "self_s": self_s}
        for stat in wanted:
            vals[f"{name}.{stat}"] = got[stat]
    for key in ("kernels.fbpf_accumulate.gathers_computed",
                "kernels.fbpf_accumulate.bytes_computed",
                "kernels.hsmm_backward.terms_computed",
                "kernels.hsmm_backward.bytes_computed",
                "hsmm.blocked_sample_segments.segments"):
        vals[key] = c[key]
    resamples = c["smc.resamples"]
    hits, misses = cache_delta
    vals.update({
        "kernels.native_call_frac": tracer.native_call_frac(),
        "kernels.crosscheck_mismatches": mismatches,
        "smc.ess_frac": c["smc.ess_frac_sum"] / resamples if resamples else 0.0,
        "smc.unique_ancestor_frac":
            c["smc.unique_ancestor_frac_sum"] / resamples if resamples else 0.0,
        "hsmm.duration_tables.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "hdp.occupied_states":
            c["hdp.occupied_states_sum"] / c["hdp.sweeps"] if c["hdp.sweeps"] else 0.0,
        "dispatch.tracking_nrms": sum(out.nrms) / len(out.nrms) if out.nrms else 0.0,
        "trace.overhead_frac": overhead_frac(base, out),
        "trace.wall_s": out.timed_s,
        "trace.spans": len(tracer.spans),
    })
    units = per_layer_units()
    return {k: {"value": vals[k], "unit": units[k]} for k in units}


def overhead_frac(base, traced) -> float:
    """Fractional slowdown of the traced pass over the operations both
    passes ran; the passes replay the same seeded work."""
    n = min(len(base.latencies), len(traced.latencies))
    return sum(traced.latencies[:n]) / sum(base.latencies[:n]) - 1.0


def clear_package_caches() -> None:
    """Empty powersplit's memo caches, so the traced pass starts as cold as
    the untraced one did."""
    for name, module in list(sys.modules.items()):
        if name.startswith("powersplit"):
            for obj in vars(module).values():
                if hasattr(obj, "cache_clear"):
                    obj.cache_clear()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    build()
    t0 = time.perf_counter()
    sys.path.insert(0, SRC)
    import numpy
    import scipy

    import powersplit
    import powersplit._kernels
    import powersplit.hsmm
    import workloads
    from spans import Tracer
    import_s = time.perf_counter() - t0
    if not os.path.realpath(powersplit.__file__).startswith(os.path.realpath(SRC) + os.sep):
        sys.exit(f"powersplit imported from {powersplit.__file__}, not from {SRC}")

    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "backend": powersplit._kernels.BACKEND,
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "blas_threads": {v: os.environ[v] for v in BLAS_VARS},
        "commit": git_commit(ROOT),
        "import_s": import_s,
    }
    def run(seconds, tracer):
        return workloads.run_workload(args.workload, args.seed, seconds, tracer)

    if args.trace == 0:
        outs = [run(args.seconds, None)]
        metrics = end_to_end_metrics(outs[0], import_s)
    else:
        base = run(args.seconds / 2, None)
        clear_package_caches()
        tracer = Tracer(f"{args.workload}-seed{args.seed}-pid{os.getpid()}")
        with tracer.installed():
            traced = run(args.seconds, tracer)
        info = powersplit.hsmm._duration_tables_frozen.cache_info()
        mismatches = tracer.crosscheck()
        traced.check("kernel_crosscheck", mismatches == 0)
        metrics = per_layer_metrics(tracer, traced, base, (info.hits, info.misses),
                                    mismatches)
        outs = [base, traced]
        os.makedirs(OUT_DIR, exist_ok=True)
        tracer.dump(os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}.json.gz"),
                    provenance)

    attempted = sum(o.attempted for o in outs)
    failed = min(sum(o.failed for o in outs), attempted)
    checks = {}
    for o in outs:
        for name, ok in o.checks.items():
            checks[name] = checks.get(name, True) and ok
    provenance["checks"] = checks
    provenance["state_accuracy"] = [o.accuracy for o in outs]
    correct = all(checks.values()) and failed == 0
    print(json.dumps({"provenance": provenance, "ungated": ungated_metrics(outs[0])}))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
