"""Span tracer that instruments powersplit from outside the package.

Each traced name is patched where its caller looks it up (``smc`` binds the
kernels at import, ``hsmm`` reads ``_kernels.hsmm_backward`` off the module,
and so on), so nothing under ``src/`` changes. A span records its name,
start, end, parent span and the run id; spans stay in memory and are written
out once, when the run ends. Counters for work done (computed from array
shapes) and for the law sentinels are folded in at the same boundaries.
"""

from __future__ import annotations

import gzip
import importlib
import json
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

# (module, owner class or "", attribute, span name)
PATCH_POINTS = (
    ("powersplit.smc", "", "fbpf_accumulate", "kernels.fbpf_accumulate"),
    ("powersplit.smc", "", "systematic_counts", "kernels.systematic_counts"),
    ("powersplit._kernels", "", "hsmm_backward", "kernels.hsmm_backward"),
    ("powersplit.smc", "", "categorical_rows_sample",
     "distributions.categorical_rows_sample"),
    ("powersplit.hsmm", "", "categorical_sample_logits",
     "distributions.categorical_sample_logits"),
    ("powersplit.hdp", "", "categorical_sample_logits",
     "distributions.categorical_sample_logits"),
    ("powersplit.hsmm", "", "hsmm_backward_messages", "hsmm.hsmm_backward_messages"),
    ("powersplit.hdp", "", "blocked_sample_segments", "hsmm.blocked_sample_segments"),
    ("powersplit.hdp", "", "hdp_sweep", "hdp.hdp_sweep"),
    ("powersplit.pipeline.train", "", "gibbs_sweep_hdphsmm", "hdp.gibbs_sweep_hdphsmm"),
    ("powersplit.pipeline.train", "", "fit_duration_mixture",
     "pipeline.train.fit_duration_mixture"),
    ("powersplit.pipeline.control", "", "design_gains", "dispatch.design_gains"),
    ("powersplit.smc", "FactorialBpf", "__init__", "smc.FactorialBpf.__init__"),
    ("powersplit.smc", "FactorialBpf", "step", "smc.FactorialBpf.step"),
    ("powersplit.smc", "FactorialBpf", "map_states", "smc.FactorialBpf.map_states"),
    ("powersplit.smc", "FactorialBpf", "power_means", "smc.FactorialBpf.power_means"),
    ("powersplit.pipeline.control", "FbpfHook", "__init__",
     "pipeline.control.FbpfHook.__init__"),
)

def _nbytes(*arrays) -> int:
    return sum(a.nbytes for a in arrays if isinstance(a, np.ndarray))


def _on_fbpf_accumulate(c, args, out):
    rows, _, _, joint_idx, _ = args
    N, K, _ = rows.shape
    c["kernels.fbpf_accumulate.gathers_computed"] += N * joint_idx.shape[0] * K
    c["kernels.fbpf_accumulate.bytes_computed"] += _nbytes(*args[:4], *out)


def _on_hsmm_backward(c, args, out):
    T, J = args[3].shape
    c["kernels.hsmm_backward.terms_computed"] += T * J * int(args[4])
    c["kernels.hsmm_backward.bytes_computed"] += _nbytes(*args[:4], *out)


def _on_systematic_counts(c, args, out):
    w = np.asarray(args[0])
    c["smc.resamples"] += 1
    c["smc.ess_frac_sum"] += 1.0 / float((w * w).sum()) / len(w)
    c["smc.unique_ancestor_frac_sum"] += np.count_nonzero(out) / len(w)


def _on_segments(c, args, out):
    c["hsmm.blocked_sample_segments.segments"] += len(out.z)


def _on_sweep(c, args, out):
    c["hdp.sweeps"] += 1
    c["hdp.occupied_states_sum"] += len(np.unique(out.path.z))


ON_RETURN = {
    "kernels.fbpf_accumulate": _on_fbpf_accumulate,
    "kernels.hsmm_backward": _on_hsmm_backward,
    "kernels.systematic_counts": _on_systematic_counts,
    "hsmm.blocked_sample_segments": _on_segments,
    "hdp.gibbs_sweep_hdphsmm": _on_sweep,
}


class Tracer:
    """In-memory span recorder plus the counters gathered alongside."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []   # [name, start, end, parent index]
        self._stack: list[int] = []
        self.counters: defaultdict = defaultdict(float)
        self.backend_calls: defaultdict = defaultdict(int)  # (kernel, module) -> calls
        self.first_kernel_call: dict = {}  # kernel -> (fn, args, out)

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        """Close span ``idx`` and any span still open inside it."""
        now = time.perf_counter()
        while self._stack:
            top = self._stack.pop()
            self.spans[top][2] = now
            if top == idx:
                return

    def wrap(self, name: str, fn):
        on_return = ON_RETURN.get(name)
        kernel = name.split(".", 1)[1] if name.startswith("kernels.") else None
        backend = getattr(fn, "__module__", None) or "unknown"
        counters = self.counters

        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if kernel is not None:
                self.backend_calls[(kernel, backend)] += 1
                if kernel not in self.first_kernel_call:
                    self.first_kernel_call[kernel] = (fn, _copy(args), _copy(out))
            if on_return is not None:
                on_return(counters, args, out)
            return out

        return traced

    @contextmanager
    def installed(self):
        """Patch every traced name for the duration of the block."""
        undo = []
        try:
            for module, owner, attr, name in PATCH_POINTS:
                target = importlib.import_module(module)
                if owner:
                    target = getattr(target, owner)
                orig = getattr(target, attr)
                undo.append((target, attr, orig))
                setattr(target, attr, self.wrap(name, orig))
            yield self
        finally:
            for target, attr, orig in reversed(undo):
                setattr(target, attr, orig)

    def crosscheck(self) -> int:
        """Re-run the first traced call of each compiled kernel on the pure
        reference and count the kernels that disagree. Calls the pure
        backend served need no check."""
        from powersplit._kernels import _pure

        mismatches = 0
        for kernel, (fn, args, out) in self.first_kernel_call.items():
            if getattr(fn, "__module__", None) != _pure.__name__:
                mismatches += not _close(getattr(_pure, kernel)(*args), out)
        return mismatches

    def layer_stats(self) -> dict:
        """name -> [calls, busy seconds, self seconds]. Self time is the
        span's duration minus the time its child spans cover."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        stats: dict = defaultdict(lambda: [0, 0.0, 0.0])
        for i, (name, start, end, _) in enumerate(self.spans):
            s = stats[name]
            s[0] += 1
            s[1] += end - start
            s[2] += end - start - child[i]
        return stats

    def native_call_frac(self) -> float:
        total = sum(self.backend_calls.values())
        native = sum(n for (_, mod), n in self.backend_calls.items()
                     if not mod.endswith("._pure"))
        return native / total if total else 0.0

    def dump(self, path, provenance: dict) -> None:
        names = sorted({s[0] for s in self.spans})
        code = {n: i for i, n in enumerate(names)}
        doc = {
            "run_id": self.run_id,
            "provenance": provenance,
            "fields": ["name", "start", "end", "parent", "run_id"],
            "names": names,
            "spans": [[code[n], a, b, p, self.run_id] for n, a, b, p in self.spans],
            "backend_calls": {f"{k}:{m}": n for (k, m), n in self.backend_calls.items()},
            "counters": dict(self.counters),
        }
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(doc, fh)


def _copy(x):
    if isinstance(x, tuple):
        return tuple(_copy(v) for v in x)
    return x.copy() if isinstance(x, np.ndarray) else x


def _close(a, b) -> bool:
    if isinstance(a, tuple):
        return all(_close(x, y) for x, y in zip(a, b))
    return np.allclose(a, b, rtol=1e-10, atol=1e-12, equal_nan=True)
