"""Kernel backend selection.

Five kernels are compiled, from the C99 file ``kernels.c`` that ``setup.py``
always builds. Two serve every training sweep: ``hsmm_backward``, the
backward messages, and ``hsmm_forward_sample``, the segment draw over them.
The other three are the deterministic work of every filter step, over the
stacked particles of one or more houses: ``fbpf_accumulate``, the joint
predictive with one reading per particle, shifted by its row max;
``fbpf_total``, the row totals after NumPy's exp; and ``fbpf_advance``,
which moves each resampled particle to a joint state drawn on a pre-drawn
uniform, splits its reading across the chains with pre-drawn normals,
folds both into its ancestor's statistics, draws theta from their
conjugate posterior with pre-drawn normals and writes the Dirichlet
posterior mean of the transition row out of each chain's new state, the
only row the next step reads. The step keeps every draw, exp and log in
NumPy, and the compiled filter kernels are bit-identical to the pure ones,
so the filter's law does not depend on the backend. The compiled segment
draw makes each pick with the pure one's operations, and paths differ only
when a uniform falls within an ulp of a cdf boundary.
``systematic_counts`` is pure NumPy on every backend: one resampling call
costs about 0.1 ms at 2000 particles. It is served from ``_pure``, where
``perfbench/spans.py`` looks up the reference of every traced kernel.

An unbuilt source tree (``PYTHONPATH=src``), or one whose library was
built from another ``kernels.c``, falls back to the pure kernels;
``POWERSPLIT_PURE=1`` forces the fallback.
"""

import os

from . import _pure

if os.environ.get("POWERSPLIT_PURE", "").strip() in ("1", "true", "yes"):
    _impl = _pure
else:
    try:
        from . import _compiled as _impl  # type: ignore[no-redef]
    except ImportError:
        _impl = _pure

BACKEND = _impl.BACKEND

hsmm_backward = _impl.hsmm_backward
hsmm_forward_sample = _impl.hsmm_forward_sample
fbpf_accumulate = _impl.fbpf_accumulate
fbpf_total = _impl.fbpf_total
fbpf_advance = _impl.fbpf_advance
systematic_counts = _pure.systematic_counts

__all__ = [
    "BACKEND",
    "hsmm_backward",
    "hsmm_forward_sample",
    "fbpf_accumulate",
    "fbpf_total",
    "fbpf_advance",
    "systematic_counts",
]
