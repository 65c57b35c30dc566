"""Kernel backend selection.

Two kernels are compiled, from the C99 file ``kernels.c`` that ``setup.py``
always builds: ``hsmm_backward``, the cost of every training sweep, and
``fbpf_accumulate``, the joint predictive of every filter step. The
compiled accumulate is bit-identical to the pure one, so the filter's law
does not depend on the backend. ``hmm_forward``, ``hmm_backward`` and
``systematic_counts`` are pure NumPy on every backend: the chain passes
serve library and test paths at small T only, and one resampling call costs
about 0.1 ms at 2000 particles.

An unbuilt source tree (``PYTHONPATH=src``) falls back to the pure kernels;
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
fbpf_accumulate = _impl.fbpf_accumulate
hmm_forward = _pure.hmm_forward
hmm_backward = _pure.hmm_backward
systematic_counts = _pure.systematic_counts

pure = _pure

__all__ = [
    "BACKEND",
    "hmm_forward",
    "hmm_backward",
    "hsmm_backward",
    "fbpf_accumulate",
    "systematic_counts",
    "pure",
]
