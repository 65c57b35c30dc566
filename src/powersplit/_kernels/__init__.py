"""Kernel backend selection.

Three kernels are compiled, from the C99 file ``kernels.c`` that
``setup.py`` always builds. Two serve every training sweep:
``hsmm_backward``, the backward messages, and ``hsmm_forward_sample``, the
segment draw over them. The third, ``fbpf_accumulate``, is the joint
predictive of every filter step. The compiled accumulate is bit-identical to
the pure one, so the filter's law does not depend on the backend. The
compiled segment draw makes each pick with the pure one's operations, and
paths differ only when a uniform falls within an ulp of a cdf boundary.
``hmm_forward``, ``hmm_backward`` and ``systematic_counts`` are pure NumPy
on every backend: the chain passes serve library and test paths at small T
only, and one resampling call costs about 0.1 ms at 2000 particles.

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
hsmm_forward_sample = _impl.hsmm_forward_sample
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
    "hsmm_forward_sample",
    "fbpf_accumulate",
    "systematic_counts",
    "pure",
]
