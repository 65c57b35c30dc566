"""ctypes front end of the compiled kernels in ``kernels.c``.

``setup.py`` builds that file into the plain shared library ``_libkernels``
next to this module. The library knows nothing of Python or NumPy: each
wrapper here checks its inputs, copies non-contiguous ones, allocates the
outputs and passes raw pointers. A bad input raises ``ValueError`` naming
the argument before the library reads any memory. Importing this module
raises ``ImportError`` when the library has not been built.

Same contracts as ``_pure``: ``hsmm_backward`` agrees with it to
floating-point reassociation, ``fbpf_accumulate`` bit for bit.
``hsmm_forward_sample`` computes each pick as ``_pure`` does, save that
libm's ``exp`` may differ from NumPy's in the last bit, which moves a
draw only when a uniform lies within an ulp of a cdf boundary.
"""

from __future__ import annotations

import ctypes
import operator
import os

import numpy as np

BACKEND = "native"

# arrays go in as plain addresses: an ``ndpointer`` argtype converts through
# ``ndarray.ctypes.data_as``, whose ``ctypes.cast`` leaves a reference cycle
# per array per call, so a filter stepped with the cyclic collector off grew
# its heap by ~2 KB a step and slowed as the stream went on
_p = ctypes.c_void_p
_n = ctypes.c_ssize_t

try:
    _lib = np.ctypeslib.load_library("_libkernels", os.path.dirname(os.path.abspath(__file__)))
except OSError as exc:
    raise ImportError(f"compiled kernels not built: {exc}") from exc

_lib.hsmm_backward.restype = None
_lib.hsmm_backward.argtypes = [_n, _n, _n, _p, _p, _n, _p, _n, _p, _p, _p, _p]
_lib.hsmm_forward_sample.restype = _n
_lib.hsmm_forward_sample.argtypes = [_n, _n, _n, _p, _p, _p, _p, _p, _n, _p, _n, _p, _p, _p,
                                     _p, ctypes.POINTER(_n), ctypes.POINTER(_n), _p]
_lib.fbpf_accumulate.restype = None
_lib.fbpf_accumulate.argtypes = [_n, _n, _n, _p, _n, _p, _p, ctypes.c_double,
                                 ctypes.c_double, _p, _p, _p]


def _floats(name, a, ndim):
    a = np.asarray(a)
    if a.dtype != np.float64 or a.ndim != ndim:
        raise ValueError(f"{name} must be a {ndim}-d float64 array, "
                         f"got {a.ndim}-d {a.dtype}")
    return np.ascontiguousarray(a)


def _addr(a, dtype=np.float64):
    """Address of the C-contiguous ``dtype`` array ``a``; the caller keeps
    ``a`` alive for the call."""
    if a.dtype != dtype or not a.flags.c_contiguous:
        raise ValueError(f"kernel arrays must be C-contiguous {np.dtype(dtype)}")
    return a.ctypes.data


def hsmm_backward(logtrans_bar, logdur, logtail, loglik, dmax):
    """Explicit-duration backward messages (B, Bstar); see ``_pure``."""
    loglik = _floats("loglik", loglik, 2)
    logtrans_bar = _floats("logtrans_bar", logtrans_bar, 2)
    logdur = _floats("logdur", logdur, 2)
    logtail = _floats("logtail", logtail, 2)
    dmax = operator.index(dmax)
    T, J = loglik.shape
    if dmax < 0:
        raise ValueError(f"dmax must be >= 0, got {dmax}")
    if logtrans_bar.shape != (J, J):
        raise ValueError(f"logtrans_bar must be ({J}, {J}), got {logtrans_bar.shape}")
    if logdur.shape[0] != J or logdur.shape[1] < dmax:
        raise ValueError(f"logdur must have {J} rows and at least dmax={dmax} "
                         f"columns, got {logdur.shape}")
    if logtail.shape[0] != J or logtail.shape[1] < dmax + 1:
        raise ValueError(f"logtail must have {J} rows and at least dmax+1={dmax + 1} "
                         f"columns, got {logtail.shape}")
    cum = np.zeros((T + 1, J))
    np.cumsum(loglik, axis=0, out=cum[1:])
    B = np.empty((T + 1, J))
    Bstar = np.empty((T, J))
    buf = np.empty(max(min(T, dmax) + 1, J))
    _lib.hsmm_backward(T, J, dmax, _addr(logtrans_bar), _addr(logdur), logdur.shape[1],
                       _addr(logtail), logtail.shape[1], _addr(cum), _addr(B),
                       _addr(Bstar), _addr(buf))
    return B, Bstar


def hsmm_forward_sample(loginit, logpibar, B, Bstar, logdur, logtail, cum, window, u):
    """Forward segment draw over the backward messages; see ``_pure``."""
    Bstar = _floats("Bstar", Bstar, 2)
    T, J = Bstar.shape
    loginit = _floats("loginit", loginit, 1)
    logpibar = _floats("logpibar", logpibar, 2)
    B = _floats("B", B, 2)
    logdur = _floats("logdur", logdur, 2)
    logtail = _floats("logtail", logtail, 2)
    cum = _floats("cum", cum, 2)
    u = _floats("u", u, 1)
    window = operator.index(window)
    if window < 0:
        raise ValueError(f"window must be >= 0, got {window}")
    if loginit.shape != (J,):
        raise ValueError(f"loginit must be ({J},), got {loginit.shape}")
    if logpibar.shape != (J, J):
        raise ValueError(f"logpibar must be ({J}, {J}), got {logpibar.shape}")
    for name, a in (("B", B), ("cum", cum)):
        if a.shape != (T + 1, J):
            raise ValueError(f"{name} must be ({T + 1}, {J}), got {a.shape}")
    if logdur.shape[0] != J or logdur.shape[1] < window:
        raise ValueError(f"logdur must have {J} rows and at least window={window} "
                         f"columns, got {logdur.shape}")
    if logtail.shape[0] != J or logtail.shape[1] < window + 1:
        raise ValueError(f"logtail must have {J} rows and at least window+1={window + 1} "
                         f"columns, got {logtail.shape}")
    if len(u) < 2 * T:
        raise ValueError(f"u must hold at least 2*T={2 * T} uniforms, got {len(u)}")
    z = np.empty(T, dtype=np.int64)
    D = np.empty(T, dtype=np.int64)
    nseg, censored = _n(0), _n(0)
    buf = np.empty(max(min(T, window) + 1, J))
    used = _lib.hsmm_forward_sample(T, J, window, _addr(loginit), _addr(logpibar), _addr(B),
                                    _addr(Bstar), _addr(logdur), logdur.shape[1],
                                    _addr(logtail), logtail.shape[1], _addr(cum), _addr(u),
                                    _addr(z, np.int64), _addr(D, np.int64),
                                    ctypes.byref(nseg), ctypes.byref(censored), _addr(buf))
    if used < 0:
        raise ValueError("all categories have zero probability")
    return z[:nseg.value], D[:nseg.value], used, bool(censored.value)


def fbpf_accumulate(logtrans_rows, theta_rows, var_chain, joint_idx, ybar):
    """Joint-state predictive (logw, sumtheta) of the factorial filter, one
    reading per particle in the float64 (N,) array ``ybar``; see ``_pure``."""
    logtrans_rows = _floats("logtrans_rows", logtrans_rows, 3)
    theta_rows = _floats("theta_rows", theta_rows, 3)
    var_chain = _floats("var_chain", var_chain, 1)
    ybar = _floats("ybar", ybar, 1)
    joint_idx = np.asarray(joint_idx)
    if joint_idx.dtype.kind not in "iu" or joint_idx.ndim != 2:
        raise ValueError(f"joint_idx must be a 2-d integer array, "
                         f"got {joint_idx.ndim}-d {joint_idx.dtype}")
    N, K, Jmax = logtrans_rows.shape
    if theta_rows.shape != (N, K, Jmax):
        raise ValueError(f"theta_rows must be {(N, K, Jmax)}, got {theta_rows.shape}")
    if var_chain.shape != (K,):
        raise ValueError(f"var_chain must be ({K},), got {var_chain.shape}")
    if ybar.shape != (N,):
        raise ValueError(f"ybar must be ({N},), got {ybar.shape}")
    if joint_idx.shape[1:] != (K,) or len(joint_idx) == 0:
        raise ValueError(f"joint_idx must be (M, {K}) with M >= 1, got {joint_idx.shape}")
    Js = joint_idx[-1].astype(np.int64) + 1
    if len(joint_idx) != int(np.prod(Js)):
        raise ValueError("joint_idx must be the full row-major product table")
    if Js.min() < 1 or Js.max() > Jmax:
        raise ValueError(f"joint_idx states {Js.tolist()} exceed the {Jmax} row columns")
    M = len(joint_idx)
    svar = float(var_chain.sum())
    logw = np.empty((N, M))
    sumtheta = np.empty((N, M))
    _lib.fbpf_accumulate(N, K, Jmax, _addr(Js, np.int64), M, _addr(logtrans_rows),
                         _addr(theta_rows), svar, float(np.log(2.0 * np.pi * svar)),
                         _addr(ybar), _addr(logw), _addr(sumtheta))
    return logw, sumtheta
