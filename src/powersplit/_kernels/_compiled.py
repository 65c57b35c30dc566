"""ctypes front end of the compiled kernels in ``kernels.c``.

``setup.py`` builds that file into the plain shared library ``_libkernels``
next to this module. The library knows nothing of Python or NumPy: each
wrapper here checks its inputs, including the indices a kernel follows,
copies non-contiguous ones, allocates the outputs and passes raw pointers.
A bad input raises ``ValueError`` naming the argument before the library
reads any memory. Importing this module raises ``ImportError`` when the
library has not been built, or was built from a ``kernels.c`` other than
the one next to it: a stale library may take other arguments.

Same contracts as ``_pure``: ``hsmm_backward`` agrees with it to the last
bit, where libm's ``exp`` and NumPy's SIMD one round apart, and the filter
step's passes (``fbpf_accumulate``, ``fbpf_total``, ``fbpf_advance``) bit
for bit: they take no exp or log, which stay in NumPy.
``hsmm_forward_sample`` computes each pick as ``_pure`` does, save that
libm's ``exp`` may differ from NumPy's in the last bit, which moves a draw
only when a uniform lies within an ulp of a cdf boundary.
"""

from __future__ import annotations

import ctypes
import hashlib
import operator
import os

import numpy as np

BACKEND = "native"

# the accumulate's floor, ``_pure.EXP_FLOOR``; this module loads by file
# path as well, so it imports nothing from the package
EXP_FLOOR = -700.0

# arrays go in as plain addresses: an ``ndpointer`` argtype converts through
# ``ndarray.ctypes.data_as``, whose ``ctypes.cast`` leaves a reference cycle
# per array per call, so a filter stepped with the cyclic collector off grew
# its heap by ~2 KB a step and slowed as the stream went on
_p = ctypes.c_void_p
_n = ctypes.c_ssize_t

_here = os.path.dirname(os.path.abspath(__file__))
try:
    _lib = np.ctypeslib.load_library("_libkernels", _here)
except OSError as exc:
    raise ImportError(f"compiled kernels not built: {exc}") from exc
with open(os.path.join(_here, "kernels.c"), "rb") as _fh:
    _source = hashlib.sha256(_fh.read()).hexdigest().encode()
_built = getattr(_lib, "kernels_digest", None)  # absent from older builds
if _built is not None:
    _built.restype = ctypes.c_char_p
if _built is None or _built() != _source:
    raise ImportError("compiled kernels were built from another kernels.c: rebuild them")

_lib.hsmm_backward.restype = None
_lib.hsmm_backward.argtypes = [_n, _n, _n, _p, _p, _n, _p, _n, _p, _p, _p, _p]
_lib.hsmm_forward_sample.restype = _n
_lib.hsmm_forward_sample.argtypes = [_n, _n, _n, _p, _p, _p, _p, _p, _n, _p, _n, _p, _p, _p,
                                     _p, ctypes.POINTER(_n), ctypes.POINTER(_n), _p]
_lib.fbpf_accumulate.restype = None
_lib.fbpf_accumulate.argtypes = [_n, _n, _n, _p, _n, _p, _p, ctypes.c_double,
                                 ctypes.c_double, _p, ctypes.c_double, _p, _p, _p]
_lib.fbpf_total.restype = None
_lib.fbpf_total.argtypes = [_n, _n, _p, _p]
_lib.fbpf_advance.restype = None
_lib.fbpf_advance.argtypes = [_n] * 4 + [_p] * 11 + [ctypes.c_int] + [_p] * 14


def _floats(name, a, ndim):
    a = np.asarray(a)
    if a.dtype != np.float64 or a.ndim != ndim:
        raise ValueError(f"{name} must be a {ndim}-d float64 array, "
                         f"got {a.ndim}-d {a.dtype}")
    return np.ascontiguousarray(a)


def _ints(name, a, ndim):
    a = np.asarray(a)
    if a.dtype != np.int64 or a.ndim != ndim:
        raise ValueError(f"{name} must be a {ndim}-d int64 array, "
                         f"got {a.ndim}-d {a.dtype}")
    return np.ascontiguousarray(a)


def _shape(name, a, shape):
    if a.shape != shape:
        raise ValueError(f"{name} must be {shape}, got {a.shape}")


def _indices(name, a, stop, what):
    """``a`` holds indices in 0..stop-1: the kernel follows them."""
    if a.size and (a.min() < 0 or a.max() >= stop):
        raise ValueError(f"{name} must index the {stop} {what}")


def _joint(joint_idx):
    """The joint-state table as a C-contiguous int32 array."""
    joint_idx = np.asarray(joint_idx)
    if joint_idx.dtype.kind not in "iu" or joint_idx.ndim != 2:
        raise ValueError(f"joint_idx must be a 2-d integer array, "
                         f"got {joint_idx.ndim}-d {joint_idx.dtype}")
    return np.ascontiguousarray(joint_idx, dtype=np.int32)


def _chain_sizes(Js, Jmax):
    """The chains' state counts as an int64 array, each in 1..Jmax."""
    Js = np.array(Js, dtype=np.int64).reshape(-1)
    if len(Js) == 0 or Js.min() < 1 or Js.max() > Jmax:
        raise ValueError(f"Js {Js.tolist()} must give each chain 1..{Jmax} states")
    return Js


def _addr(a, dtype=np.float64):
    """Address of the C-contiguous ``dtype`` array ``a``; the caller keeps
    ``a`` alive for the call."""
    if a.dtype != dtype or not a.flags.c_contiguous:
        raise ValueError(f"kernel arrays must be C-contiguous {np.dtype(dtype)}")
    return a.ctypes.data


def hsmm_backward(logtrans_bar, logdur, logtail, loglik, dmax):
    """Explicit-duration backward messages (B, Bstar); see ``_pure``. The
    scratch buffer also holds the kernel's j-major copies of B and cum."""
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
    buf = np.empty(2 * J * (T + 1) + max(min(T, dmax) + 1, J))
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
    """Joint-state predictive ``logw`` of the factorial filter, one reading
    per particle in the float64 (N,) array ``ybar``, shifted by its row max;
    see ``_pure``."""
    logtrans_rows = _floats("logtrans_rows", logtrans_rows, 3)
    theta_rows = _floats("theta_rows", theta_rows, 3)
    var_chain = _floats("var_chain", var_chain, 1)
    ybar = _floats("ybar", ybar, 1)
    joint_idx = _joint(joint_idx)
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
    row_max = np.empty(N)
    scratch = np.empty(M)
    _lib.fbpf_accumulate(N, K, Jmax, _addr(Js, np.int64), M, _addr(logtrans_rows),
                         _addr(theta_rows), svar, float(np.log(2.0 * np.pi * svar)),
                         _addr(ybar), EXP_FLOOR, _addr(logw), _addr(row_max), _addr(scratch))
    return logw, row_max


def fbpf_total(pred):
    """Row sums of ``pred`` after zeroing its NaN lanes in place; see
    ``_pure``."""
    if (not isinstance(pred, np.ndarray) or pred.ndim != 2 or pred.dtype != np.float64
            or not pred.flags.c_contiguous or not pred.flags.writeable or pred.shape[1] == 0):
        raise ValueError("pred is written in place: it must be a writeable "
                         "C-contiguous 2-d float64 array with columns")
    tot = np.empty(len(pred))
    _lib.fbpf_total(*pred.shape, _addr(pred), _addr(tot))
    return tot


def fbpf_advance(pred, tot, anc, u, joint_idx, theta, var_chain, ybar, z, states, transitions,
                 trans_counts, emis_sums, emis_counts, zt, prior_mean, prior_var, alpha, Js):
    """Each resampled particle's joint-state draw, emission split,
    statistics fold, conjugate posterior and the Dirichlet posterior-mean
    rows out of its new states; see ``_pure``."""
    pred = _floats("pred", pred, 2)
    tot = _floats("tot", tot, 1)
    anc = _ints("anc", anc, 1)
    u = _floats("u", u, 1)
    theta = _floats("theta", theta, 3)
    var_chain = _floats("var_chain", var_chain, 1)
    ybar = _floats("ybar", ybar, 1)
    z = _floats("z", z, 2)
    states = _ints("states", states, 2)
    trans_counts = _floats("trans_counts", trans_counts, 4)
    emis_sums = _floats("emis_sums", emis_sums, 3)
    emis_counts = _floats("emis_counts", emis_counts, 3)
    zt = _floats("zt", zt, 2)
    prior_mean = _floats("prior_mean", prior_mean, 2)
    prior_var = _floats("prior_var", prior_var, 2)
    alpha = _floats("alpha", alpha, 3)
    joint_idx = _joint(joint_idx)
    rows, K, Jm = emis_sums.shape
    M, R = pred.shape[1], len(anc)
    if M == 0 or K == 0:
        raise ValueError("pred must have a column and emis_sums a chain")
    _shape("pred", pred, (rows, M))
    _shape("tot", tot, (rows,))
    _shape("u", u, (R,))
    _shape("joint_idx", joint_idx, (M, K))
    _shape("theta", theta, (rows, K, Jm))
    _shape("var_chain", var_chain, (K,))
    _shape("ybar", ybar, (R,))
    _shape("z", z, (R, K))
    _shape("states", states, (rows, K))
    _shape("trans_counts", trans_counts, (rows, K, Jm, Jm))
    _shape("emis_counts", emis_counts, (rows, K, Jm))
    _shape("prior_mean", prior_mean, (K, Jm))
    _shape("prior_var", prior_var, (K, Jm))
    _shape("alpha", alpha, (K, Jm, Jm))
    Js = _chain_sizes(Js, Jm)
    if len(Js) != K:
        raise ValueError(f"Js must give {K} chains, got {len(Js)}")
    C = int(Js.sum())
    _shape("zt", zt, (R, C))
    _indices("anc", anc, rows, "rows of pred and of the statistics")
    _indices("joint_idx", joint_idx, Jm, "state lanes")
    _indices("states", states, Jm, "state lanes")
    # the prior's own quotients, as the pure posterior forms them
    inv_v0 = 1.0 / prior_var
    m0_v0 = prior_mean / prior_var
    new_states = np.empty((R, K), dtype=np.int64)
    emis = np.empty((R, K))
    tc = np.empty((R, K, Jm, Jm))
    es = np.empty((R, K, Jm))
    ec = np.empty((R, K, Jm))
    theta_out = np.empty((R, K, Jm))
    rows_out = np.empty((R, K, Jm))
    _lib.fbpf_advance(R, M, K, Jm, _addr(Js, np.int64), _addr(pred), _addr(tot),
                      _addr(anc, np.int64), _addr(u), _addr(joint_idx, np.int32),
                      _addr(theta), _addr(var_chain), _addr(ybar), _addr(z),
                      _addr(states, np.int64), int(bool(transitions)), _addr(trans_counts),
                      _addr(emis_sums), _addr(emis_counts), _addr(zt), _addr(inv_v0),
                      _addr(m0_v0), _addr(alpha), _addr(new_states, np.int64), _addr(emis),
                      _addr(tc), _addr(es), _addr(ec), _addr(theta_out), _addr(rows_out))
    return new_states, emis, tc, es, ec, theta_out, rows_out
