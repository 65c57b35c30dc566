"""Backend equivalence and resampling-count correctness.

The brute-force offspring oracle places each systematic position by linear
search; the kernels must reproduce it exactly. The factorial accumulate is
checked bit for bit against a direct gather through the joint-state table.

The equivalence tests compare the compiled kernels with the pure ones. When
the package was installed without its extension, the shipped ``_native.c``
is compiled into a temporary directory for this module; when no C compiler
can build it, those tests report as skipped.
"""

import importlib.util
import os
import shutil
import subprocess
import sysconfig
import tempfile

import numpy as np
import pytest
from fbpf_reference import fbpf_accumulate_gather_reference, random_rows
from hypothesis import given, settings, strategies as st

from powersplit import _kernels
from powersplit._kernels import _pure
from powersplit.smc import joint_state_table


def load_native():
    """The compiled kernels: the installed extension, else one built from
    the shipped C source, else None."""
    try:
        from powersplit._kernels import _native
        return _native
    except ImportError:
        pass
    cc = (sysconfig.get_config_var("CC") or "cc").split()[0]
    source = os.path.join(os.path.dirname(_pure.__file__), "_native.c")
    if shutil.which(cc) is None or not os.path.exists(source):
        return None
    with tempfile.TemporaryDirectory() as tmp:
        lib = os.path.join(tmp, "_native" + sysconfig.get_config_var("EXT_SUFFIX"))
        cmd = [cc, "-O2", "-shared", "-fPIC", "-w",
               "-I" + sysconfig.get_paths()["include"], "-I" + np.get_include(),
               source, "-o", lib]
        if subprocess.run(cmd, capture_output=True).returncode != 0:
            return None
        spec = importlib.util.spec_from_file_location("powersplit._kernels._native", lib)
        native = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(native)
        return native


_native = load_native()
BACKENDS = [_pure] + ([_native] if _native is not None else [])
needs_native = pytest.mark.skipif(_native is None, reason="compiled kernels not built")


# oracle: offspring counts by direct placement of u0 + i/N
def offspring_oracle(weights, u0):
    N = len(weights)
    cum = np.cumsum(weights)
    counts = np.zeros(N, dtype=np.int64)
    j = 0
    for i in range(N):
        pos = u0 + i / N
        while cum[j] < pos and j < N - 1:
            j += 1
        counts[j] += 1
    return counts


def random_instance(rng, T, J):
    logtrans = np.log(rng.dirichlet(np.ones(J), size=J))
    loglik = rng.normal(size=(T, J))
    loginit = np.log(rng.dirichlet(np.ones(J)))
    return loginit, logtrans, loglik


def test_backend_flag_is_exposed():
    assert _kernels.BACKEND in ("native", "pure")
    assert _pure.BACKEND == "pure"


@needs_native
def test_forward_backward_agree_across_backends():
    rng = np.random.default_rng(0)
    for T, J in [(1, 2), (7, 3), (40, 5)]:
        loginit, logtrans, loglik = random_instance(rng, T, J)
        a_p = _pure.hmm_forward(loginit, logtrans, loglik)
        a_n = _native.hmm_forward(loginit, logtrans, loglik)
        assert np.allclose(a_p, a_n, atol=1e-12)
        b_p = _pure.hmm_backward(logtrans, loglik)
        b_n = _native.hmm_backward(logtrans, loglik)
        assert np.allclose(b_p, b_n, atol=1e-12)


@needs_native
def test_hsmm_backward_agrees_across_backends():
    rng = np.random.default_rng(1)
    T, J, dmax = 30, 3, 12
    logtrans = np.full((J, J), -np.inf)
    for j in range(J):
        row = rng.dirichlet(np.ones(J - 1))
        logtrans[j, np.arange(J) != j] = np.log(row)
    d = rng.dirichlet(np.ones(dmax), size=J)
    logdur = np.log(d)
    tail = np.concatenate([np.ones((J, 1)), 1.0 - np.cumsum(d, axis=1)], axis=1)
    logtail = np.log(np.maximum(tail, 1e-300))
    loglik = rng.normal(size=(T, J))
    out_p = _pure.hsmm_backward(logtrans, logdur, logtail, loglik, dmax)
    out_n = _native.hsmm_backward(logtrans, logdur, logtail, loglik, dmax)
    for a, b in zip(out_p, out_n):
        assert np.allclose(a, b, atol=1e-12)


@needs_native
def test_fbpf_accumulate_agrees_across_backends():
    rng = np.random.default_rng(2)
    for Js in [(3, 2, 3), (2, 3, 2, 3), (1,), (4, 1, 2)]:
        rows, theta, var = random_rows(rng, 50, Js)
        joint = joint_state_table(Js)
        out_p = _pure.fbpf_accumulate(rows, theta, var, joint, 250.0)
        out_n = _native.fbpf_accumulate(rows, theta, var, joint, 250.0)
        for a, b in zip(out_p, out_n):
            assert np.allclose(a, b, atol=1e-12)


@settings(max_examples=80, deadline=None)
@given(st.lists(st.integers(1, 4), min_size=1, max_size=5), st.integers(1, 12),
       st.floats(0.0, 0.5), st.integers(0, 10_000))
def test_fbpf_accumulate_outer_sum_matches_gather(Js, N, p_inf, seed):
    rng = np.random.default_rng(seed)
    rows, theta, var = random_rows(rng, N, Js, p_inf)
    joint = joint_state_table(tuple(Js))
    ybar = float(rng.normal(300.0, 400.0))
    got = _pure.fbpf_accumulate(rows, theta, var, joint, ybar)
    want = fbpf_accumulate_gather_reference(rows, theta, var, joint, ybar)
    for a, b in zip(got, want):
        assert np.array_equal(a, b)


def test_fbpf_accumulate_rejects_non_product_table():
    rng = np.random.default_rng(4)
    rows, theta, var = random_rows(rng, 5, (2, 3, 2))
    joint = joint_state_table((2, 3, 2))
    for subset in (joint[:-1], joint[1:], joint[[0, 3, 11]], joint[::3]):
        with pytest.raises(ValueError, match="product"):
            _pure.fbpf_accumulate(rows, theta, var, subset, 250.0)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 40), st.floats(0.0, 0.999), st.integers(0, 10_000))
def test_systematic_counts_match_oracle(n, u_frac, seed):
    rng = np.random.default_rng(seed)
    w = rng.dirichlet(np.ones(n) * 0.7)
    u0 = u_frac / n
    want = offspring_oracle(w, u0)
    for impl in BACKENDS:
        got = np.asarray(impl.systematic_counts(w, u0))
        assert got.sum() == n
        assert np.array_equal(got, want), impl.BACKEND


def test_systematic_counts_are_within_one_of_expectation():
    # offspring of weight w differs from N*w by less than 1 for systematic
    # placement; this is the variance-reduction property worth guarding
    rng = np.random.default_rng(3)
    N = 500
    w = rng.dirichlet(np.ones(N))
    for u_frac in (0.0, 0.31, 0.77):
        counts = np.asarray(_kernels.systematic_counts(w, u_frac / N))
        assert np.all(np.abs(counts - N * w) < 1.0 + 1e-12)
