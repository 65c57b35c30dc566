"""Backend equivalence, input checks, the kernel build and resampling counts.

The brute-force offspring oracle places each systematic position by linear
search; the kernel must reproduce it exactly. The factorial accumulate is
checked bit for bit against a direct gather through the joint-state table,
on both backends. The compiled forward segment draw must walk the same
segments, and read the same number of uniforms, as the pure one on inputs
captured from a training fit and on edge cases.

The compiled kernels come from the ``compiled_kernels`` fixture: the tree's
own library when it is built, else one ``setup.py`` builds into a temporary
directory. When that build fails, the equivalence tests fail.
"""

from datetime import datetime

import numpy as np
import pytest
from fbpf_reference import fbpf_accumulate_gather_reference, random_rows
from hypothesis import given, settings, strategies as st
from kernel_build import LOADER, ROOT, build_compiled

from powersplit import _kernels
from powersplit._kernels import _pure
from powersplit.pipeline.config import RunConfig, default_bundle
from powersplit.pipeline.io import Trace
from powersplit.pipeline.synth import synth_generate
from powersplit.pipeline.train import train_hyperparams
from powersplit.rng import stream
from powersplit.smc import joint_state_table


@pytest.fixture(scope="module", params=["pure", "native"])
def backend(request):
    if request.param == "pure":
        return _pure
    return request.getfixturevalue("compiled_kernels")


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


def hsmm_instance(rng, T, J, dmax, p_inf=0.0):
    """Backward-pass inputs with a -inf diagonal plus a share of -inf
    off-diagonal transitions, duration tables dmax (dmax + 1) wide."""
    logtrans = np.log(rng.dirichlet(np.ones(J), size=J))
    logtrans[rng.random((J, J)) < p_inf] = -np.inf
    np.fill_diagonal(logtrans, -np.inf)
    d = rng.dirichlet(np.ones(dmax), size=J)
    logdur = np.log(d)
    tail = np.concatenate([np.ones((J, 1)), 1.0 - np.cumsum(d, axis=1)], axis=1)
    logtail = np.log(np.maximum(tail, 1e-300))
    loglik = rng.normal(size=(T, J))
    return logtrans, logdur, logtail, loglik


def test_backend_flag_is_exposed():
    assert _kernels.BACKEND in ("native", "pure")
    assert _pure.BACKEND == "pure"


def test_hsmm_backward_agrees_across_backends(compiled_kernels):
    rng = np.random.default_rng(1)
    # (T, J, dmax): window inside the horizon, dmax == T, dmax > T, dmax == 1,
    # a single state, a single observation
    for T, J, dmax in [(30, 3, 12), (10, 3, 10), (10, 4, 25), (20, 4, 1),
                       (15, 1, 6), (1, 2, 1), (1, 1, 3)]:
        for p_inf in (0.0, 0.4):
            args = hsmm_instance(rng, T, J, dmax, p_inf)
            if J == 1 and p_inf == 0.0:
                args[0][:] = 0.0  # the lone state may follow itself
            want = _pure.hsmm_backward(*args, dmax)
            got = compiled_kernels.hsmm_backward(*args, dmax)
            for a, b in zip(want, got):
                np.testing.assert_allclose(b, a, rtol=1e-12, atol=1e-12,
                                           err_msg=str((T, J, dmax, p_inf)))


def forward_instance(rng, T, J, dmax, p_inf=0.0):
    """Forward-draw inputs over the pure backward messages of an
    ``hsmm_instance``, with the window set to dmax."""
    logtrans, logdur, logtail, loglik = hsmm_instance(rng, T, J, dmax, p_inf)
    if J == 1:
        logtrans[:] = 0.0  # the lone state may follow itself
    B, Bstar = _pure.hsmm_backward(logtrans, logdur, logtail, loglik, dmax)
    cum = np.vstack([np.zeros((1, J)), np.cumsum(loglik, axis=0)])
    loginit = np.log(rng.dirichlet(np.ones(J)))
    return [loginit, logtrans, B, Bstar, logdur, logtail, cum, dmax]


def assert_same_walk(compiled_kernels, args, u):
    want = _pure.hsmm_forward_sample(*args, u)
    got = compiled_kernels.hsmm_forward_sample(*args, u)
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
    assert got[2:] == want[2:]
    assert got[0].dtype == got[1].dtype == np.int64
    return want


@pytest.fixture(scope="module")
def captured_forward_calls():
    """The arguments of every forward draw in a small fit shaped like the
    benchmark's: 300 minutes per series, L=8, dmax=200."""
    bundle = default_bundle()
    houses = [synth_generate(bundle, 300, stream(31, "capture-house", i)) for i in range(2)]
    traces = {f"house{i}": Trace(start=datetime(2020, 1, 1), devices=h.devices,
                                 values=np.maximum(h.values, 0.0), total=h.total,
                                 sessions=((0, 300),))
              for i, h in enumerate(houses)}
    calls = []
    shipped = _kernels.hsmm_forward_sample

    def capture(*args):
        calls.append(args)
        return shipped(*args)

    _kernels.hsmm_forward_sample = capture
    try:
        train_hyperparams(traces, RunConfig(weak_limit=8, sweeps=2, burn_in=1),
                          stream(31, "capture-fit"), dmax=200)
    finally:
        _kernels.hsmm_forward_sample = shipped
    return calls


def test_hsmm_forward_sample_agrees_on_captured_fit_inputs(compiled_kernels,
                                                           captured_forward_calls):
    assert len(captured_forward_calls) >= 16
    rng = np.random.default_rng(8)
    for *args, u in captured_forward_calls:
        assert args[3].shape[1] == 8 and args[7] == 200
        assert_same_walk(compiled_kernels, args, u)
        for _ in range(5):
            assert_same_walk(compiled_kernels, args, rng.random(len(u)))


def test_hsmm_forward_sample_agrees_on_edge_cases(compiled_kernels):
    rng = np.random.default_rng(9)
    censored = 0
    # (T, J, dmax): a single observation, a single state, dmax == 1, a window
    # inside the horizon, dmax == T and dmax > T
    for T, J, dmax in [(1, 3, 1), (1, 1, 4), (25, 1, 6), (30, 4, 1), (40, 3, 7),
                       (12, 3, 12), (10, 4, 30)]:
        for p_inf in (0.0, 0.5):
            args = forward_instance(rng, T, J, dmax, p_inf)
            for _ in range(30):
                censored += assert_same_walk(compiled_kernels, args, rng.random(2 * T))[3]
    assert censored > 0


def test_hsmm_forward_sample_rejects_a_row_of_zero_probability(compiled_kernels):
    args = forward_instance(np.random.default_rng(10), 6, 3, 3)
    args[0] = np.full(3, -np.inf)
    u = np.random.default_rng(11).random(12)
    for impl in (_pure, compiled_kernels):
        with pytest.raises(ValueError, match="zero probability"):
            impl.hsmm_forward_sample(*args, u)
    # mid-walk: a lone state that may not follow itself has nowhere to go
    args = forward_instance(np.random.default_rng(12), 8, 1, 2)
    args[1] = np.full((1, 1), -np.inf)
    for impl in (_pure, compiled_kernels):
        with pytest.raises(ValueError, match="zero probability"):
            impl.hsmm_forward_sample(*args, np.zeros(16))


def test_fbpf_accumulate_agrees_across_backends(compiled_kernels):
    rng = np.random.default_rng(2)
    for Js in [(3, 2, 3), (2, 3, 2, 3), (1,), (4, 1, 2)]:
        rows, theta, var = random_rows(rng, 50, Js)
        joint = joint_state_table(Js)
        out_p = _pure.fbpf_accumulate(rows, theta, var, joint, 250.0)
        out_n = compiled_kernels.fbpf_accumulate(rows, theta, var, joint, 250.0)
        for a, b in zip(out_p, out_n):
            assert np.array_equal(a, b)


@settings(max_examples=80, deadline=None)
@given(st.lists(st.integers(1, 4), min_size=1, max_size=5), st.integers(1, 12),
       st.floats(0.0, 0.5), st.integers(0, 10_000))
def test_fbpf_accumulate_outer_sum_matches_gather(backend, Js, N, p_inf, seed):
    rng = np.random.default_rng(seed)
    rows, theta, var = random_rows(rng, N, Js, p_inf)
    joint = joint_state_table(tuple(Js))
    ybar = float(rng.normal(300.0, 400.0))
    got = backend.fbpf_accumulate(rows, theta, var, joint, ybar)
    want = fbpf_accumulate_gather_reference(rows, theta, var, joint, ybar)
    for a, b in zip(got, want):
        assert np.array_equal(a, b)


def test_fbpf_accumulate_rejects_non_product_table(compiled_kernels):
    rng = np.random.default_rng(4)
    rows, theta, var = random_rows(rng, 5, (2, 3, 2))
    joint = joint_state_table((2, 3, 2))
    for impl in (_pure, compiled_kernels):
        for subset in (joint[:-1], joint[1:], joint[[0, 3, 11]], joint[::3]):
            with pytest.raises(ValueError, match="product"):
                impl.fbpf_accumulate(rows, theta, var, subset, 250.0)


def _hsmm_call(**change):
    args = dict(zip(("logtrans_bar", "logdur", "logtail", "loglik"),
                    hsmm_instance(np.random.default_rng(5), 12, 3, 4)), dmax=4)
    args.update(change)
    return "hsmm_backward", args


def _forward_call(**change):
    names = ("loginit", "logpibar", "B", "Bstar", "logdur", "logtail", "cum", "window")
    args = dict(zip(names, forward_instance(np.random.default_rng(13), 12, 3, 4)),
                u=np.full(24, 0.5))
    args.update(change)
    return "hsmm_forward_sample", args


def _fbpf_call(**change):
    rows, theta, var = random_rows(np.random.default_rng(6), 4, (2, 3))
    args = dict(logtrans_rows=rows, theta_rows=theta, var_chain=var,
                joint_idx=joint_state_table((2, 3)), ybar=10.0)
    args.update(change)
    return "fbpf_accumulate", args


BAD_INPUTS = {
    # case: (kernel and keyword arguments, the error must name this)
    "loglik_float32": (_hsmm_call(loglik=np.zeros((12, 3), np.float32)), "loglik"),
    "logdur_1d": (_hsmm_call(logdur=np.zeros(4)), "logdur"),
    "theta_rows_int": (_fbpf_call(theta_rows=np.zeros((4, 2, 3), np.int64)), "theta_rows"),
    "var_chain_2d": (_fbpf_call(var_chain=np.ones((2, 1))), "var_chain"),
    "joint_idx_float": (_fbpf_call(joint_idx=joint_state_table((2, 3)) * 1.0), "joint_idx"),
    "logtrans_bar_not_square": (_hsmm_call(logtrans_bar=np.zeros((3, 2))), "logtrans_bar"),
    "logtrans_bar_wrong_states": (_hsmm_call(logtrans_bar=np.zeros((4, 4))), "logtrans_bar"),
    "logdur_short": (_hsmm_call(logdur=np.zeros((3, 3))), "logdur"),
    "logtail_short": (_hsmm_call(logtail=np.zeros((3, 4))), "logtail"),
    "dmax_negative": (_hsmm_call(dmax=-1), "dmax"),
    "loginit_wrong_states": (_forward_call(loginit=np.zeros(4)), "loginit"),
    "logpibar_not_square": (_forward_call(logpibar=np.zeros((3, 2))), "logpibar"),
    "B_short": (_forward_call(B=np.zeros((12, 3))), "B"),
    "cum_wrong_states": (_forward_call(cum=np.zeros((13, 2))), "cum"),
    "forward_logtail_short": (_forward_call(logtail=np.zeros((3, 4))), "logtail"),
    "u_short": (_forward_call(u=np.full(23, 0.5)), "u"),
    "u_float32": (_forward_call(u=np.full(24, 0.5, np.float32)), "u"),
    "window_negative": (_forward_call(window=-1), "window"),
    "joint_idx_not_product": (_fbpf_call(joint_idx=joint_state_table((2, 3))[:-1]), "product"),
    "joint_idx_exceeds_rows": (_fbpf_call(joint_idx=joint_state_table((2, 4))), "joint_idx"),
}


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_compiled_kernels_reject_bad_input(compiled_kernels, case):
    (kernel, args), name = BAD_INPUTS[case]
    with pytest.raises(ValueError, match=name):
        getattr(compiled_kernels, kernel)(**args)


def test_compiled_kernels_copy_non_contiguous_input(compiled_kernels):
    _, args = _hsmm_call()
    strided = {k: np.asfortranarray(v) if isinstance(v, np.ndarray) else v
               for k, v in args.items()}
    assert not strided["loglik"].flags.c_contiguous
    for a, b in zip(compiled_kernels.hsmm_backward(**args),
                    compiled_kernels.hsmm_backward(**strided)):
        assert np.array_equal(a, b)
    _, args = _fbpf_call()
    wide = np.repeat(args["logtrans_rows"], 2, axis=2)[:, :, ::2]
    assert not wide.flags.c_contiguous
    for a, b in zip(compiled_kernels.fbpf_accumulate(**args),
                    compiled_kernels.fbpf_accumulate(**dict(args, logtrans_rows=wide))):
        assert np.array_equal(a, b)


def test_setup_py_builds_the_kernel_library(tmp_path):
    # the benchmark runs the same build_ext step in place and stops when it fails
    def listing():
        return [sorted(p.name for p in d.iterdir()) for d in (ROOT, LOADER.parent)]

    before = listing()
    compiled = build_compiled(tmp_path)
    assert compiled.BACKEND == "native"
    assert compiled.__file__.startswith(str(tmp_path))
    assert listing() == before


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 40), st.floats(0.0, 0.999), st.integers(0, 10_000))
def test_systematic_counts_match_oracle(n, u_frac, seed):
    rng = np.random.default_rng(seed)
    w = rng.dirichlet(np.ones(n) * 0.7)
    u0 = u_frac / n
    got = np.asarray(_kernels.systematic_counts(w, u0))
    assert got.sum() == n
    assert np.array_equal(got, offspring_oracle(w, u0))


def test_systematic_counts_are_within_one_of_expectation():
    # offspring of weight w differs from N*w by less than 1 for systematic
    # placement; this is the variance-reduction property worth guarding
    rng = np.random.default_rng(3)
    N = 500
    w = rng.dirichlet(np.ones(N))
    for u_frac in (0.0, 0.31, 0.77):
        counts = np.asarray(_kernels.systematic_counts(w, u_frac / N))
        assert np.all(np.abs(counts - N * w) < 1.0 + 1e-12)
