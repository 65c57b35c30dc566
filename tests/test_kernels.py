"""Backend equivalence, input checks, the kernel build and resampling counts.

The brute-force offspring oracle places each systematic position by linear
search; the kernel must reproduce it exactly. The factorial accumulate,
which reads one aggregate reading per particle, is checked bit for bit
against a direct gather through the joint-state table, on both backends.
The filter step's passes, every ``fbpf_*`` name the package serves, must
equal their pure twins bit for bit, sign bits included, on arguments
captured from batched filter runs, the accumulate and total also on dead
rows and a NaN reading, and the advance also on edge rows. The compiled
forward segment draw must walk the same segments, and read the same number
of uniforms, as the pure one on inputs captured from a training fit and on
edge cases.

The compiled backward pass must equal a scalar reference in its own order
bit for bit, and ``kernels.c`` must compile cleanly under strict warnings
and define no function that ``_compiled.py`` does not declare.

The compiled kernels come from the ``compiled_kernels`` fixture: the tree's
own library when it is built, else one ``setup.py`` builds into a temporary
directory. When that build fails, the equivalence tests fail.
"""

import ast
import gc
import importlib.util
import re
import shlex
import shutil
import subprocess
import sysconfig
import warnings
from datetime import datetime
from pathlib import Path

import numpy as np
import pytest
from fbpf_reference import (
    fbpf_accumulate_gather_reference,
    joint_predictive_gather,
    random_rows,
)
from hsmm_reference import hsmm_backward_scalar_reference
from hypothesis import example, given, settings, strategies as st
from kernel_build import LOADER, ROOT, build_compiled

from powersplit import _kernels
from powersplit._kernels import _pure
from powersplit.pipeline.config import RunConfig, default_bundle
from powersplit.pipeline.io import Trace
from powersplit.pipeline.synth import synth_generate
from powersplit.pipeline.train import train_hyperparams
from powersplit import smc
from powersplit.distributions import NormalPrior
from powersplit.rng import stream
from powersplit.smc import ChainPrior, FactorialBpf, joint_state_table


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


def test_backends_export_the_same_kernels(compiled_kernels):
    # every compiled kernel has its pure twin, and the package serves each
    # from the backend it selected; systematic_counts is pure everywhere, and
    # the conjugate posterior is the pure advance's last stage, not a kernel
    def kernels(module):
        return {name for name, obj in vars(module).items()
                if callable(obj) and getattr(obj, "__module__", None) == module.__name__
                and not name.startswith("_")}

    served = set(_kernels.__all__) - {"BACKEND"}
    assert kernels(compiled_kernels) == served - {"systematic_counts"}
    assert kernels(_pure) == served | {"conjugate_posterior"}
    for name in served:
        assert getattr(_kernels, name).__module__.endswith(("._pure", "._compiled"))


def test_hsmm_backward_agrees_across_backends(compiled_kernels):
    # a tolerance, not equality: the pure pass exponentiates with NumPy's
    # SIMD exp, which is not libm's, and on 3 of 60 captured training calls
    # the two backends differ in the last bit (relative 2e-16 at most)
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


@pytest.mark.parametrize("T, J, dmax, scale", [
    (30, 3, 12, 1.0),    # window inside the horizon, spans not a multiple of 4
    (9, 3, 9, 1.0),      # window equal to the horizon
    (7, 4, 20, 1.0),     # window beyond the horizon
    (12, 3, 1, 1.0),     # one-step window
    (15, 1, 6, 1.0),     # a single state
    (40, 4, 25, 400.0),  # terms far below their max, which the sum skips
])
@pytest.mark.parametrize("p_inf", [0.0, 0.4])
def test_hsmm_backward_equals_scalar_reference(compiled_kernels, T, J, dmax, scale, p_inf):
    args = list(hsmm_instance(np.random.default_rng(T * J + dmax), T, J, dmax, p_inf))
    if J == 1:
        args[0][:] = 0.0  # the lone state may follow itself
    args[3] = args[3] * scale
    for got, want in zip(compiled_kernels.hsmm_backward(*args, dmax),
                         hsmm_backward_scalar_reference(*args, dmax)):
        assert np.array_equal(got, want)


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
                          stream(31, "capture-fit"))
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
    # particles stacked from several houses: each carries its own reading,
    # and some carry rows that are -inf in a chain or in every chain
    rng = np.random.default_rng(2)
    for Js in [(3, 2, 3), (2, 3, 2, 3), (1,), (4, 1, 2)]:
        rows, theta, var = random_rows(rng, 50, Js, p_inf=0.2)
        rows[:5] = -np.inf
        rows[5:10, 0] = -np.inf
        joint = joint_state_table(Js)
        ybar = np.repeat(rng.normal(250.0, 300.0, 5), 10)
        out_p = _pure.fbpf_accumulate(rows, theta, var, joint, ybar)
        out_n = compiled_kernels.fbpf_accumulate(rows, theta, var, joint, ybar)
        assert np.all(out_p[1][:10] == -np.inf) and np.isnan(out_p[0][:10]).all()
        for a, b in zip(out_p, out_n, strict=True):
            assert np.array_equal(a, b, equal_nan=True)


def test_fbpf_gather_reference_reads_one_reading_per_particle():
    # N == M = 6 as well, where reading the readings along the joint states
    # would broadcast without an error
    rng = np.random.default_rng(7)
    Js = (2, 3)
    joint = joint_state_table(Js)
    for N in (6, 9):
        rows, theta, var = random_rows(rng, N, Js)
        ybar = rng.normal(200.0, 100.0, N)
        logw = joint_predictive_gather(rows, theta, var, joint, ybar)
        sd = np.sqrt(var.sum())
        for n in range(N):
            for m, (a, b) in enumerate(joint):
                mean = theta[n, 0, a] + theta[n, 1, b]
                want = rows[n, 0, a] + rows[n, 1, b] - 0.5 * (
                    np.log(2.0 * np.pi) + 2.0 * np.log(sd) + ((ybar[n] - mean) / sd) ** 2)
                assert abs(logw[n, m] - want) < 1e-9 * (1.0 + abs(want))


@settings(max_examples=80, deadline=None)
@given(st.lists(st.integers(1, 4), min_size=1, max_size=5), st.integers(1, 12),
       st.floats(0.0, 0.5), st.integers(0, 10_000))
def test_fbpf_accumulate_outer_sum_matches_gather(backend, Js, N, p_inf, seed):
    rng = np.random.default_rng(seed)
    rows, theta, var = random_rows(rng, N, Js, p_inf)
    joint = joint_state_table(tuple(Js))
    ybar = rng.normal(300.0, 400.0, N)
    got = backend.fbpf_accumulate(rows, theta, var, joint, ybar)
    want = fbpf_accumulate_gather_reference(rows, theta, var, joint, ybar)
    for a, b in zip(got, want, strict=True):
        assert np.array_equal(a, b, equal_nan=True)


def test_fbpf_accumulate_rejects_non_product_table(compiled_kernels):
    rng = np.random.default_rng(4)
    rows, theta, var = random_rows(rng, 5, (2, 3, 2))
    joint = joint_state_table((2, 3, 2))
    for impl in (_pure, compiled_kernels):
        for subset in (joint[:-1], joint[1:], joint[[0, 3, 11]], joint[::3]):
            with pytest.raises(ValueError, match="product"):
                impl.fbpf_accumulate(rows, theta, var, subset, np.full(5, 250.0))


# ---------------------------------------------------------------------------
# the filter step's passes: compiled against pure, bit for bit
# ---------------------------------------------------------------------------

STEP_PASSES = tuple(name for name in _kernels.__all__ if name.startswith("fbpf_"))


def _copies(args):
    return [a.copy() if isinstance(a, np.ndarray) else a for a in args]


def captured_step_calls(monkeypatch, Js, H=3, N=40, steps=4):
    """(pass, arguments) of every step pass in a bank of H houses with
    chains of Js states, the first step (n == 0) included. The third
    reading sits far above every joint mean, so many predictive lanes drop
    below ``EXP_FLOOR``."""
    priors = [ChainPrior(np.full((J, J), 1.5) + 4.0 * np.eye(J),
                         tuple(NormalPrior(100.0 * j, 400.0) for j in range(J)), 30.0 + 10.0 * k)
              for k, J in enumerate(Js)]
    bank = FactorialBpf(priors, N, [stream(40 + h, "pass-capture") for h in range(H)])
    calls = []
    for name in STEP_PASSES:
        def spy(*args, _name=name, _shipped=getattr(smc, name)):
            calls.append((_name, _copies(args)))
            return _shipped(*args)

        monkeypatch.setattr(smc, name, spy)
    readings = stream(39, "pass-readings").normal(150.0, 80.0, (steps, H))
    readings[2] = 1e4
    for y in readings:
        bank.step(y)
    monkeypatch.undo()
    assert {name for name, _ in calls} == set(STEP_PASSES)
    return calls


def assert_pass_matches_pure(compiled_kernels, name, args):
    """The pass on both backends: equal outputs, and equal arguments after
    the call, as the total writes in place."""
    pure_args, native_args = _copies(args), _copies(args)
    want = getattr(_pure, name)(*pure_args)
    got = getattr(compiled_kernels, name)(*native_args)
    if not isinstance(want, tuple):
        want, got = (want,), (got,)
    assert len(got) == len(want)
    for a, b in zip(want, got):
        assert a.shape == b.shape and a.dtype == b.dtype, name
        assert np.array_equal(a, b, equal_nan=True), name
        assert np.array_equal(np.signbit(a), np.signbit(b)), name
    for a, b in zip(pure_args, native_args):
        if isinstance(a, np.ndarray):
            assert np.array_equal(a, b, equal_nan=True), name


# nine chains: S and the split's normals add in pairwise_sum's blocks of eight
@pytest.mark.parametrize("Js", [(2, 3, 2, 3), (2, 2, 3), (3,), (2,) * 8 + (3,)])
def test_filter_step_passes_match_pure_on_captured_steps(monkeypatch, compiled_kernels, Js):
    calls = captured_step_calls(monkeypatch, Js)
    dropped = 0
    for name, args in calls:
        assert_pass_matches_pure(compiled_kernels, name, args)
        if name == "fbpf_accumulate":
            dropped += int(np.isnan(_pure.fbpf_accumulate(*args)[0]).sum())
    assert dropped > 0  # lanes below EXP_FLOOR were exercised
    firsts = [args[10] for name, args in calls if name == "fbpf_advance"]
    assert firsts[0] is False and firsts[1] is True  # n == 0, then transitions


def test_shift_and_total_match_pure_on_dead_rows_and_nan(compiled_kernels):
    # the accumulate's row-max shift and the total after NumPy's exp, on
    # rows built through the accumulate's inputs: chains of 3 and 4 states
    rng = np.random.default_rng(14)
    Js, R = (3, 4), 30
    rows, theta, var = random_rows(rng, R, Js, p_inf=0.2)
    ybar = rng.normal(300.0, 200.0, R)
    rows[:4] = -np.inf            # a dead row in every sense
    rows[4:8, 1, ::2] = -np.inf   # some lanes vanish
    ybar[8] = np.nan              # NaN wins the max, as np.max has it
    theta[9, 0, 1] = np.nan       # in a third of the lanes
    ybar[10] = 1e5                # a finite row far below the rest
    rows[11], theta[11] = np.log(0.25), 50.0  # every lane ties at the max
    # lanes straddling EXP_FLOOR: a chain-1 lane 0, 234, 468 and 702 below
    # the best at each chain-0 state, the three chain-0 states alike
    var[:] = 0.5
    rows[12:16], ybar[12:16] = np.log(0.25), 0.0
    theta[12:16, 0] = 0.0
    theta[12:16, 1] = np.sqrt(2.0 * np.linspace(0.0, 702.0, 4))
    args = [rows, theta, var, joint_state_table(Js), ybar]
    assert_pass_matches_pure(compiled_kernels, "fbpf_accumulate", args)
    logw, row_max = _pure.fbpf_accumulate(*args)
    assert (row_max[:4] == -np.inf).all() and np.isnan(row_max[8:10]).all()
    assert np.isnan(logw[:4]).all() and np.isnan(logw[8:10]).all()
    assert row_max[10] < -1e6 and np.nanmax(logw[10]) == 0.0 and (logw[11] == 0.0).all()
    assert np.array_equal(np.isnan(logw[12:16]), np.tile([False] * 3 + [True], (4, 3)))
    pred = np.exp(logw)
    assert_pass_matches_pure(compiled_kernels, "fbpf_total", [pred])


def test_accumulate_scores_an_impossible_reading_without_warnings(compiled_kernels):
    # a reading whose squared residual overflows: every lane scores -inf,
    # silently, so the filter's own degenerate-weight error is all a user
    # sees; both backends agree to the bit
    rng = np.random.default_rng(17)
    Js = (2, 3)
    rows, theta, var = random_rows(rng, 6, Js)
    ybar = np.array([1e300, -1e300, 1e300, 250.0, 1e300, 0.0])
    args = [rows, theta, var, joint_state_table(Js), ybar]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        logw, row_max = _pure.fbpf_accumulate(*_copies(args))
    assert (row_max[[0, 1, 2, 4]] == -np.inf).all() and np.isnan(logw[[0, 1, 2, 4]]).all()
    assert np.isfinite(row_max[[3, 5]]).all()
    assert_pass_matches_pure(compiled_kernels, "fbpf_accumulate", args)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(1, 10), min_size=1, max_size=3), st.integers(1, 3),
       st.integers(1, 6), st.integers(0, 10_000))
@example([2, 9, 10], 2, 3, 0)
def test_posterior_and_dirichlet_match_pure(compiled_kernels, Js, H, N, seed):
    # the advance's conjugate posterior and Dirichlet posterior-mean rows
    # over H houses of N particles; chains of 8 states and more take numpy's
    # pairwise row sum
    rng = np.random.default_rng(seed)
    K, Jm, R, C = len(Js), max(Js), H * N, sum(Js)
    joint = joint_state_table(tuple(Js))
    M = len(joint)
    tc = rng.integers(0, 5, (R, K, Jm, Jm)).astype(float)
    ec = rng.integers(0, 9, (R, K, Jm)).astype(float)
    es = ec * rng.normal(50.0, 20.0, (R, K, Jm))
    pred = rng.uniform(0.0, 1.0, (R, M))
    alpha = rng.uniform(0.1, 3.0, (K, Jm, Jm))
    args = [pred, pred.sum(axis=1), rng.integers(0, R, R), rng.random(R), joint,
            rng.normal(50.0, 20.0, (R, K, Jm)), rng.uniform(1.0, 30.0, K),
            rng.normal(200.0, 80.0, R), rng.standard_normal((R, K)),
            joint[rng.integers(0, M, R)].astype(np.int64), True, tc, es, ec,
            rng.standard_normal((R, C)), rng.normal(0.0, 100.0, (K, Jm)),
            rng.uniform(0.5, 900.0, (K, Jm)), alpha, tuple(Js)]
    assert_pass_matches_pure(compiled_kernels, "fbpf_advance", args)
    new_states, *_, tc_out, _, _, _, rows = _pure.fbpf_advance(*args)
    # the row out of each chain's new state, alpha + n over its own sum, bit
    # for bit
    assert rows.shape == (R, K, Jm)
    for k, J in enumerate(Js):
        x = new_states[:, k]
        post = np.ascontiguousarray(alpha[k, x, :J] + tc_out[np.arange(R), k, x, :J])
        assert np.array_equal(rows[:, k, :J], post / post.sum(axis=1, keepdims=True))
        assert (rows[:, k, J:] == 1.0).all()  # padding whose log is 0


def test_advance_matches_pure_on_edge_rows(compiled_kernels):
    rng = np.random.default_rng(15)
    # nine chains take pairwise_sum's blocks of eight
    for Js in [(2, 3), (2,) * 8 + (3,)]:
        joint = joint_state_table(Js)
        R, M, K, Jm = 12, len(joint), len(Js), max(Js)
        pred = rng.uniform(0.0, 1.0, (R, M))
        pred[0] = 0.0
        pred[0, 3] = 1.0             # a one-lane row
        pred[1, :] = 1e-300          # tiny lanes, normalised by a tiny total
        tot = pred.sum(axis=1)
        anc = np.array([0, 0, 1, 2, 3, 3, 3, 7, 8, 9, 11, 11])
        u = rng.random(R)
        u[:2] = [0.0, 1.0 - 1e-16]   # the picks at both ends of a row
        theta = rng.normal(100.0, 30.0, (R, K, Jm))
        var = rng.uniform(10.0, 50.0, K)
        ybar = rng.normal(250.0, 100.0, R)
        z = rng.standard_normal((R, K))
        # signed zeros: the means of ancestor 7 sum to +0.0, the reading is
        # -0.0 and the normals are -0.0, so only the sum's +0.0 start keeps
        # the residual at -0.0
        theta[7, 0], theta[7, 1:] = 0.0, -0.0
        ybar[7], z[7] = -0.0, -0.0
        states = joint[rng.integers(0, M, R)].astype(np.int64)
        stats = [rng.integers(0, 4, (R, K, Jm, Jm)).astype(float), rng.normal(0, 9, (R, K, Jm)),
                 rng.integers(0, 4, (R, K, Jm)).astype(float), rng.standard_normal((R, sum(Js))),
                 rng.normal(0.0, 50.0, (K, Jm)), rng.uniform(1.0, 400.0, (K, Jm)),
                 rng.uniform(0.5, 2.0, (K, Jm, Jm)), Js]
        args = [pred, tot, anc, u, joint, theta, var, ybar, z, states]
        for transitions in (False, True):
            assert_pass_matches_pure(compiled_kernels, "fbpf_advance",
                                     [*args, transitions, *stats])
        emis = _pure.fbpf_advance(*args, True, *stats)[1]
        assert np.signbit(emis[7, 1:]).all() and not np.signbit(emis[7, 0])


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


def _pass_call(kernel, **change):
    """A small call of one filter step pass, from two houses of three
    particles with chains of 2 and 3 states."""
    rng = np.random.default_rng(16)
    Js, H, N = (2, 3), 2, 3
    joint = joint_state_table(Js)
    R, M, K, Jm = H * N, len(joint), len(Js), max(Js)
    states = joint[[0, 5, 3, 1, 2, 4]].astype(np.int64)
    stats = dict(trans_counts=rng.integers(0, 3, (R, K, Jm, Jm)).astype(float),
                 emis_sums=rng.normal(0.0, 9.0, (R, K, Jm)),
                 emis_counts=rng.integers(0, 3, (R, K, Jm)).astype(float),
                 zt=rng.standard_normal((R, sum(Js))), prior_mean=np.zeros((K, Jm)),
                 prior_var=np.ones((K, Jm)), alpha=np.ones((K, Jm, Jm)), Js=Js)
    pred = rng.uniform(0.1, 1.0, (R, M))
    args = {
        "fbpf_accumulate": dict(logtrans_rows=np.log(rng.uniform(0.1, 1.0, (R, K, Jm))),
                                theta_rows=rng.normal(0.0, 5.0, (R, K, Jm)),
                                var_chain=np.array([4.0, 9.0]), joint_idx=joint,
                                ybar=rng.normal(0.0, 5.0, R)),
        "fbpf_total": dict(pred=np.where(rng.random((R, M)) < 0.8, pred, np.nan)),
        "fbpf_advance": dict(pred=pred, tot=pred.sum(axis=1), anc=np.array([0, 0, 2, 3, 5, 5]),
                             u=rng.random(R), joint_idx=joint,
                             theta=rng.normal(0.0, 5.0, (R, K, Jm)),
                             var_chain=np.array([4.0, 9.0]), ybar=rng.normal(0.0, 5.0, R),
                             z=rng.standard_normal((R, K)), states=states, transitions=True,
                             **stats),
    }[kernel]
    args.update(change)
    return kernel, args


BAD_INPUTS = {
    # case: (kernel and keyword arguments, the error must name this)
    "loglik_float32": (_hsmm_call(loglik=np.zeros((12, 3), np.float32)), "loglik"),
    "logdur_1d": (_hsmm_call(logdur=np.zeros(4)), "logdur"),
    "theta_rows_int": (_pass_call("fbpf_accumulate", theta_rows=np.zeros((6, 2, 3), np.int64)),
                       "theta_rows"),
    "var_chain_2d": (_pass_call("fbpf_accumulate", var_chain=np.ones((2, 1))), "var_chain"),
    "joint_idx_float": (_pass_call("fbpf_accumulate", joint_idx=joint_state_table((2, 3)) * 1.0),
                        "joint_idx"),
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
    "joint_idx_not_product": (_pass_call("fbpf_accumulate",
                                         joint_idx=joint_state_table((2, 3))[:-1]), "product"),
    "joint_idx_exceeds_rows": (_pass_call("fbpf_accumulate",
                                          joint_idx=joint_state_table((2, 4))), "joint_idx"),
    "ybar_scalar": (_pass_call("fbpf_accumulate", ybar=10.0), "ybar"),
    "ybar_float32": (_pass_call("fbpf_accumulate", ybar=np.full(6, 10.0, np.float32)), "ybar"),
    "ybar_one_per_house": (_pass_call("fbpf_accumulate", ybar=np.full(2, 10.0)), "ybar"),
    "ybar_2d": (_pass_call("fbpf_accumulate", ybar=np.full((6, 1), 10.0)), "ybar"),
    "total_pred_strided": (_pass_call("fbpf_total", pred=np.zeros((6, 12))[:, ::2]), "pred"),
    "total_pred_read_only": (_pass_call("fbpf_total", pred=np.broadcast_to(0.0, (6, 6))),
                             "pred"),
    # fbpf_advance: the propagate_ cases give the draw bad input, the fold_
    # cases the statistics fold
    "propagate_anc_past_rows": (_pass_call("fbpf_advance", anc=np.array([0, 1, 2, 3, 4, 6])),
                                "anc"),
    "propagate_anc_negative": (_pass_call("fbpf_advance", anc=np.array([0, -1, 2, 3, 4, 5])),
                               "anc"),
    "propagate_anc_int32": (_pass_call("fbpf_advance", anc=np.arange(6, dtype=np.int32)),
                            "anc"),
    "propagate_short_u": (_pass_call("fbpf_advance", u=np.full(5, 0.5)), "u"),
    "propagate_joint_idx_wrong_rows": (_pass_call("fbpf_advance",
                                                  joint_idx=joint_state_table((2, 2))),
                                       "joint_idx"),
    "fold_anc_past_rows": (_pass_call("fbpf_advance", anc=np.array([0, 1, 2, 3, 4, 9])), "anc"),
    "fold_state_past_lanes": (_pass_call("fbpf_advance", states=np.full((6, 2), 3)), "states"),
    "fold_old_state_negative": (_pass_call("fbpf_advance", states=np.full((6, 2), -1)),
                                "states"),
    "advance_pred_float32": (_pass_call("fbpf_advance", pred=np.ones((6, 6), np.float32)),
                             "pred"),
    "advance_pred_no_columns": (_pass_call("fbpf_advance", pred=np.ones((6, 0))), "pred"),
    "advance_pred_wrong_rows": (_pass_call("fbpf_advance", pred=np.ones((5, 6))), "pred"),
    "advance_tot_wrong_shape": (_pass_call("fbpf_advance", tot=np.ones(5)), "tot"),
    "advance_joint_idx_float": (_pass_call("fbpf_advance",
                                           joint_idx=joint_state_table((2, 3)) * 1.0),
                                "joint_idx"),
    "advance_joint_idx_past_lanes": (_pass_call("fbpf_advance",
                                                joint_idx=np.where(joint_state_table((2, 3)) == 2,
                                                                   3, joint_state_table((2, 3)))),
                                     "joint_idx"),
    "advance_joint_idx_negative": (_pass_call("fbpf_advance",
                                              joint_idx=joint_state_table((2, 3)) - 1),
                                   "joint_idx"),
    "advance_theta_wrong_shape": (_pass_call("fbpf_advance", theta=np.zeros((6, 2, 2))),
                                  "theta"),
    "advance_var_chain_wrong_shape": (_pass_call("fbpf_advance", var_chain=np.ones(3)),
                                      "var_chain"),
    "advance_ybar_wrong_shape": (_pass_call("fbpf_advance", ybar=np.zeros(5)), "ybar"),
    "advance_z_wrong_shape": (_pass_call("fbpf_advance", z=np.zeros((6, 3))), "z"),
    "advance_states_wrong_shape": (_pass_call("fbpf_advance", states=np.zeros((5, 2), np.int64)),
                                   "states"),
    "advance_states_int32": (_pass_call("fbpf_advance", states=np.zeros((6, 2), np.int32)),
                             "states"),
    "advance_trans_counts_wrong_shape": (_pass_call("fbpf_advance",
                                                    trans_counts=np.zeros((6, 2, 3, 2))),
                                         "trans_counts"),
    "advance_emis_sums_no_chains": (_pass_call("fbpf_advance", emis_sums=np.zeros((6, 0, 3))),
                                    "emis_sums"),
    "advance_emis_counts_wrong_shape": (_pass_call("fbpf_advance",
                                                   emis_counts=np.zeros((6, 2, 2))),
                                        "emis_counts"),
    # the advance's posterior stage
    "posterior_Js_past_lanes": (_pass_call("fbpf_advance", Js=(2, 4)), "Js"),
    "posterior_Js_one_chain": (_pass_call("fbpf_advance", Js=(3,)), "Js"),
    "posterior_alpha_wrong_shape": (_pass_call("fbpf_advance", alpha=np.ones((2, 3, 2))),
                                    "alpha"),
    "posterior_zt_wrong_shape": (_pass_call("fbpf_advance", zt=np.zeros((6, 2, 2))), "zt"),
    "posterior_zt_padding_lanes": (_pass_call("fbpf_advance", zt=np.zeros((6, 6))), "zt"),
    "posterior_prior_mean_wrong_shape": (_pass_call("fbpf_advance",
                                                    prior_mean=np.zeros((3, 3))), "prior_mean"),
    "posterior_prior_var_float32": (_pass_call("fbpf_advance",
                                               prior_var=np.ones((2, 3), np.float32)),
                                    "prior_var"),
    # the advance's Dirichlet rows: alpha gives their concentrations
    "dirichlet_alpha_wrong_width": (_pass_call("fbpf_advance", alpha=np.ones((2, 3, 4))),
                                    "alpha"),
    "dirichlet_alpha_2d": (_pass_call("fbpf_advance", alpha=np.ones((2, 9))), "alpha"),
    "dirichlet_alpha_float32": (_pass_call("fbpf_advance",
                                           alpha=np.ones((2, 3, 3), np.float32)), "alpha"),
    "dirichlet_Js_empty": (_pass_call("fbpf_advance", Js=()), "Js"),
    "dirichlet_Js_empty_chain": (_pass_call("fbpf_advance", Js=(3, 0)), "Js"),
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
    _, args = _pass_call("fbpf_accumulate")
    wide = np.repeat(args["logtrans_rows"], 2, axis=2)[:, :, ::2]
    assert not wide.flags.c_contiguous
    for a, b in zip(compiled_kernels.fbpf_accumulate(**args),
                    compiled_kernels.fbpf_accumulate(**dict(args, logtrans_rows=wide))):
        assert np.array_equal(a, b, equal_nan=True)


def test_compiled_kernels_leave_no_cyclic_garbage(compiled_kernels):
    """A filter step calls each of its passes once; garbage
    that only the cyclic collector frees would pile up over a long stream
    with it switched off."""
    calls = [_hsmm_call(), _forward_call()] + [_pass_call(kernel) for kernel in STEP_PASSES]
    for kernel, args in calls:
        getattr(compiled_kernels, kernel)(**args)
    gc.collect()
    gc.disable()
    try:
        for kernel, args in calls * 5:
            getattr(compiled_kernels, kernel)(**args)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_compiled_loader_refuses_a_library_built_from_other_source(compiled_kernels,
                                                                   tmp_path):
    """The loader checks the library against the ``kernels.c`` next to it: a
    stale one may take other arguments than the wrappers pass, so it must
    not load, and the package falls back to the pure kernels."""
    built = Path(compiled_kernels.__file__).parent
    lib = next(built.glob("_libkernels*"))
    source = (LOADER.parent / "kernels.c").read_bytes()
    for name, text in (("same", source), ("edited", source + b"/* edited */\n")):
        where = tmp_path / name
        where.mkdir()
        shutil.copy(lib, where)
        shutil.copy(LOADER, where)
        (where / "kernels.c").write_bytes(text)
        spec = importlib.util.spec_from_file_location(f"loader_{name}", where / LOADER.name)
        loader = importlib.util.module_from_spec(spec)
        if name == "same":
            spec.loader.exec_module(loader)
            assert loader.BACKEND == "native"
        else:
            with pytest.raises(ImportError, match="kernels.c"):
                spec.loader.exec_module(loader)


def test_kernels_c_defines_exactly_the_declared_kernels(compiled_kernels):
    """Every function ``kernels.c`` exports is one ``_compiled.py`` declares,
    and the reverse, save the build digest that the loader looks up: a
    deleted pass leaves no dead C function or stale ctypes declaration. The
    two backends share the accumulate's floor."""
    source = re.sub(r"/\*.*?\*/", "", (LOADER.parent / "kernels.c").read_text(), flags=re.S)
    defined = {name for head, name in re.findall(r"^(\w[\w \t\*]*?)\b(\w+)\([^;{]*\)\s*\{",
                                                 source, flags=re.M)
               if not re.match(r"static\b", head)}
    declared = set(re.findall(r"\b_lib\.(\w+)\.(?:restype|argtypes)\b", LOADER.read_text()))
    assert defined == declared | {"kernels_digest"}
    assert "hsmm_backward" in defined and "logsumexp" not in defined
    assert compiled_kernels.EXP_FLOOR == _pure.EXP_FLOOR


def test_setup_py_builds_the_kernel_library(tmp_path):
    # the benchmark runs the same build_ext step in place and stops when it fails
    def listing():
        return [sorted(p.name for p in d.iterdir()) for d in (ROOT, LOADER.parent)]

    before = listing()
    compiled = build_compiled(tmp_path)
    assert compiled.BACKEND == "native"
    assert compiled.__file__.startswith(str(tmp_path))
    assert listing() == before


def test_kernels_c_compiles_cleanly_under_strict_warnings(tmp_path):
    # setup.py's build flags plus strict C99 warnings, each one an error; a
    # failed compile fails here, as a failed build fails the benchmark
    setup = ast.parse((ROOT / "setup.py").read_text(encoding="utf-8"))
    flags = next(ast.literal_eval(kw.value) for node in ast.walk(setup)
                 if isinstance(node, ast.Call) for kw in node.keywords
                 if kw.arg == "extra_compile_args")
    cmd = [*shlex.split(sysconfig.get_config_var("CC") or "cc"),
           *shlex.split(sysconfig.get_config_var("CFLAGS") or ""),
           "-std=c99", "-Wall", "-Wextra", "-pedantic", "-Werror", *flags, "-fPIC",
           "-c", str(LOADER.parent / "kernels.c"), "-o", str(tmp_path / "kernels.o")]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
                          timeout=300, check=False)
    assert proc.returncode == 0, f"{shlex.join(cmd)}\n{proc.stdout}"


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
