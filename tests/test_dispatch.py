"""Controlled-kernel identities, linearized response, gain recipe, and the
closed loop, checked against finite differences, eigensolves, and hand-built
measurement curves.
"""

import math
from collections import Counter

import numpy as np
import pytest
from dispatch_reference import mean_field_init, mean_field_step, product_model, transfer_function
from hypothesis import given, settings, strategies as st

from powersplit import dispatch
from powersplit.dispatch import (
    MeanFieldState,
    NominalLoadModel,
    PiController,
    TclConfig,
    bode_points,
    closed_loop_simulate,
    controlled_kernel,
    fit_pi_gains,
    fleet_counts_step,
    invariant_pmf,
    kernel_derivative,
    linearize,
    pi_step,
    sample_fleet,
    tcl_nominal_model,
    tilted_controllable,
)
from powersplit.pipeline.control import DEFAULT_FREQS
from powersplit.rng import stream


def tiny_model(offset=0.0):
    """Two-mode, two-internal-state product model, strictly positive rows."""
    R0 = np.array([
        [0.85, 0.15],
        [0.85, 0.15],
        [0.30, 0.70],
        [0.30, 0.70],
    ])
    Q0 = np.array([
        [0.9, 0.1],
        [0.4, 0.6],
        [0.9, 0.1],
        [0.4, 0.6],
    ])
    return product_model(R0, Q0, np.array([0.0, 4.0]) + offset)


def chain_model():
    """nu=2, nn=1: the controlled kernel is exactly the 2x2 row pair."""
    R0 = np.array([[0.9, 0.1], [0.2, 0.8]])
    return NominalLoadModel(R0=R0, Q0=np.ones((2, 1)), U=np.array([0.0, 4.0]),
                            xu_of=np.array([0, 1]), xn_of=np.array([0, 0]))


def eig_invariant(P):
    """Independent route: left unit eigenvector."""
    w, v = np.linalg.eig(P.T)
    i = int(np.argmin(np.abs(w - 1.0)))
    pi = np.real(v[:, i])
    return pi / pi.sum()


# ---------------------------------------------------------------------------
# kernel identities
# ---------------------------------------------------------------------------


def test_zero_tilt_recovers_nominal():
    model = tiny_model()
    assert np.array_equal(tilted_controllable(model, 0.0), model.R0)
    P0 = controlled_kernel(model, 0.0)
    want = model.R0[:, model.xu_of] * model.Q0[:, model.xn_of]
    assert np.array_equal(P0, want)
    assert np.abs(P0.sum(axis=1) - 1.0).max() < 1e-12


def test_offset_invariance_of_power_map():
    base = tiny_model()
    shifted = tiny_model(offset=2.0)
    # grid-friendly values: the tilt exponents shift by an exactly
    # representable constant, so the rows agree bitwise
    for zeta in (0.5, -1.0, 2.0):
        assert np.array_equal(tilted_controllable(base, zeta),
                              tilted_controllable(shifted, zeta))
    generic = tiny_model(offset=0.137)
    for zeta in (0.3, -0.9):
        d = np.abs(tilted_controllable(base, zeta)
                   - tilted_controllable(generic, zeta)).max()
        assert d < 1e-14


def test_large_tilt_saturates_high_power_mode():
    model = tiny_model()
    R = tilted_controllable(model, 50.0)
    assert np.abs(R[:, 1] - 1.0).max() < 1e-12


def test_kernel_derivative_matches_finite_differences():
    model = tiny_model()
    h = 1e-5
    for zeta in (0.0, 0.4, -0.8):
        E = kernel_derivative(model, zeta)
        fd = (controlled_kernel(model, zeta + h)
              - controlled_kernel(model, zeta - h)) / (2 * h)
        assert np.abs(E - fd).max() < 1e-7
        assert np.abs(E.sum(axis=1)).max() < 1e-13


def test_rows_stay_stochastic_under_tilt():
    model = tiny_model()
    for zeta in (-3.0, -0.5, 0.0, 0.5, 3.0):
        P = controlled_kernel(model, zeta)
        assert np.all(P >= 0)
        assert np.abs(P.sum(axis=1) - 1.0).max() < 1e-12


# ---------------------------------------------------------------------------
# invariant pmf
# ---------------------------------------------------------------------------


def test_invariant_pmf_matches_eigensolve():
    for zeta in (0.0, 0.7):
        P = controlled_kernel(tiny_model(), zeta)
        pi = invariant_pmf(P)
        assert np.abs(pi @ P - pi).max() < 1e-12
        assert np.abs(pi - eig_invariant(P)).max() < 1e-10


def test_invariant_pmf_rejects_bad_kernels():
    with pytest.raises(ValueError):
        invariant_pmf(np.eye(3))  # reducible
    with pytest.raises(ValueError):
        invariant_pmf(np.ones((2, 3)))


def random_kernels(n, seed):
    """Row-stochastic kernels on 1..12 states, sparse enough that many are
    reducible; every row has at least one positive entry."""
    rng = np.random.default_rng(seed)
    for _ in range(n):
        S = int(rng.integers(1, 13))
        mask = rng.random((S, S)) < rng.choice([0.1, 0.2, 0.4])
        mask[np.arange(S), rng.integers(0, S, S)] = True
        P = mask * (0.1 + rng.random((S, S)))
        yield P / P.sum(axis=1, keepdims=True)


def test_reachability_matches_csgraph_strong_components():
    # scipy.sparse is the reference here only; the library does not import it
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import connected_components

    seen = Counter()
    for P in random_kernels(300, 1301):
        ncomp, labels = connected_components(csr_matrix(P > 0), directed=True,
                                             connection="strong")
        R = dispatch._reachable(P)
        assert np.array_equal(R & R.T, labels[:, None] == labels[None, :])
        seen[ncomp == 1] += 1
        if ncomp == 1:
            assert np.abs(invariant_pmf(P) - eig_invariant(P)).max() < 1e-9
        else:
            with pytest.raises(ValueError, match="reducible"):
                invariant_pmf(P)
        # a class is closed when its rows keep all their mass inside it; the
        # largest one is kept, the one holding the lowest state on a tie
        classes = [np.flatnonzero(labels == c) for c in range(ncomp)]
        closed = [c for c in classes
                  if np.allclose(P[np.ix_(c, c)].sum(axis=1), 1.0, atol=1e-12)]
        size = max(len(c) for c in closed)
        want = min((c for c in closed if len(c) == size), key=lambda c: c[0])
        assert np.array_equal(dispatch._largest_closed_class(P), want)
    assert seen[True] > 30 and seen[False] > 30, seen


def test_tcl_nominal_model_keeps_pinned_states():
    model = tcl_nominal_model(TclConfig())
    assert model.xu_of.tolist() == [0] * 9 + [1] * 8
    assert model.xn_of.tolist() == list(range(2, 11)) + list(range(3, 11))


# ---------------------------------------------------------------------------
# mean-field recursion
# ---------------------------------------------------------------------------


def test_mean_field_step_is_left_multiplication():
    model = tiny_model()
    state = mean_field_init(model)
    nxt = mean_field_step(state, model, 0.3)
    want = state.mu @ controlled_kernel(model, 0.3)
    assert np.abs(nxt.mu - want / want.sum()).max() < 1e-14
    assert abs(nxt.y - nxt.mu @ model.power_of_state) < 1e-14


def test_mean_field_converges_to_invariant():
    model = tiny_model()
    state = MeanFieldState(mu=np.array([1.0, 0.0, 0.0, 0.0]), y=0.0)
    for _ in range(400):
        state = mean_field_step(state, model, 0.6)
    assert np.abs(state.mu - invariant_pmf(controlled_kernel(model, 0.6))).max() < 1e-12


# ---------------------------------------------------------------------------
# linear response
# ---------------------------------------------------------------------------


def lstsq_gain_reference(lin, z):
    """G(z) by a least-squares solve at one z, with no deflation: the route
    the batched solve replaced. At z = 1 the system is singular and the
    minimum-norm solution carries the DC gain."""
    S = lin.A.shape[0]
    Mz = z * np.eye(S) - lin.A
    w, *_ = np.linalg.lstsq(Mz, lin.B.astype(complex), rcond=None)
    resid = np.abs(Mz @ w - lin.B).max()
    if not np.isfinite(resid) or resid > 1e-8 * (1.0 + np.abs(lin.B).max()):
        raise ValueError(f"z = {z} is a pole of the linearized system")
    return complex(lin.C @ w)


def test_batched_gains_match_lstsq_reference():
    zs = np.append(np.exp(1j * DEFAULT_FREQS), 1.0)
    for model in (tiny_model(), chain_model(), tcl_nominal_model(TclConfig())):
        lin = linearize(model, 0.0)
        got = dispatch._gains(lin, zs)
        want = np.array([lstsq_gain_reference(lin, z) for z in zs])
        assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want))
    # dyadic entries make I - A exactly singular in floating point; z = 1 is
    # then regular only through the deflation
    A = np.array([[0.75, 0.25], [0.25, 0.75]])
    lin = dispatch.Linearization(A=A, B=np.array([-0.75, 0.75]), C=np.array([-2.0, 2.0]),
                                 pi=np.array([0.5, 0.5]))
    dc = lstsq_gain_reference(lin, 1.0)
    assert abs(dispatch._gains(lin, 1.0)[0] - dc) <= 1e-12 * abs(dc)


def test_dc_gain_matches_steady_state_sensitivity():
    for model in (tiny_model(), chain_model()):
        dc = transfer_function(model, 0.0, 1.0)
        assert abs(dc.imag) < 1e-12
        h = 1e-4
        def ybar(z):
            return float(invariant_pmf(controlled_kernel(model, z))
                         @ model.power_of_state)
        fd = (ybar(h) - ybar(-h)) / (2 * h)
        assert abs(dc.real - fd) < 0.01 * abs(fd)


def test_pole_raises():
    model = chain_model()
    # controlled kernel [[.9,.1],[.2,.8]] has subdominant eigenvalue 0.7
    with pytest.raises(ValueError, match="pole"):
        transfer_function(model, 0.0, 0.7)


def test_bode_points_shape_and_dc_limit():
    model = tiny_model()
    freqs = np.array([1e-6, 1e-3, 0.1, 1.0, math.pi])
    data = bode_points(model, 0.0, freqs)
    assert data.shape == (5, 3)
    assert np.array_equal(data[:, 0], freqs)
    dc_db = 20 * math.log10(abs(transfer_function(model, 0.0, 1.0)))
    assert abs(data[0, 1] - dc_db) < 1e-3
    assert np.all(np.abs(data[:, 2]) <= 180.0)


# ---------------------------------------------------------------------------
# gain recipe
# ---------------------------------------------------------------------------


def synthetic_bode(flat_db=14.0, n=61):
    """Flat band then a fall; the -45 degree crossing sits exactly at the
    geometric mean of grid points 20 and 21."""
    freqs = np.logspace(-3, 0, n)
    mags = np.where(freqs <= freqs[40], flat_db,
                    flat_db - 25.0 * (np.log10(freqs) - math.log10(freqs[40])))
    phases = np.zeros(n)
    ramp = np.linspace(0.0, -30.0, 21)
    phases[:21] = ramp
    phases[21:] = np.linspace(-60.0, -120.0, n - 21)
    return np.column_stack([freqs, mags, phases])


def test_fit_pi_gains_on_constructed_curve():
    data = synthetic_bode()
    kp, ki = fit_pi_gains(data)
    assert abs(kp - 0.7) < 1e-12
    wc = math.sqrt(data[20, 0] * data[21, 0])
    assert abs(ki - wc * 0.7 / 5.0) < 1e-12


def test_fit_pi_gains_error_paths():
    data = synthetic_bode()
    flat_phase = data.copy()
    flat_phase[:, 2] = 0.0
    with pytest.raises(ValueError, match="-45"):
        fit_pi_gains(flat_phase)
    bad_mag = data.copy()
    bad_mag[:, 1] = -np.inf
    with pytest.raises(ValueError, match="degenerate"):
        fit_pi_gains(bad_mag)


# ---------------------------------------------------------------------------
# thermostatic load
# ---------------------------------------------------------------------------


def test_tcl_model_structure():
    config = TclConfig()
    model = tcl_nominal_model(config)
    assert model.S > 0
    assert set(np.unique(model.power_of_state)) <= {0.0, config.power_on}
    temps = model.meta["temps"][model.xn_of]
    lo, hi = config.deadband
    # quality-of-service band: the closed class never escapes the margin
    assert temps.min() >= lo - config.grid_margin
    assert temps.max() <= hi + config.grid_margin
    # thermostat: forced ON above the band, forced OFF below it
    assert np.all(model.R0[temps > hi, 1] == 1.0)
    assert np.all(model.R0[temps < lo, 0] == 1.0)
    inside = (temps >= lo) & (temps <= hi)
    assert np.abs(model.R0[inside].max(axis=1) - (1 - config.epsilon)).max() < 1e-12


def test_tcl_baseline_power_is_moderate():
    model = tcl_nominal_model(TclConfig())
    pi0 = invariant_pmf(controlled_kernel(model, 0.0))
    ybar = float(pi0 @ model.power_of_state)
    assert 0.1 < ybar < 6.0


def test_tcl_config_validation():
    with pytest.raises(ValueError):
        TclConfig(deadband=(21.0, 19.0))
    with pytest.raises(ValueError):
        TclConfig(grid_step=0.5, grid_margin=0.5)


def test_product_model_and_closure_validation():
    with pytest.raises(ValueError):
        product_model(np.ones((3, 2)) / 2, np.ones((4, 2)) / 2, np.array([0.0, 1.0]))
    with pytest.raises(ValueError, match="closed"):
        NominalLoadModel(
            R0=np.full((2, 2), 0.5), Q0=np.array([[1.0, 0.0], [1.0, 0.0]]),
            U=np.array([0.0, 1.0]),
            xu_of=np.array([0, 1]), xn_of=np.array([0, 1]),
        )


# ---------------------------------------------------------------------------
# fleet paths
# ---------------------------------------------------------------------------


def test_fleet_counts_step_conserves_loads():
    model = tiny_model()
    rng = stream(0, "fleet")
    counts = sample_fleet(model, 500, rng)
    assert counts.sum() == 500
    P = controlled_kernel(model, 0.2)
    for _ in range(20):
        counts = fleet_counts_step(counts, P, rng)
        assert counts.sum() == 500


def test_counts_approach_mean_field_as_fleet_grows():
    model = tcl_nominal_model(TclConfig())
    P = controlled_kernel(model, 0.1)
    pi0 = invariant_pmf(controlled_kernel(model, 0.0))
    u = model.power_of_state
    T = 120

    def run_err(n_loads, seed):
        rng = stream(seed, "mf-consistency")
        counts = rng.multinomial(n_loads, pi0)
        mf = MeanFieldState(mu=pi0, y=float(pi0 @ u))
        errs = []
        for _ in range(T):
            counts = fleet_counts_step(counts, P, rng)
            mf = mean_field_step(mf, model, 0.1)
            errs.append(abs(counts @ u / n_loads - mf.y))
        return float(np.mean(errs))

    small = np.mean([run_err(200, s) for s in range(3)])
    large = np.mean([run_err(20_000, s) for s in range(3)])
    assert large < small
    assert 3.0 < small / large < 33.0


# ---------------------------------------------------------------------------
# feedback
# ---------------------------------------------------------------------------


def test_pi_step_accumulates():
    ctrl = PiController(kp=2.0, ki=0.5)
    z1, ctrl = pi_step(ctrl, 1.0)
    assert z1 == 2.0 + 0.5
    z2, ctrl = pi_step(ctrl, 2.0)
    assert z2 == 4.0 + 0.5 * 3.0
    assert ctrl.integ == 3.0


def test_closed_loop_zero_gains_leaves_fleet_nominal():
    model = tcl_nominal_model(TclConfig())
    ref = np.zeros(60)
    traces = closed_loop_simulate(400, model, ref, (0.0, 0.0), stream(1, "cl0"))
    assert set(traces) == {"y", "ybar", "ytilde", "e", "zeta"}
    assert all(len(v) == 60 for v in traces.values())
    assert np.all(traces["zeta"] == 0.0)
    assert np.abs(traces["ytilde"]).max() < 2.0


def test_closed_loop_zeta_follows_pi_law():
    model = tcl_nominal_model(TclConfig())
    rng = stream(2, "cl-pi")
    ref = 0.05 * np.sin(2 * np.pi * np.arange(120) / 60.0)
    kp, ki = 0.3, 0.01
    traces = closed_loop_simulate(500, model, ref, (kp, ki), rng)
    want = kp * traces["e"] + ki * np.cumsum(traces["e"])
    assert np.abs(traces["zeta"] - want).max() < 1e-12


def test_closed_loop_reruns_identically():
    model = tcl_nominal_model(TclConfig())
    ref = 0.05 * np.sin(2 * np.pi * np.arange(50) / 25.0)
    a = closed_loop_simulate(300, model, ref, (0.2, 0.01), stream(3, "cl-rep"))
    b = closed_loop_simulate(300, model, ref, (0.2, 0.01), stream(3, "cl-rep"))
    for k in a:
        assert np.array_equal(a[k], b[k])


def test_closed_loop_oracle_hook_runs_per_load():
    model = tcl_nominal_model(TclConfig())
    ref = 0.05 * np.sin(2 * np.pi * np.arange(40) / 20.0)

    def hook(t, states):
        return model.xu_of[states], np.full(len(states), model.U[1])

    traces = closed_loop_simulate(60, model, ref, (0.2, 0.005), stream(4, "cl-hook"),
                                  disagg_hook=hook)
    for v in traces.values():
        assert np.all(np.isfinite(v))
    kp, ki = 0.2, 0.005
    want = kp * traces["e"] + ki * np.cumsum(traces["e"])
    assert np.abs(traces["zeta"] - want).max() < 1e-12


# ---------------------------------------------------------------------------
# the per-load transition against its loop reference
# ---------------------------------------------------------------------------


def _per_load_step_reference(model: NominalLoadModel, states, xu_est, u_on_est,
                             zeta: float, rng: np.random.Generator,
                             fired: Counter | None = None) -> np.ndarray:
    """The original one-load-at-a-time loop; ``fired`` counts the two
    fallback branches."""
    n = len(states)
    new_states = np.empty(n, dtype=np.int64)
    lookup = {(int(model.xu_of[s]), int(model.xn_of[s])): s for s in range(model.S)}
    u = rng.random(n)
    v = rng.random(n)
    for i in range(n):
        s_true = int(states[i])
        s_ctrl = lookup.get((int(xu_est[i]), int(model.xn_of[s_true])), s_true)
        if fired is not None and (int(xu_est[i]), int(model.xn_of[s_true])) not in lookup:
            fired["ctrl"] += 1
        U_hat = np.array([0.0, float(u_on_est[i])])
        logr = np.where(model.R0[s_ctrl] > 0,
                        np.log(np.maximum(model.R0[s_ctrl], 1e-300)) + zeta * U_hat,
                        -np.inf)
        r = np.exp(logr - logr.max())
        r /= r.sum()
        xu_next = min(int(np.searchsorted(np.cumsum(r), u[i])), len(r) - 1)
        q = model.Q0[s_true]
        xn_next = min(int(np.searchsorted(np.cumsum(q), v[i], side="right")), len(q) - 1)
        key = (xu_next, xn_next)
        if key not in lookup:
            if fired is not None:
                fired["landing"] += 1
            xu_next = min(int(np.searchsorted(np.cumsum(model.R0[s_true]), u[i])),
                          len(r) - 1)
        new_states[i] = lookup[(xu_next, xn_next)]
    return new_states


def _both_steps(model, states, xu_est, u_on_est, zeta, seed, fired=None):
    """(vectorised, reference) next states from identically seeded streams;
    also checks both consumed the same number of draws."""
    rng_a, rng_b = stream(seed, "step"), stream(seed, "step")
    a = dispatch._per_load_step(dispatch._fleet_tables(model), states, xu_est,
                                u_on_est, zeta, rng_a)
    b = _per_load_step_reference(model, states, xu_est, u_on_est, zeta, rng_b, fired)
    assert rng_a.random() == rng_b.random()
    return a, b


_TCL = tcl_nominal_model(TclConfig())


def partial_model():
    """Three of the four (mode, internal) pairs retained, with mode-dependent
    rows: from (ON, 0) a load that believes it is OFF uses the (OFF, 0) row,
    which allows ON while the thermal move may reach internal state 1, so
    it can land on the missing pair (ON, 1)."""
    return NominalLoadModel(
        R0=np.array([[0.6, 0.4], [1.0, 0.0], [1.0, 0.0]]),
        Q0=np.array([[1.0, 0.0], [0.5, 0.5], [0.5, 0.5]]),
        U=np.array([0.0, 4.0]), xu_of=np.array([0, 1, 0]), xn_of=np.array([0, 0, 1]))


_MODELS = {"tcl": _TCL, "tiny": tiny_model(), "partial": partial_model()}


@settings(max_examples=80, deadline=None)
@given(data=st.data(), which=st.sampled_from(sorted(_MODELS)),
       zeta=st.floats(-5.0, 5.0), seed=st.integers(0, 2**31 - 1),
       flip_all=st.booleans())
def test_per_load_step_matches_loop_reference(data, which, zeta, seed, flip_all):
    model = _MODELS[which]
    n = data.draw(st.integers(1, 64))
    states = np.array(data.draw(st.lists(st.integers(0, model.S - 1),
                                         min_size=n, max_size=n)), dtype=np.int64)
    flips = np.ones(n, dtype=bool) if flip_all else np.array(
        data.draw(st.lists(st.booleans(), min_size=n, max_size=n)), dtype=bool)
    xu_est = np.where(flips, 1 - model.xu_of[states], model.xu_of[states])
    scale = np.array(data.draw(st.lists(st.floats(0.25, 4.0), min_size=n, max_size=n)))
    a, b = _both_steps(model, states, xu_est, model.U[1] * scale, zeta, seed)
    assert np.array_equal(a, b)


def test_per_load_step_fallbacks_fire_and_match_reference():
    """With every mode flipped, 1 of the default thermostat's 17 states
    looks up an unretained control pair; the thermostat's rows force modes
    by temperature alone, so only the partial model lands off the list.
    Both fallbacks must agree with the loop bit for bit."""
    n = 2000
    for which, want in [("tcl", {"ctrl"}), ("partial", {"ctrl", "landing"})]:
        model = _MODELS[which]
        rng = stream(7, "fallback", which)
        fired = Counter()
        for k, zeta in enumerate([-5.0, -0.7, 0.0, 0.7, 5.0]):
            states = rng.integers(model.S, size=n)
            u_on = model.U[1] * (1.0 + 0.3 * rng.standard_normal(n))
            a, b = _both_steps(model, states, 1 - model.xu_of[states], u_on, zeta,
                               100 + k, fired)
            assert np.array_equal(a, b)
        assert {k for k, c in fired.items() if c > 0} == want
        if which == "tcl":
            assert abs(fired["ctrl"] / (5 * n) - 1 / 17) < 0.01


def _perturbing_hook(model, seed):
    """20% of modes flipped, ON power off by 30% rms."""
    prng = np.random.default_rng(seed)

    def hook(t, states):
        modes = model.xu_of[states].copy()
        flip = prng.random(len(states)) < 0.2
        modes[flip] = 1 - modes[flip]
        return modes, model.U[1] * (1.0 + 0.3 * prng.standard_normal(len(states)))
    return hook


def test_closed_loop_per_load_traces_match_loop_reference(monkeypatch):
    model = _TCL
    ref = 0.6 * np.sin(2 * np.pi * np.arange(60) / 30.0)

    def run():
        return closed_loop_simulate(300, model, ref, (0.3, 0.01), stream(5, "cl-ref"),
                                    disagg_hook=_perturbing_hook(model, 11))

    fast = run()
    monkeypatch.setattr(
        dispatch, "_per_load_step",
        lambda tables, *args: _per_load_step_reference(model, *args))
    slow = run()
    for k in fast:
        assert fast[k].tobytes() == slow[k].tobytes(), k


@pytest.mark.parametrize("bad", [
    "short_modes", "long_powers", "mode_minus_one", "mode_too_large",
    "fractional_mode", "nan_power", "inf_power",
])
def test_closed_loop_rejects_bad_hook_output(bad):
    model = _TCL
    ref = np.zeros(6)

    def hook(t, states):
        modes = model.xu_of[states].copy()
        u_on = np.full(len(states), model.U[1])
        if t < 3:
            return modes, u_on
        if bad == "short_modes":
            modes = modes[:-1]
        elif bad == "long_powers":
            u_on = np.append(u_on, model.U[1])
        elif bad == "mode_minus_one":
            modes[0] = -1
        elif bad == "mode_too_large":
            modes[0] = 2
        elif bad == "fractional_mode":
            modes = modes + 0.5
        elif bad == "nan_power":
            u_on[1] = np.nan
        else:
            u_on[1] = np.inf
        return modes, u_on

    with pytest.raises(ValueError, match="step 3"):
        closed_loop_simulate(20, model, ref, (0.2, 0.01), stream(6, "bad-hook"),
                             disagg_hook=hook)


def test_per_load_fleet_matches_count_fleet_in_law():
    """Oracle hook with exact ON power: the per-load transition is exactly
    P_zeta, so from the same initial counts under the same zeta sequence the
    per-load and occupancy-count fleets have the same law (the mean-field
    limit of Meyn et al. 2015). Their seed-averaged fleet-mean powers must
    agree within a CLT band fixed beforehand."""
    model = _TCL
    n, reps, k_sigma = 2000, 8, 4.5
    u = model.power_of_state
    zetas = 1.5 * np.sin(2 * np.pi * np.arange(60) / 30.0)
    counts0 = sample_fleet(model, n, stream(8, "law-init"))
    states0 = np.repeat(np.arange(model.S), counts0)
    tables = dispatch._fleet_tables(model)

    y_load = np.zeros((reps, len(zetas)))
    y_count = np.zeros((reps, len(zetas)))
    for r in range(reps):
        rng_load, rng_count = stream(8, "law-load", r), stream(8, "law-count", r)
        states, counts = states0, counts0
        for t, zeta in enumerate(zetas):
            states = dispatch._per_load_step(tables, states, model.xu_of[states],
                                             np.full(n, model.U[1]), zeta, rng_load)
            counts = fleet_counts_step(counts, controlled_kernel(model, zeta), rng_count)
            y_load[r, t] = u[states].sum() / n
            y_count[r, t] = counts @ u / n

    # per-load power variance under the mean-field marginal bounds the fleet's
    mu = counts0 / n
    sigma = np.empty(len(zetas))
    for t, zeta in enumerate(zetas):
        mu = mu @ controlled_kernel(model, zeta)
        p_on = mu @ (model.xu_of == 1)
        sigma[t] = model.U[1] * math.sqrt(p_on * (1.0 - p_on))
    band = k_sigma * math.sqrt(2.0) * sigma / math.sqrt(n * reps)
    gap = np.abs(y_load.mean(axis=0) - y_count.mean(axis=0))
    assert np.all(gap < band), float((gap / band).max())
    # the band is narrow against the tilt-driven swing it has to follow
    assert np.ptp(y_count.mean(axis=0)) > 10 * band.max()
