"""Demand-dispatch control layer.

A fleet of small loads is steered by broadcasting one scalar signal zeta.
Each load runs a local randomized controller: its controllable transition
kernel is the nominal one exponentially tilted toward high (zeta > 0) or low
(zeta < 0) power, while the uncontrollable part (internal temperature) keeps
its physical dynamics. The aggregator closes the loop with a PI rule on the
deviation of fleet power from its nominal baseline, a mean-field twin of the
fleet at zeta = 0; the PI gains are read off the bode data of the mean-field
dynamics linearized at zeta = 0.

States factor as x = (x_u, x_n): controllable mode times internal state.
Power and error signals at the aggregator level are per load (fleet mean),
so fitted gains do not depend on fleet size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .distributions import assert_simplex, assert_simplex_rows


# ---------------------------------------------------------------------------
# the nominal model and its tilted kernels
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NominalLoadModel:
    """Product-form load model over an explicit retained state list.

    Row x factorizes as P0(x, x') = R0(x, x'_u) * Q0(x, x'_n); the retained
    list (xu_of, xn_of) must be closed under that product support, which the
    constructor checks by row mass.
    """

    R0: np.ndarray      # (S, nu) controllable kernel rows
    Q0: np.ndarray      # (S, nn) uncontrollable kernel rows
    U: np.ndarray       # (nu,) power per controllable mode
    xu_of: np.ndarray   # (S,) controllable mode of each retained state
    xn_of: np.ndarray   # (S,) internal index of each retained state
    meta: dict | None = None

    def __post_init__(self):
        R0 = np.asarray(self.R0, dtype=float)
        Q0 = np.asarray(self.Q0, dtype=float)
        U = np.asarray(self.U, dtype=float)
        xu = np.asarray(self.xu_of, dtype=np.int64)
        xn = np.asarray(self.xn_of, dtype=np.int64)
        S = R0.shape[0]
        if Q0.shape[0] != S or xu.shape != (S,) or xn.shape != (S,):
            raise ValueError("inconsistent state list")
        if len(U) != R0.shape[1]:
            raise ValueError("one power value per controllable mode")
        assert_simplex_rows(R0)
        assert_simplex_rows(Q0)
        P = R0[:, xu] * Q0[:, xn]
        if not np.allclose(P.sum(axis=1), 1.0, atol=1e-9):
            raise ValueError("retained state list is not closed under P0")
        object.__setattr__(self, "R0", R0)
        object.__setattr__(self, "Q0", Q0)
        object.__setattr__(self, "U", U)
        object.__setattr__(self, "xu_of", xu)
        object.__setattr__(self, "xn_of", xn)

    @property
    def S(self) -> int:
        return self.R0.shape[0]

    @property
    def power_of_state(self) -> np.ndarray:
        """(S,) power when sitting in each retained state."""
        return self.U[self.xu_of]


def tilted_controllable(model: NominalLoadModel, zeta: float) -> np.ndarray:
    """R_zeta rows: R0 * exp(zeta * U - Lambda), normalized by log-sum-exp
    per row. Adding a constant to U cancels in Lambda exactly."""
    with np.errstate(divide="ignore"):
        logR = np.log(model.R0)
    tilted = logR + zeta * model.U[None, :]
    mx = tilted.max(axis=1, keepdims=True)
    w = np.exp(tilted - mx)
    return w / w.sum(axis=1, keepdims=True)


def controlled_kernel(model: NominalLoadModel, zeta: float) -> np.ndarray:
    """P_zeta over the retained states."""
    R = tilted_controllable(model, zeta)
    return R[:, model.xu_of] * model.Q0[:, model.xn_of]


def kernel_derivative(model: NominalLoadModel, zeta: float) -> np.ndarray:
    """d/dzeta of P_zeta in closed form:
    E(x, x') = P_zeta(x, x') * (U(x'_u) - sum_u R_zeta(x, u) U(u)).
    Rows sum to zero exactly up to roundoff."""
    R = tilted_controllable(model, zeta)
    P = R[:, model.xu_of] * model.Q0[:, model.xn_of]
    mean_u = R @ model.U
    return P * (model.U[model.xu_of][None, :] - mean_u[:, None])


def _reachable(P: np.ndarray) -> np.ndarray:
    """R[i, j] is True iff state j can be reached from state i in zero or
    more steps over the positive entries of P. Squares (P > 0) | I until it
    stops changing: about log2(S) boolean products."""
    R = (P > 0) | np.eye(len(P), dtype=bool)
    while True:
        R2 = R @ R
        if np.array_equal(R2, R):
            return R
        R = R2


def _largest_closed_class(P: np.ndarray) -> np.ndarray:
    """Sorted states of the largest closed communicating class of P; among
    closed classes of equal size, the one holding the lowest state index."""
    R = _reachable(P)
    cls = R & R.T  # cls[i] is the communicating class of state i
    closed = (R == cls).all(axis=1)  # nothing outside its class is reachable
    return np.flatnonzero(cls[np.argmax(np.where(closed, cls.sum(axis=1), 0))])


def invariant_pmf(P: np.ndarray) -> np.ndarray:
    """Stationary pmf by dense solve of pi (P - I) = 0 with sum pi = 1.

    Requires a single communicating class over the positive entries;
    reducible kernels raise.
    """
    P = np.asarray(P, dtype=float)
    S = P.shape[0]
    if P.shape != (S, S):
        raise ValueError("P must be square")
    if not _reachable(P).all():
        raise ValueError("kernel is reducible; no unique invariant pmf")
    # replace one balance equation with the normalization constraint
    A = P.T - np.eye(S)
    A[-1, :] = 1.0
    b = np.zeros(S)
    b[-1] = 1.0
    pi = np.linalg.solve(A, b)
    pi = np.maximum(pi, 0.0)
    pi = pi / pi.sum()
    resid = np.abs(pi @ P - pi).max()
    if resid > 1e-12:
        raise ValueError(f"invariant solve residual {resid:.2e}")
    return pi


# ---------------------------------------------------------------------------
# mean-field state and the linearization
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MeanFieldState:
    """A fleet's state pmf ``mu`` and its mean power ``y``."""

    mu: np.ndarray
    y: float

    def __post_init__(self):
        object.__setattr__(self, "mu", assert_simplex(np.asarray(self.mu, dtype=float)))


@dataclass(frozen=True)
class Linearization:
    """G(z) = C (I z - A)^{-1} B around a fixed zeta."""

    A: np.ndarray  # P_zeta transposed
    B: np.ndarray  # E_zeta^T pi_zeta
    C: np.ndarray  # centered power map
    pi: np.ndarray  # invariant pmf of P_zeta, the unit eigenvector of A


def linearize(model: NominalLoadModel, zeta: float) -> Linearization:
    P = controlled_kernel(model, zeta)
    pi = invariant_pmf(P)
    E = kernel_derivative(model, zeta)
    u = model.power_of_state
    return Linearization(A=P.T, B=E.T @ pi, C=u - float(pi @ u), pi=pi)


def _gains(lin: Linearization, zs) -> np.ndarray:
    """Complex gains G(z) at every z in ``zs``, from one batched solve.

    A - pi 1^T moves the unit eigenvalue of A to 0 and keeps the others.
    Every gain is unchanged, because 1^T B = 0 (rows of E sum to zero) and
    C pi = 0 (C is centered), so z = 1 is a regular point and the DC gain is
    finite. Genuine poles raise, checked by each z's solve residual.
    """
    zs = np.atleast_1d(np.asarray(zs, dtype=complex))
    S = lin.A.shape[0]
    Mz = zs[:, None, None] * np.eye(S) - (lin.A - np.outer(lin.pi, np.ones(S)))
    B = np.broadcast_to(lin.B.astype(complex)[:, None], (len(zs), S, 1))
    try:
        w = np.linalg.solve(Mz, B)
    except np.linalg.LinAlgError:
        raise ValueError("a requested z is a pole of the linearized system") from None
    resid = np.abs(Mz @ w - B).max(axis=(1, 2))
    bad = ~(resid <= 1e-8 * (1.0 + np.abs(lin.B).max()))
    if bad.any():
        raise ValueError(f"z = {zs[bad][0]} is a pole of the linearized system")
    return w[:, :, 0] @ lin.C


def bode_points(model: NominalLoadModel, zeta: float, freqs) -> np.ndarray:
    """(F, 3) array of (rad/sample, magnitude dB, phase deg) on z = e^{iw}.

    A constant power map has zero gain everywhere; magnitude is reported as
    -inf dB in that case.
    """
    freqs = np.asarray(freqs, dtype=float)
    g = _gains(linearize(model, zeta), np.exp(1j * freqs))
    with np.errstate(divide="ignore"):
        mag_db = 20.0 * np.log10(np.abs(g))
    return np.column_stack([freqs, mag_db, np.degrees(np.angle(g))])


# ---------------------------------------------------------------------------
# PI feedback
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PiController:
    kp: float
    ki: float
    integ: float = 0.0


def pi_step(ctrl: PiController, e: float) -> tuple[float, PiController]:
    """zeta_t = K_P e_t + K_I * (running sum including e_t)."""
    integ = ctrl.integ + e
    return ctrl.kp * e + ctrl.ki * integ, replace(ctrl, integ=integ)


def fit_pi_gains(bode_data: np.ndarray) -> tuple[float, float]:
    """Gains from bode data: K_P = m / 20 with m the flat-band magnitude in
    dB (longest window varying < 1 dB), K_I = w_c * K_P / 5 with w_c the
    first -45 degree phase crossing in rad/sample.

    Stated against 1-minute samples the integral gain reads
    60 * (w_c[rad/s] / 5) * K_P; the 60 is exactly the rad/s to rad/sample
    conversion, so the sample-domain form above is the same rule.
    """
    data = np.asarray(bode_data, dtype=float)
    freqs, mags, phases = data[:, 0], data[:, 1], data[:, 2]
    if not np.all(np.isfinite(mags)):
        raise ValueError("bode magnitude is degenerate (constant power map)")

    # longest contiguous window with < 1 dB spread
    best = (0, 0)
    lo = 0
    for hi in range(len(mags)):
        while mags[lo:hi + 1].max() - mags[lo:hi + 1].min() >= 1.0:
            lo += 1
        if hi - lo > best[1] - best[0]:
            best = (lo, hi)
    m = float(mags[best[0]:best[1] + 1].mean())

    # first -45 degree crossing, interpolated in log frequency
    wc = None
    for i in range(1, len(phases)):
        if phases[i - 1] > -45.0 >= phases[i]:
            f = (-45.0 - phases[i - 1]) / (phases[i] - phases[i - 1])
            wc = math.exp(math.log(freqs[i - 1]) + f * (math.log(freqs[i]) - math.log(freqs[i - 1])))
            break
    if wc is None:
        raise ValueError("phase never crosses -45 degrees in the given band")

    kp = m / 20.0
    return kp, wc * kp / 5.0


# ---------------------------------------------------------------------------
# thermostatic load construction
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TclConfig:
    """Thermostatically controlled load on a discretized temperature grid.

    Defaults describe an oversized cooling unit in mild weather on 1-minute
    samples: the warming step stalls (rounds to the same grid cell) in the
    upper deadband, so cycling is paced by the epsilon switching noise
    rather than a deterministic thermostat orbit. That choice removes the
    sharp limit-cycle resonance from the linearized response, which is what
    lets the literal flat-band/cutoff gain recipe produce a stable loop.
    Power is in the unit the control layer sees (fleet math is per load);
    the default puts the flat band near +14 dB so the recipe's K_P lands in
    the stable range.
    """

    deadband: tuple[float, float] = (19.0, 21.0)
    grid_step: float = 0.25
    time_constant: float = 30.0     # minutes
    cooling_rate: float = 0.35      # degrees C per minute when ON
    ambient: float = 24.2           # degrees C
    power_on: float = 9.0           # fleet-math power when ON
    epsilon: float = 0.01           # in-band switching noise
    grid_margin: float = 1.0        # grid extends this far past the deadband

    def __post_init__(self):
        lo, hi = self.deadband
        if not lo < hi:
            raise ValueError("deadband must have positive width")
        if self.grid_step <= 0 or self.grid_margin < 2 * self.grid_step:
            raise ValueError("grid must cover the deadband with margin")


def tcl_nominal_model(config: TclConfig) -> NominalLoadModel:
    """Build the two-mode TCL: Q0 is the deterministic Euler step of
    theta' = theta + (ambient - theta)/tau - c * 1{ON}, rounded to the grid;
    R0 is a thermostat with hysteresis, deterministic outside the deadband
    (hard quality-of-service bound at zeta = 0) and epsilon-noisy inside
    (keeps every tilted kernel irreducible). The returned model is trimmed
    to the largest closed communicating class of P0; among closed classes
    of equal size, the one holding the lowest state index is kept.
    """
    lo, hi = config.deadband
    temps = np.round(np.arange(lo - config.grid_margin,
                               hi + config.grid_margin + 1e-9,
                               config.grid_step), 10)
    nn = len(temps)
    nu = 2  # 0 = OFF, 1 = ON
    S_full = nu * nn
    xu = np.repeat(np.arange(nu), nn)
    xn = np.tile(np.arange(nn), nu)

    Q0 = np.zeros((S_full, nn))
    R0 = np.zeros((S_full, nu))
    for x in range(S_full):
        on = xu[x] == 1
        th = temps[xn[x]]
        th_next = th + (config.ambient - th) / config.time_constant
        if on:
            th_next -= config.cooling_rate
        j = int(np.clip(round((th_next - temps[0]) / config.grid_step), 0, nn - 1))
        Q0[x, j] = 1.0
        if th > hi:
            R0[x, 1] = 1.0
        elif th < lo:
            R0[x, 0] = 1.0
        else:
            keep = xu[x]
            R0[x, keep] = 1.0 - config.epsilon
            R0[x, 1 - keep] = config.epsilon

    keep = _largest_closed_class(R0[:, xu] * Q0[:, xn])
    return NominalLoadModel(
        R0=R0[keep], Q0=Q0[keep], U=np.array([0.0, config.power_on]),
        xu_of=xu[keep], xn_of=xn[keep],
        meta={"temps": temps, "config": config},
    )


# ---------------------------------------------------------------------------
# fleet simulation and the closed loop
# ---------------------------------------------------------------------------


def fleet_counts_step(counts: np.ndarray, P: np.ndarray,
                      rng: np.random.Generator) -> np.ndarray:
    """Advance per-state occupancy counts one step: a multinomial draw from
    each occupied row."""
    S = len(counts)
    out = np.zeros(S, dtype=np.int64)
    for x in np.flatnonzero(counts):
        out += rng.multinomial(counts[x], P[x])
    return out


def sample_fleet(model: NominalLoadModel, n_loads: int,
                 rng: np.random.Generator) -> np.ndarray:
    """Initial occupancy counts drawn from the nominal invariant pmf."""
    pi0 = invariant_pmf(controlled_kernel(model, 0.0))
    return rng.multinomial(n_loads, pi0)


def closed_loop_simulate(n_loads: int, model: NominalLoadModel, reference,
                         gains: tuple[float, float], rng: np.random.Generator,
                         disagg_hook=None) -> dict:
    """Track a per-load power deviation reference with PI feedback.

    Per step: measure fleet mean power y_t, subtract the nominal baseline
    ybar_t (a deterministic mean-field twin run at zeta = 0 from the same
    initial distribution), form e_t = r_t - (y_t - ybar_t), compute zeta_t,
    then every load draws its next state from its tilted kernel.

    Without a hook the fleet evolves as occupancy counts, one multinomial
    draw per occupied state. With ``disagg_hook(t, states) -> (xu_est,
    u_on_est)`` loads are tracked individually: the hook's estimated mode and
    ON power drive each load's tilt decision while the true state drives the
    physics. Both paths advance the whole fleet with array operations, so
    10^4 loads over 1440 steps run in seconds either way.

    The hook must return ``n_loads`` integer modes in ``[0, nu)`` and
    ``n_loads`` finite ON powers; anything else raises ``ValueError`` naming
    the step.
    """
    reference = np.asarray(reference, dtype=float)
    T = len(reference)
    u_state = model.power_of_state
    ctrl = PiController(kp=gains[0], ki=gains[1])

    per_load = disagg_hook is not None
    if per_load:
        tables = _fleet_tables(model)
        pi0 = invariant_pmf(controlled_kernel(model, 0.0))
        states = rng.choice(model.S, size=n_loads, p=pi0)
        mu = np.bincount(states, minlength=model.S) / n_loads
    else:
        counts = sample_fleet(model, n_loads, rng)
        mu = counts / n_loads

    twin = MeanFieldState(mu=mu, y=float(mu @ u_state))
    P0 = controlled_kernel(model, 0.0)

    traces = {k: np.empty(T) for k in ("y", "ybar", "ytilde", "e", "zeta")}
    for t in range(T):
        if per_load:
            y = float(u_state[states].sum()) / n_loads
        else:
            y = float(counts @ u_state) / n_loads
        ybar = twin.y
        e = reference[t] - (y - ybar)
        zeta, ctrl = pi_step(ctrl, e)
        traces["y"][t] = y
        traces["ybar"][t] = ybar
        traces["ytilde"][t] = y - ybar
        traces["e"][t] = e
        traces["zeta"][t] = zeta

        if per_load:
            xu_est, u_on_est = _checked_hook_output(
                t, *disagg_hook(t, states), n_loads, model.R0.shape[1])
            states = _per_load_step(tables, states, xu_est, u_on_est, zeta, rng)
        else:
            counts = fleet_counts_step(counts, controlled_kernel(model, zeta), rng)
        mu_next = twin.mu @ P0
        twin = MeanFieldState(mu=mu_next, y=float(mu_next @ u_state))
    return traces


def _checked_hook_output(t: int, xu_est, u_on_est, n_loads: int,
                         nu: int) -> tuple[np.ndarray, np.ndarray]:
    """(modes as int64, ON powers as float) from one hook call, or a
    ValueError naming step t. Indexing would silently wrap a mode of -1."""
    xu = np.asarray(xu_est)
    u_on = np.asarray(u_on_est, dtype=float)
    if xu.shape != (n_loads,) or u_on.shape != (n_loads,):
        raise ValueError(
            f"step {t}: hook returned modes of shape {xu.shape} and ON powers "
            f"of shape {u_on.shape}; expected ({n_loads},) each")
    if xu.dtype.kind not in "biu":
        if xu.dtype.kind != "f" or not np.all(np.isfinite(xu) & (xu == np.floor(xu))):
            raise ValueError(f"step {t}: hook returned non-integer modes")
    if xu.min() < 0 or xu.max() >= nu:
        raise ValueError(f"step {t}: hook returned modes outside [0, {nu})")
    if not np.all(np.isfinite(u_on)):
        raise ValueError(f"step {t}: hook returned non-finite ON powers")
    return xu.astype(np.int64), u_on


class _FleetTables(NamedTuple):
    """Per-model lookup tables for the per-load transition."""

    index: np.ndarray    # (nu, nn) retained state of each (mode, internal) pair, -1 if none
    xn_of: np.ndarray    # (S,) internal index of each retained state
    R0_pos: np.ndarray   # (S, nu) support of the controllable rows
    log_R0: np.ndarray   # (S, nu) log R0, zeros floored at 1e-300
    cdf_R0: np.ndarray   # (S, nu) row-wise cumulative sums of R0
    cdf_Q0: np.ndarray   # (S, nn) row-wise cumulative sums of Q0


def _fleet_tables(model: NominalLoadModel) -> _FleetTables:
    index = np.full((model.R0.shape[1], model.Q0.shape[1]), -1, dtype=np.int64)
    index[model.xu_of, model.xn_of] = np.arange(model.S)
    return _FleetTables(
        index=index, xn_of=model.xn_of, R0_pos=model.R0 > 0,
        log_R0=np.log(np.maximum(model.R0, 1e-300)),
        cdf_R0=np.cumsum(model.R0, axis=1), cdf_Q0=np.cumsum(model.Q0, axis=1))


def _per_load_step(tables: _FleetTables, states, xu_est, u_on_est,
                   zeta: float, rng: np.random.Generator) -> np.ndarray:
    """One per-load transition of the whole fleet: the tilt row is computed
    from the estimated mode and estimated ON power, the thermal row from the
    true state.

    RNG contract: exactly two uniform vectors of length n per step, drawn in
    this order: ``u = rng.random(n)`` for the mode decision, then
    ``v = rng.random(n)`` for the thermal move. Load i's next state depends
    only on ``u[i]``, ``v[i]`` and its own inputs.

    Estimation only reweights the mode decision; it cannot move mass onto
    modes the true row forbids (outside the deadband both rows force the
    same mode), so the landed pair is always a retained state. If a custom
    model breaks that, the controller falls back to its true row: for its
    control row when the estimated (mode, internal) pair is not retained,
    and for its mode draw when the landed pair is not retained.
    """
    n = len(states)
    u = rng.random(n)
    v = rng.random(n)
    s_ctrl = tables.index[xu_est, tables.xn_of[states]]
    s_ctrl = np.where(s_ctrl < 0, states, s_ctrl)
    U_hat = np.stack([np.zeros(n), u_on_est], axis=1)
    logr = np.where(tables.R0_pos[s_ctrl], tables.log_R0[s_ctrl] + zeta * U_hat,
                    -np.inf)
    r = np.exp(logr - logr.max(axis=1, keepdims=True))
    r /= r.sum(axis=1, keepdims=True)
    nu = r.shape[1]
    # (cdf < u).sum() is searchsorted side="left"; (cdf <= v).sum() side="right"
    xu_next = np.minimum((np.cumsum(r, axis=1) < u[:, None]).sum(axis=1), nu - 1)
    xn_next = np.minimum((tables.cdf_Q0[states] <= v[:, None]).sum(axis=1),
                         tables.cdf_Q0.shape[1] - 1)
    new_states = tables.index[xu_next, xn_next]
    miss = np.flatnonzero(new_states < 0)
    if len(miss):
        xu_next[miss] = np.minimum(
            (tables.cdf_R0[states[miss]] < u[miss, None]).sum(axis=1), nu - 1)
        new_states[miss] = tables.index[xu_next[miss], xn_next[miss]]
        if np.any(new_states[miss] < 0):
            raise ValueError("a load landed outside the retained state list")
    return new_states
