"""Reference pieces of the control-layer tests.

``product_model`` builds a load model on the full product of controllable
modes and internal states, with no trimming, so the tests can hand-build
small kernels. ``mean_field_init`` and ``mean_field_step`` run the fleet's
mean-field dynamics mu' = mu P_zeta, and ``transfer_function`` is the
linearized response at a single z; the tests check the shipped kernels,
``bode_points`` and the closed loop against them. Importing this module
builds nothing and has no side effects.
"""

import numpy as np

from powersplit.dispatch import (
    MeanFieldState,
    NominalLoadModel,
    _gains,
    controlled_kernel,
    invariant_pmf,
    linearize,
)


def product_model(R0, Q0, U) -> NominalLoadModel:
    """Full product enumeration, x = iu * nn + i_n; no trimming."""
    R0 = np.asarray(R0, dtype=float)
    Q0 = np.asarray(Q0, dtype=float)
    nu = R0.shape[1]
    nn = Q0.shape[1]
    if R0.shape[0] != nu * nn or Q0.shape[0] != nu * nn:
        raise ValueError("rows must enumerate the full product")
    xu = np.repeat(np.arange(nu), nn)
    xn = np.tile(np.arange(nn), nu)
    return NominalLoadModel(R0=R0, Q0=Q0, U=U, xu_of=xu, xn_of=xn)


def mean_field_init(model: NominalLoadModel, mu=None) -> MeanFieldState:
    mu = invariant_pmf(controlled_kernel(model, 0.0)) if mu is None else np.asarray(mu, dtype=float)
    return MeanFieldState(mu=mu, y=float(mu @ model.power_of_state))


def mean_field_step(state: MeanFieldState, model: NominalLoadModel,
                    zeta: float) -> MeanFieldState:
    """mu' = mu P_zeta, y' = mu' . U."""
    P = controlled_kernel(model, zeta)
    mu = state.mu @ P
    mu = mu / mu.sum()
    return MeanFieldState(mu=mu, y=float(mu @ model.power_of_state))


def transfer_function(model: NominalLoadModel, zeta: float, z: complex) -> complex:
    """Complex gain of the linearized mean-field response at z.

    At z = 1 the unit eigenvalue of A is quotiented out by the centering of
    C and the zero row sums of E, so the DC gain is finite; genuine poles
    raise.
    """
    return complex(_gains(linearize(model, zeta), z)[0])
