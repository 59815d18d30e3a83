"""The closed-form arm dynamics against independent checks.

- **Oracle:** :class:`ManipulatorDynamics` (closed-form M, C(q, qdot)qdot
  and g) agrees with the finite-difference Jacobian kernel in
  ``tests/reference_dynamics.py`` to 1e-5 relative, across the workspace,
  at zero, near-zero (~1e-13) and ordinary joint speeds, for scaled
  inertial and friction models, with and without the motor rotors.
- **Energy balance:** with gravity, friction and rotor inertia/damping
  on, RK4 over a short horizon conserves energy:
  ``int tau.qdot dt = dKE + dPE + int (friction + damping).qdot dt``.
  A wrong Coriolis term breaks this even where the oracle would share
  the mistake, because C must be the one that M's time derivative
  implies.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import constants
from repro.dynamics.friction import FrictionModel
from repro.dynamics.integrators import rk4_step
from repro.dynamics.manipulator import GRAVITY, ManipulatorDynamics, ManipulatorParameters
from repro.dynamics.plant import RavenPlant
from tests.reference_dynamics import FiniteDifferenceDynamics

RTOL = 1e-5

#: Poses across the joint-limit box (:data:`repro.constants` limits).
poses = st.tuples(
    st.floats(*constants.JOINT1_LIMITS_RAD),
    st.floats(*constants.JOINT2_LIMITS_RAD),
    st.floats(*constants.JOINT3_LIMITS_M),
).map(np.array)

_moving = st.tuples(
    st.floats(-2.0, 2.0), st.floats(-2.0, 2.0), st.floats(-0.2, 0.2)
).map(np.array)
_creeping = st.tuples(
    st.floats(-1e-13, 1e-13), st.floats(-1e-13, 1e-13), st.floats(-1e-13, 1e-13)
).map(np.array)
#: Ordinary speeds, exact rest, and speeds below the old kernel's 1e-12
#: Coriolis cut-off.
speeds = st.one_of(_moving, _creeping, st.just(np.zeros(3)))

torques = st.tuples(
    st.floats(-5.0, 5.0), st.floats(-5.0, 5.0), st.floats(-20.0, 20.0)
).map(np.array)

scales = st.floats(0.5, 2.0)


def scaled_dynamics(inertia_scale: float, friction_scale: float) -> ManipulatorDynamics:
    return ManipulatorDynamics(
        params=ManipulatorParameters().scaled(inertia_scale),
        friction=FrictionModel().scaled(friction_scale),
    )


def assert_relative(actual: np.ndarray, expected: np.ndarray) -> None:
    """Max-norm relative difference under :data:`RTOL`; a vanishing
    reference (the arm at rest) allows round-off only."""
    err = float(np.max(np.abs(actual - expected)))
    assert err <= RTOL * float(np.max(np.abs(expected))) + 1e-18, (actual, expected)


ROTORS = RavenPlant()
ROTOR_INERTIA = ROTORS._reflected_inertia
ROTOR_DAMPING = ROTORS._reflected_damping


class TestAgainstFiniteDifferenceReference:
    @given(
        q=poses, qdot=speeds, tau=torques,
        inertia_scale=scales, friction_scale=scales, rotors=st.booleans(),
    )
    @settings(max_examples=150, deadline=None)
    def test_terms_and_acceleration_match(
        self, q, qdot, tau, inertia_scale, friction_scale, rotors
    ):
        dyn = scaled_dynamics(inertia_scale, friction_scale)
        ref = FiniteDifferenceDynamics(dyn)
        assert_relative(dyn.mass_matrix(q), ref.mass_matrix(q))
        assert_relative(dyn.gravity_force(q), ref.gravity_force(q))
        assert_relative(dyn.coriolis_force(q, qdot), ref.coriolis_force(q, qdot))
        extra = (ROTOR_INERTIA, ROTOR_DAMPING) if rotors else (None, None)
        assert_relative(
            dyn.acceleration(q, qdot, tau, *extra), ref.acceleration(q, qdot, tau, *extra)
        )


def potential_energy(dyn: ManipulatorDynamics, q: np.ndarray) -> float:
    p = dyn.params
    u = dyn.arm.tool_axis(q[0], q[1])
    height = (p.instrument_mass * q[2] + p.link2_mass * p.link2_com_radius) * u
    return float(-GRAVITY @ height)


class TestEnergyBalance:
    @given(
        q=st.tuples(
            st.floats(*constants.JOINT1_LIMITS_RAD),
            st.floats(*constants.JOINT2_LIMITS_RAD),
            st.floats(0.08, 0.27),
        ).map(np.array),
        qdot=_moving,
        tau=torques,
        inertia_scale=scales,
        friction_scale=scales,
    )
    @settings(max_examples=12, deadline=None)
    def test_work_in_equals_energy_change_plus_dissipation(
        self, q, qdot, tau, inertia_scale, friction_scale
    ):
        dyn = scaled_dynamics(inertia_scale, friction_scale)
        # Constant torque, scaled so the insertion stays inside the box.
        tau = tau * np.array([0.1, 0.1, 0.05])

        def kinetic(y):
            m = dyn.mass_matrix(y[0:3]) + ROTOR_INERTIA
            return 0.5 * y[3:6] @ m @ y[3:6]

        # State: q, qdot, work done by tau, energy dissipated.
        def f(_t, y):
            w = y[3:6]
            acc = dyn.acceleration(y[0:3], w, tau, ROTOR_INERTIA, ROTOR_DAMPING)
            lost = dyn.friction_force(w) @ w + w @ ROTOR_DAMPING @ w
            return np.concatenate([w, acc, [tau @ w, lost]])

        y = np.concatenate([q, qdot, [0.0, 0.0]])
        e0 = kinetic(y) + potential_energy(dyn, q)
        h = 1e-4
        for _ in range(300):
            y = rk4_step(f, 0.0, y, h)
        energy_change = kinetic(y) + potential_energy(dyn, y[0:3]) - e0
        work_in, dissipated = y[6], y[7]
        residual = work_in - energy_change - dissipated
        flow = max(abs(work_in), abs(energy_change), abs(dissipated))
        assert abs(residual) <= 1e-7 * flow, (residual, flow)
