"""Finite-difference reference for the closed-form arm dynamics.

This is the link-dynamics kernel the simulator used before the closed
form: it builds the point-mass Jacobians with
:func:`repro.kinematics.jacobian.position_jacobian` and gets
``Jdot @ qdot`` from a directional difference of the Jacobian along
``qdot``.  It lives only in the tests, as an independent oracle for
:class:`repro.dynamics.manipulator.ManipulatorDynamics`.

The simulator's forward difference had up to ~1e-5 relative error in
``C(q, qdot)qdot`` at the shallowest insertion depth (the step moves
``d`` by up to 1e-6 m); the reference takes the central difference
along the same direction instead, whose O(step^2) error is far below
the oracle tolerance everywhere in the workspace.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.dynamics.manipulator import GRAVITY, ManipulatorDynamics
from repro.kinematics.jacobian import position_jacobian

#: Step used for the directional finite difference of the Jacobian.
JDOT_EPS = 1e-6

#: Joint-speed norm below which the Coriolis force is taken as zero
#: (avoids dividing by a vanishing speed in the finite difference).
SPEED_EPS = 1e-12


class FiniteDifferenceDynamics:
    """M(q), C(q, qdot)qdot and g(q) of one arm from point-mass Jacobians.

    With ``p_k = f_k(q)`` and ``J_k = dp_k/dq`` for the instrument and
    link 2's lumped mass:

        M(q)           = M0 + sum_k m_k J_k^T J_k
        C(q, qdot)qdot = sum_k m_k J_k^T (Jdot_k qdot)
        g(q)           = -sum_k m_k J_k^T gravity_vector
    """

    def __init__(self, dynamics: ManipulatorDynamics) -> None:
        self.params = dynamics.params
        self.arm = dynamics.arm
        self.friction = dynamics.friction
        self.include_coriolis = dynamics.include_coriolis
        self.include_gravity = dynamics.include_gravity

    def _instrument_jacobian(self, q: np.ndarray) -> np.ndarray:
        return position_jacobian(self.arm, q)

    def _link2_jacobian(self, q: np.ndarray) -> np.ndarray:
        q_fixed = np.array([q[0], q[1], self.params.link2_com_radius])
        jac = position_jacobian(self.arm, q_fixed)
        jac[:, 2] = 0.0  # link-2 COM does not move with insertion
        return jac

    def mass_matrix(self, q: np.ndarray) -> np.ndarray:
        p = self.params
        j3 = self._instrument_jacobian(q)
        j2 = self._link2_jacobian(q)
        m = np.diag(p.base_inertias).astype(float)
        m += p.instrument_mass * (j3.T @ j3)
        m += p.link2_mass * (j2.T @ j2)
        return m

    def coriolis_force(self, q: np.ndarray, qdot: np.ndarray) -> np.ndarray:
        if not self.include_coriolis:
            return np.zeros(3)
        p = self.params
        q = np.asarray(q, dtype=float)
        qdot = np.asarray(qdot, dtype=float)
        speed = float(np.linalg.norm(qdot))
        if speed < SPEED_EPS:
            return np.zeros(3)
        eps = JDOT_EPS / speed
        q_ahead, q_behind = q + eps * qdot, q - eps * qdot
        force = np.zeros(3)
        for mass, jac_fn in (
            (p.instrument_mass, self._instrument_jacobian),
            (p.link2_mass, self._link2_jacobian),
        ):
            jdot_qdot = (jac_fn(q_ahead) - jac_fn(q_behind)) @ qdot / (2.0 * eps)
            force += mass * (jac_fn(q).T @ jdot_qdot)
        return force

    def gravity_force(self, q: np.ndarray) -> np.ndarray:
        if not self.include_gravity:
            return np.zeros(3)
        p = self.params
        j3 = self._instrument_jacobian(q)
        j2 = self._link2_jacobian(q)
        return -(
            p.instrument_mass * (j3.T @ GRAVITY) + p.link2_mass * (j2.T @ GRAVITY)
        )

    def acceleration(
        self,
        q: np.ndarray,
        qdot: np.ndarray,
        tau: np.ndarray,
        extra_inertia: Optional[np.ndarray] = None,
        extra_damping: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        qdot = np.asarray(qdot, dtype=float)
        m = self.mass_matrix(q)
        if extra_inertia is not None:
            m = m + extra_inertia
        rhs = (
            np.asarray(tau, dtype=float)
            - self.friction.torque(qdot)
            - self.gravity_force(q)
            - self.coriolis_force(q, qdot)
        )
        if extra_damping is not None:
            rhs = rhs - extra_damping @ qdot
        return np.linalg.solve(m, rhs)
