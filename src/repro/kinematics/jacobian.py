"""Analytic position Jacobian of the spherical positioning arm.

The tool tip is ``p = rcm + d * u(q1, q2)``.  Rotating joint *i* about its
axis ``a_i`` moves the tool axis as ``du/dq_i = a_i x u``, so

    dp/dq1 = d * (a1 x u)      with a1 = z_hat (base axis)
    dp/dq2 = d * (a2 x u)      with a2 = Rz(q1) Rx(alpha1) z_hat
    dp/dd  = u

The Jacobian maps joint rates ``(q1_dot, q2_dot, d_dot)`` to tool-tip
velocity in the world frame.  The detector uses it to translate joint
velocities into end-effector velocities when deciding whether a command
would cause a >1 mm jump.
"""

from __future__ import annotations

import numpy as np

from repro.kinematics.spherical_arm import SphericalArm

_Z_HAT = np.array([0.0, 0.0, 1.0])


def position_jacobian(arm: SphericalArm, q: np.ndarray) -> np.ndarray:
    """3x3 Jacobian of the tool-tip position w.r.t. ``q = (q1, q2, d)``.

    Hand-expanded cross products, avoiding ``np.cross`` overhead.  The
    link dynamics use the same columns in closed form
    (:func:`repro.dynamics.manipulator.link_terms`).
    """
    q1, q2, d = float(q[0]), float(q[1]), float(q[2])
    ux, uy, uz = arm.tool_axis(q1, q2)
    ax, ay, az = arm.joint2_axis(q1)
    # column 0: d * (z_hat x u); column 1: d * (a2 x u); column 2: u
    return np.array(
        [
            [-d * uy, d * (ay * uz - az * uy), ux],
            [d * ux, d * (az * ux - ax * uz), uy],
            [0.0, d * (ax * uy - ay * ux), uz],
        ]
    )


def tip_velocity(arm: SphericalArm, q: np.ndarray, qdot: np.ndarray) -> np.ndarray:
    """Tool-tip velocity (m/s) for joint state ``q`` and joint rates ``qdot``."""
    return position_jacobian(arm, q) @ np.asarray(qdot, dtype=float)


def tip_speed(arm: SphericalArm, q: np.ndarray, qdot: np.ndarray) -> float:
    """Magnitude of the tool-tip velocity (m/s)."""
    return float(np.linalg.norm(tip_velocity(arm, q, qdot)))
