"""Link (joint) dynamics of the 3-DOF RAVEN II positioning arm.

Following the paper (Section IV.A.1), only the first three degrees of
freedom — shoulder rotation, elbow rotation and tool insertion — are
modelled dynamically; they are the positioning joints that dominate the
end-effector position.

The mechanism is spherical, so the moving masses are compactly described by
point masses riding on the tool axis plus constant link inertias about the
joint axes:

- link 2's centre of mass sits a fixed distance ``r2`` from the RCM along
  the tool-axis direction ``u(q1, q2)``;
- the instrument (plus carriage) of mass ``m3`` sits at the insertion depth
  ``d`` along the same direction.

Turning joint 1 (axis ``z``) or joint 2 (axis ``a2``) moves ``u`` along
``e0 = z x u`` or ``e1 = a2 x u``, so the point-mass Jacobians are
``J3 = [d e0, d e1, u]`` and ``J2 = r2 [e0, e1, 0]``, and the Lagrangian
terms are, in closed form:

    M(q)           = M0 + (m3 d^2 + m2 r2^2) Gram(e0, e1) + m3 on the d axis
    C(q, qdot)qdot = m3 J3^T (Jdot3 qdot) + m2 J2^T (Jdot2 qdot)
    g(q)           = 9.81 * (z-row of m3 J3 + m2 J2)

With ``w = qdot1 z + qdot2 a2`` and ``v = w x u = qdot1 e0 + qdot2 e1``,
``Jdot3 qdot = 2 ddot v + d B`` and ``Jdot2 qdot = r2 B`` where
``B = w x v + qdot1 qdot2 (z x a2) x u``.  Its projections onto ``e0``,
``e1`` and ``u`` reduce to a few products of the Gram entries (see
:func:`link_terms`).  Gravity and the base axis are both vertical, so
every term is invariant under joint 1: the kernel works in the frame
turned by ``-q1`` about ``z`` and never evaluates ``sin(q1)``.

:func:`link_terms` and :func:`link_acceleration` are written once, on
arithmetic alone, and run unchanged on Python floats (one arm,
:class:`ManipulatorDynamics`) and on ``(N,)`` numpy columns (N lanes,
:class:`repro.dynamics.batch.BatchedManipulatorDynamics`).  Each lane of
the batch therefore reproduces the scalar arm bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Sequence, Tuple

import numpy as np

from repro.dynamics.friction import FrictionModel
from repro.kinematics.spherical_arm import ArmGeometry, SphericalArm

#: Gravitational acceleration vector in the world frame (z up), m/s^2.
GRAVITY = np.array([0.0, 0.0, -9.81])

#: Magnitude of :data:`GRAVITY`, as the float the kernel multiplies by.
_G = -float(GRAVITY[2])

#: A Python float (one arm) or an ``(N,)`` float64 column (N lanes).
Scalar = Any


def _solve3(m: Sequence[Sequence[Scalar]], b: Sequence[Scalar]) -> Tuple[Scalar, ...]:
    """Solve the 3x3 system ``m @ x = b`` by Cramer's rule.

    ~5x faster than ``np.linalg.solve`` at this size; the inertia matrix is
    positive definite so the determinant is safely bounded away from zero.
    Runs on floats or on ``(N,)`` columns alike.
    """
    a00, a01, a02 = m[0]
    a10, a11, a12 = m[1]
    a20, a21, a22 = m[2]
    c00 = a11 * a22 - a12 * a21
    c01 = a12 * a20 - a10 * a22
    c02 = a10 * a21 - a11 * a20
    det = a00 * c00 + a01 * c01 + a02 * c02
    b0, b1, b2 = b
    x0 = (
        b0 * c00
        + a01 * (a12 * b2 - b1 * a22)
        + a02 * (b1 * a21 - a11 * b2)
    ) / det
    x1 = (
        a00 * (b1 * a22 - a12 * b2)
        + b0 * c01
        + a02 * (a10 * b2 - b1 * a20)
    ) / det
    x2 = (
        a00 * (a11 * b2 - b1 * a21)
        + a01 * (b1 * a20 - a10 * b2)
        + b0 * c02
    ) / det
    return x0, x1, x2


def arm_constants(geometry: ArmGeometry) -> Tuple[float, ...]:
    """Geometry constants of the kernel, shared by every lane of a batch."""
    sa1, ca1 = math.sin(geometry.alpha1), math.cos(geometry.alpha1)
    sa2, ca2 = math.sin(geometry.alpha2), math.cos(geometry.alpha2)
    sa2_sq = sa2 * sa2
    return sa1, ca1, sa2, ca2, sa1 * ca2, ca1 * ca2, ca1 * sa2_sq, sa2_sq


def lane_constants(params: "ManipulatorParameters") -> Tuple[float, ...]:
    """Inertial constants of the kernel for one arm (one lane of a batch)."""
    i1, i2, i3 = params.base_inertias.tolist()
    m2r2 = params.link2_mass * params.link2_com_radius
    m3 = params.instrument_mass
    return i1, i2, i3 + m3, m3, m2r2, m2r2 * params.link2_com_radius


def link_terms(
    sin: Callable[[Scalar], Scalar],
    cos: Callable[[Scalar], Scalar],
    arm: Sequence[float],
    lane: Sequence[Scalar],
    q2: Scalar,
    d: Scalar,
    w1: Scalar,
    w2: Scalar,
    w3: Scalar,
) -> Tuple[Tuple[Scalar, ...], Tuple[Scalar, ...], Tuple[Scalar, ...]]:
    """M(q), C(q, qdot)qdot and g(q) of the link chain, in closed form.

    ``arm`` is :func:`arm_constants`, ``lane`` is :func:`lane_constants`
    (or its stacked ``(N,)`` columns), ``(w1, w2, w3)`` is ``qdot``.
    Returns ``(m00, m01, m11, m22)`` (``M`` is symmetric with
    ``m02 = m12 = 0``), ``(c0, c1, c2)`` and ``(g1, g2)`` (``g0 = 0``: the
    base axis is vertical).
    """
    sa1, ca1, sa2, ca2, sa1ca2, ca1ca2, ca1sa2_sq, g11 = arm
    i1, i2, i33, m3, m2r2, m2r2_sq = lane
    # In the joint-1 frame: u = (s, uy, uz), e0 = (-uy, s, 0),
    # e1 = (c, ca1 s, sa1 s); |e1|^2 = sin^2(alpha2) = g11.
    s = sa2 * sin(q2)
    c = sa2 * cos(q2)
    uy = -ca1 * c - sa1ca2
    uz = ca1ca2 - sa1 * c
    e1z = sa1 * s
    g00 = s * s + uy * uy
    g01 = ca1sa2_sq + sa1ca2 * c
    k = m3 * d * d + m2r2_sq
    mass = (i1 + k * g00, k * g01, i2 + k * g11, i33)
    gravity = (_G * (m3 * d + m2r2) * e1z, _G * m3 * uz)
    # C = (2 m3 d ddot e0.v + k e0.B, 2 m3 d ddot e1.v + k e1.B, m3 d u.B)
    # with e.v from the Gram entries (v = w1 e0 + w2 e1), and
    # e0.B = -e1z w2 (2 uz w1 + ca2 w2), e1.B = e1z uz w1^2, u.B = -|v|^2.
    ev0 = w1 * g00 + w2 * g01
    ev1 = w1 * g01 + w2 * g11
    p = 2.0 * m3 * d * w3
    ke = k * e1z
    coriolis = (
        p * ev0 - ke * w2 * (2.0 * uz * w1 + ca2 * w2),
        p * ev1 + ke * uz * w1 * w1,
        -m3 * d * (w1 * ev0 + w2 * ev1),
    )
    return mass, coriolis, gravity


def link_acceleration(
    sin: Callable[[Scalar], Scalar],
    cos: Callable[[Scalar], Scalar],
    arm: Sequence[float],
    lane: Sequence[Scalar],
    include_coriolis: bool,
    include_gravity: bool,
    q: Sequence[Scalar],
    qdot: Sequence[Scalar],
    tau: Sequence[Scalar],
    friction: Sequence[Scalar],
    extra_inertia: Optional[Sequence[Sequence[float]]],
    extra_damping: Optional[Sequence[Sequence[float]]],
) -> Tuple[Scalar, ...]:
    """Joint accelerations ``(M + M_extra)^-1 (tau - f - g - C qdot - D qdot)``.

    ``friction`` is the friction force ``f`` already evaluated at ``qdot``;
    ``extra_inertia``/``extra_damping`` (``M_extra``, ``D``) are 3x3 nested
    float rows (the motor rotors' reflected inertia and damping) or ``None``.
    """
    w1, w2, w3 = qdot
    (m00, m01, m11, m22), coriolis, gravity = link_terms(
        sin, cos, arm, lane, q[1], q[2], w1, w2, w3
    )
    r0 = tau[0] - friction[0]
    r1 = tau[1] - friction[1]
    r2 = tau[2] - friction[2]
    if include_gravity:
        r1 = r1 - gravity[0]
        r2 = r2 - gravity[1]
    if include_coriolis:
        r0 = r0 - coriolis[0]
        r1 = r1 - coriolis[1]
        r2 = r2 - coriolis[2]
    if extra_damping is not None:
        (b00, b01, b02), (b10, b11, b12), (b20, b21, b22) = extra_damping
        r0 = r0 - (b00 * w1 + b01 * w2 + b02 * w3)
        r1 = r1 - (b10 * w1 + b11 * w2 + b12 * w3)
        r2 = r2 - (b20 * w1 + b21 * w2 + b22 * w3)
    if extra_inertia is None:
        rows = ((m00, m01, 0.0), (m01, m11, 0.0), (0.0, 0.0, m22))
    else:
        (a00, a01, a02), (a10, a11, a12), (a20, a21, a22) = extra_inertia
        rows = (
            (m00 + a00, m01 + a01, a02),
            (m01 + a10, m11 + a11, a12),
            (a20, a21, m22 + a22),
        )
    return _solve3(rows, (r0, r1, r2))


@dataclass(frozen=True)
class ManipulatorParameters:
    """Inertial parameters of one positioning arm.

    Attributes
    ----------
    base_inertias:
        Constant link inertias about the three joint axes: ``I1`` about the
        base axis, ``I2`` about the joint-2 axis (kg*m^2), and a small
        carriage mass term for the prismatic axis (kg).
    link2_mass:
        Mass lumped at ``link2_com_radius`` along the tool axis (kg).
    link2_com_radius:
        Distance of link-2's lumped mass from the RCM (m).
    instrument_mass:
        Mass of the instrument + carriage riding at the insertion depth (kg).
    """

    base_inertias: np.ndarray = field(
        default_factory=lambda: np.array([8.0e-3, 5.0e-3, 0.05])
    )
    link2_mass: float = 0.35
    link2_com_radius: float = 0.10
    instrument_mass: float = 0.15

    def __post_init__(self) -> None:
        inertias = np.asarray(self.base_inertias, dtype=float)
        if inertias.shape != (3,) or np.any(inertias <= 0.0):
            raise ValueError("base_inertias must be three positive values")
        object.__setattr__(self, "base_inertias", inertias)
        if self.link2_mass <= 0.0 or self.instrument_mass <= 0.0:
            raise ValueError("masses must be positive")
        if self.link2_com_radius <= 0.0:
            raise ValueError("link2_com_radius must be positive")

    def scaled(self, scale: float) -> "ManipulatorParameters":
        """A copy with masses/inertias scaled (model-mismatch studies)."""
        return ManipulatorParameters(
            base_inertias=self.base_inertias * scale,
            link2_mass=self.link2_mass * scale,
            link2_com_radius=self.link2_com_radius,
            instrument_mass=self.instrument_mass * scale,
        )


def _floats(values: Any) -> list:
    """Python floats (nested for a matrix): their arithmetic is ~3x faster
    than numpy float64 scalars'."""
    return np.asarray(values, dtype=float).tolist()


class ManipulatorDynamics:
    """Computes M(q), Coriolis and gravity forces for the positioning arm."""

    def __init__(
        self,
        params: Optional[ManipulatorParameters] = None,
        geometry: Optional[ArmGeometry] = None,
        friction: Optional[FrictionModel] = None,
        include_coriolis: bool = True,
        include_gravity: bool = True,
    ) -> None:
        self.params = params or ManipulatorParameters()
        self.arm = SphericalArm(geometry)
        self.friction = friction or FrictionModel()
        self.include_coriolis = include_coriolis
        self.include_gravity = include_gravity
        self.arm_constants = arm_constants(self.arm.geometry)
        self.lane_constants = lane_constants(self.params)

    def _terms(self, q: np.ndarray, qdot: Optional[np.ndarray] = None):
        _, q2, d = _floats(q)
        w1, w2, w3 = (0.0, 0.0, 0.0) if qdot is None else _floats(qdot)
        return link_terms(
            math.sin, math.cos, self.arm_constants, self.lane_constants,
            q2, d, w1, w2, w3,
        )

    # -- dynamics terms -------------------------------------------------------

    def mass_matrix(self, q: np.ndarray) -> np.ndarray:
        """Joint-space inertia matrix M(q) of the links (without rotors)."""
        (m00, m01, m11, m22), _, _ = self._terms(q)
        return np.array([[m00, m01, 0.0], [m01, m11, 0.0], [0.0, 0.0, m22]])

    def coriolis_force(self, q: np.ndarray, qdot: np.ndarray) -> np.ndarray:
        """Coriolis/centrifugal generalized force ``C(q, qdot) @ qdot``."""
        if not self.include_coriolis:
            return np.zeros(3)
        return np.array(self._terms(q, qdot)[1])

    def gravity_force(self, q: np.ndarray) -> np.ndarray:
        """Gravity generalized force (put on the LHS of the EOM)."""
        if not self.include_gravity:
            return np.zeros(3)
        g1, g2 = self._terms(q)[2]
        return np.array([0.0, g1, g2])

    def friction_force(self, qdot: np.ndarray) -> np.ndarray:
        """Joint friction generalized force opposing motion."""
        return self.friction.torque(qdot)

    def acceleration(
        self,
        q: np.ndarray,
        qdot: np.ndarray,
        tau: np.ndarray,
        extra_inertia: Optional[np.ndarray] = None,
        extra_damping: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Joint accelerations under applied joint torques ``tau``.

        ``extra_inertia``/``extra_damping`` let the plant add the motor
        rotors' reflected inertia and damping without re-deriving the EOM.

        This is the hot path of every derivative evaluation: the inputs
        become Python floats once and :func:`link_acceleration` runs on
        them; friction's ``tanh`` stays on numpy so a batch lane gets the
        same bits.
        """
        qdot = np.asarray(qdot, dtype=float)
        return np.array(
            link_acceleration(
                math.sin,
                math.cos,
                self.arm_constants,
                self.lane_constants,
                self.include_coriolis,
                self.include_gravity,
                _floats(q),
                qdot.tolist(),
                _floats(tau),
                self.friction.torque(qdot).tolist(),
                None if extra_inertia is None else _floats(extra_inertia),
                None if extra_damping is None else _floats(extra_damping),
            )
        )

    def gravity_compensation(self, q: np.ndarray) -> np.ndarray:
        """Joint torques that exactly cancel gravity at pose ``q``."""
        return self.gravity_force(q)
