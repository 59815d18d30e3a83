"""Batched ``(N_rigs, ...)`` evaluation of the robot dynamics.

Every kernel in this module evaluates N independent rigs in one numpy
call while reproducing the scalar path (:mod:`repro.dynamics.manipulator`,
:mod:`repro.dynamics.plant`, :mod:`repro.dynamics.integrators`) **bit for
bit** per lane.  The detector's safety verdicts hash raw float64 bytes
(:meth:`repro.sim.trace.RunTrace.fingerprint`), so "close" is not good
enough: a vectorized build that rounds differently could silently change
an alarm or E-STOP decision.  The equivalence is enforced by
``tests/test_batch_equivalence.py`` and ``tests/test_batch_properties.py``.

The bit-identity rule, checked against this build's numpy and libm:

- ``+ - * /`` are IEEE-754 per element and independent of array size and
  stride, so one expression tree written on arithmetic alone gives the
  same bits on Python floats and on ``(N,)`` columns, as long as its
  operation *order* is kept verbatim.  The arm kernel is written exactly
  once that way (:func:`repro.dynamics.manipulator.link_acceleration`):
  the scalar path feeds it floats, this module feeds it columns;
- ``math.sin``, ``math.cos`` and ``math.sqrt`` match numpy's array
  kernels bit for bit, so the scalar side may use them on floats;
- ``math.tanh`` and ``math.exp`` do **not** (numpy's SIMD kernels differ
  in a few percent of values): friction's ``tanh`` and the current
  response's ``exp`` run on numpy arrays on both sides;
- the few 3x3 products left outside the kernel (the transmission) go
  through stacked ``np.matmul`` (:func:`batched_matvec`), which runs the
  scalar ``A @ v`` lane by lane;
- branch divergence uses ``np.where`` *selection* (compute both sides,
  keep the lane's branch), never arithmetic masking.

The scalar modules remain the N=1 special case.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Sequence, Tuple

import numpy as np

from repro import constants
from repro.dynamics.friction import FrictionModel
from repro.dynamics.integrators import EVALUATIONS_PER_STEP
from repro.dynamics.manipulator import (
    ManipulatorDynamics,
    link_acceleration,
    link_terms,
)
from repro.dynamics.plant import PlantState, RavenPlant
from repro.errors import DynamicsError, IntegrationError

BatchDerivative = Callable[[float, np.ndarray], np.ndarray]


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise DynamicsError(message)


def require_homogeneous(values: Sequence, what: str) -> None:
    """Assert all lanes share one configuration value (arrays compared
    bitwise) — heterogeneity here would need per-lane code paths, which
    the batch layer deliberately does not grow."""
    first = values[0]
    for i, value in enumerate(values[1:], start=1):
        if isinstance(first, np.ndarray):
            same = (
                isinstance(value, np.ndarray)
                and value.shape == first.shape
                and bool(np.all(value == first))
            )
        else:
            same = value == first
        _require(same, f"batch lanes must share {what} (lane 0 != lane {i})")


# ---------------------------------------------------------------------------
# Stacked linear algebra (bit-identical to the scalar BLAS calls)
# ---------------------------------------------------------------------------


def batched_matvec(matrix: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """``matrix @ v`` per lane: ``(3, 3) or (N, 3, 3)`` x ``(N, 3)``."""
    return np.matmul(matrix, vectors[..., :, None])[..., 0]


# ---------------------------------------------------------------------------
# Batched friction
# ---------------------------------------------------------------------------


def stack_friction(models: Sequence[FrictionModel]) -> Tuple[np.ndarray, np.ndarray, float]:
    """Stack per-lane friction coefficients; the smoothing velocity is a
    shared scalar (it is never scaled by parameter error or drift)."""
    require_homogeneous([m.smoothing_velocity for m in models], "friction smoothing_velocity")
    viscous = np.stack([np.asarray(m.viscous, dtype=float) for m in models])
    coulomb = np.stack([np.asarray(m.coulomb, dtype=float) for m in models])
    return viscous, coulomb, models[0].smoothing_velocity


def batched_friction_torque(
    qdot: np.ndarray, viscous: np.ndarray, coulomb: np.ndarray, smoothing: float
) -> np.ndarray:
    """Per-lane :meth:`FrictionModel.torque` (elementwise; exact)."""
    return viscous * qdot + coulomb * np.tanh(qdot / smoothing)


# ---------------------------------------------------------------------------
# Batched integrators (mirrors repro.dynamics.integrators)
# ---------------------------------------------------------------------------


def _check_finite_batch(y: np.ndarray, method: str) -> np.ndarray:
    if not np.all(np.isfinite(y)):
        bad = np.nonzero(~np.isfinite(y).all(axis=tuple(range(1, y.ndim))))[0]
        raise IntegrationError(
            f"{method} produced a non-finite state in lanes {bad.tolist()}"
        )
    return y


def batched_euler_step(f: BatchDerivative, t: float, y: np.ndarray, h: float) -> np.ndarray:
    """Explicit Euler on ``(N, state)`` lanes."""
    return _check_finite_batch(y + h * f(t, y), "euler")


def batched_midpoint_step(f: BatchDerivative, t: float, y: np.ndarray, h: float) -> np.ndarray:
    """Explicit midpoint (RK2) on ``(N, state)`` lanes."""
    k1 = f(t, y)
    k2 = f(t + 0.5 * h, y + 0.5 * h * k1)
    return _check_finite_batch(y + h * k2, "midpoint")


def batched_heun_step(f: BatchDerivative, t: float, y: np.ndarray, h: float) -> np.ndarray:
    """Heun (trapezoidal RK2) on ``(N, state)`` lanes."""
    k1 = f(t, y)
    k2 = f(t + h, y + h * k1)
    return _check_finite_batch(y + 0.5 * h * (k1 + k2), "heun")


def batched_rk4_step(f: BatchDerivative, t: float, y: np.ndarray, h: float) -> np.ndarray:
    """Classical RK4 on ``(N, state)`` lanes."""
    k1 = f(t, y)
    k2 = f(t + 0.5 * h, y + 0.5 * h * k1)
    k3 = f(t + 0.5 * h, y + 0.5 * h * k2)
    k4 = f(t + h, y + h * k3)
    # Classical RK4 Butcher weight, same literal as the scalar stepper.
    return _check_finite_batch(
        y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4),  # repro: allow[RPR003]
        "rk4",
    )


#: Registry of batched steppers; keys match :data:`repro.dynamics.INTEGRATORS`.
BATCH_INTEGRATORS: Dict[str, Callable[..., np.ndarray]] = {
    "euler": batched_euler_step,
    "midpoint": batched_midpoint_step,
    "heun": batched_heun_step,
    "rk4": batched_rk4_step,
}

assert set(BATCH_INTEGRATORS) == set(EVALUATIONS_PER_STEP)


def get_batch_integrator(name: str) -> Callable[..., np.ndarray]:
    """Look up a batched stepper by scalar-integrator name."""
    try:
        return BATCH_INTEGRATORS[name]
    except KeyError:
        raise KeyError(
            f"unknown integrator {name!r}; available: {sorted(BATCH_INTEGRATORS)}"
        ) from None


# ---------------------------------------------------------------------------
# Batched motor current response
# ---------------------------------------------------------------------------


def batched_current_response(
    setpoints: np.ndarray, i0: np.ndarray, elapsed: float, tau_i: np.ndarray
) -> np.ndarray:
    """Analytic first-order current-loop response per lane.

    Mirrors the plant's ``sp + (i0 - sp) * exp(-elapsed / tau)``; ``np.exp``
    is element-invariant across array shapes, so this is exact.
    """
    return setpoints + (i0 - setpoints) * np.exp(-elapsed / tau_i)


def batched_dac_to_current(dac_values: np.ndarray) -> np.ndarray:
    """``(N, 3)`` DAC counts to current setpoints (elementwise; exact)."""
    dac = np.asarray(dac_values, dtype=float)
    return dac / constants.DAC_FULL_SCALE * constants.DAC_FULL_SCALE_CURRENT_A


# ---------------------------------------------------------------------------
# Batched manipulator dynamics
# ---------------------------------------------------------------------------


class BatchedManipulatorDynamics:
    """N lanes of :class:`ManipulatorDynamics` evaluated in one shot.

    Runs the scalar kernel (:func:`repro.dynamics.manipulator.link_terms`)
    unchanged on ``(N,)`` columns.  Inertial and friction parameters are
    stacked per lane (so model-drift and parameter-error studies can
    differ lane by lane); the arm geometry and the include flags must be
    shared.
    """

    def __init__(self, lanes: Sequence[ManipulatorDynamics]) -> None:
        _require(len(lanes) > 0, "at least one lane is required")
        require_homogeneous([d.arm.geometry for d in lanes], "arm geometry")
        require_homogeneous([d.include_coriolis for d in lanes], "include_coriolis")
        require_homogeneous([d.include_gravity for d in lanes], "include_gravity")
        self.num_lanes = len(lanes)
        self.include_coriolis = lanes[0].include_coriolis
        self.include_gravity = lanes[0].include_gravity
        self._arm = lanes[0].arm_constants
        #: ``(constant, lane)`` rows of each lane's ``lane_constants``.
        self._lanes = np.array([d.lane_constants for d in lanes]).T.copy()
        self._viscous, self._coulomb, self._smoothing = stack_friction(
            [d.friction for d in lanes]
        )

    def refresh_lane(self, lane: int, dynamics: ManipulatorDynamics) -> None:
        """Re-read one lane's parameters (after ``apply_parameter_drift``
        rebuilt the lane's scalar dynamics in place)."""
        self._lanes[:, lane] = dynamics.lane_constants
        self._viscous[lane] = np.asarray(dynamics.friction.viscous, dtype=float)
        self._coulomb[lane] = np.asarray(dynamics.friction.coulomb, dtype=float)

    def _terms(self, q: np.ndarray, qdot: Optional[np.ndarray] = None):
        q = np.asarray(q, dtype=float)
        w1, w2, w3 = (
            (0.0, 0.0, 0.0) if qdot is None else np.asarray(qdot, dtype=float).T
        )
        return link_terms(
            np.sin, np.cos, self._arm, self._lanes, q[:, 1], q[:, 2], w1, w2, w3
        )

    # -- dynamics terms -------------------------------------------------------

    def mass_matrix(self, q: np.ndarray) -> np.ndarray:
        """Per-lane M(q) — the scalar method's entries, as columns."""
        (m00, m01, m11, m22), _, _ = self._terms(q)
        m = np.zeros((self.num_lanes, 3, 3))
        m[:, 0, 0] = m00
        m[:, 0, 1] = m[:, 1, 0] = m01
        m[:, 1, 1] = m11
        m[:, 2, 2] = m22
        return m

    def coriolis_force(self, q: np.ndarray, qdot: np.ndarray) -> np.ndarray:
        """Per-lane ``C(q, qdot) @ qdot`` — mirrors the scalar method."""
        if not self.include_coriolis:
            return np.zeros((self.num_lanes, 3))
        return np.stack(self._terms(q, qdot)[1], axis=1)

    def gravity_force(self, q: np.ndarray) -> np.ndarray:
        """Per-lane gravity force — mirrors the scalar method."""
        force = np.zeros((self.num_lanes, 3))
        if self.include_gravity:
            force[:, 1], force[:, 2] = self._terms(q)[2]
        return force

    def friction_force(self, qdot: np.ndarray) -> np.ndarray:
        """Per-lane joint friction force."""
        return batched_friction_torque(
            np.asarray(qdot, dtype=float), self._viscous, self._coulomb, self._smoothing
        )

    def acceleration(
        self,
        q: np.ndarray,
        qdot: np.ndarray,
        tau: np.ndarray,
        extra_inertia: Optional[np.ndarray] = None,
        extra_damping: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Per-lane joint accelerations — the hot path: the scalar
        :func:`link_acceleration` on columns.  ``extra_inertia`` and
        ``extra_damping`` are one 3x3 matrix shared by every lane."""
        qdot = np.asarray(qdot, dtype=float)
        return np.stack(
            link_acceleration(
                np.sin,
                np.cos,
                self._arm,
                self._lanes,
                self.include_coriolis,
                self.include_gravity,
                np.asarray(q, dtype=float).T,
                qdot.T,
                np.asarray(tau, dtype=float).T,
                self.friction_force(qdot).T,
                None if extra_inertia is None else np.asarray(extra_inertia).tolist(),
                None if extra_damping is None else np.asarray(extra_damping).tolist(),
            ),
            axis=1,
        )


# ---------------------------------------------------------------------------
# Batched plant
# ---------------------------------------------------------------------------


class BatchedPlant:
    """N lanes of :class:`RavenPlant` advanced by one shared step.

    Built *from* freshly constructed scalar plants: their state vectors
    are stacked, and from then on :meth:`step` advances every lane at
    once.  Per-lane brake state (engaged / closing countdown) is handled
    by integrating every lane and bitwise-restoring the lanes the scalar
    plant would not have integrated — selection, not recomputation, so
    held lanes keep their exact bytes.

    Lane time stays in lockstep by construction (every lane advances
    ``dt`` per step, brakes or not, exactly like the scalar plant).
    """

    def __init__(self, plants: Sequence[RavenPlant]) -> None:
        _require(len(plants) > 0, "at least one lane plant is required")
        require_homogeneous([p.integrator_name for p in plants], "plant integrator")
        require_homogeneous([p.substeps for p in plants], "plant substeps")
        require_homogeneous([p.motors for p in plants], "motor parameters")
        require_homogeneous(
            [p.transmission.joint_to_motor for p in plants], "transmission matrix"
        )
        require_homogeneous([p.brake_delay_s for p in plants], "brake delay")
        require_homogeneous([p._time for p in plants], "plant time")
        self.num_lanes = len(plants)
        self.dynamics = BatchedManipulatorDynamics([p.dynamics for p in plants])
        self.transmission = plants[0].transmission
        self._g = self.transmission.joint_to_motor
        self.substeps = plants[0].substeps
        self.integrator_name = plants[0].integrator_name
        self._stepper = get_batch_integrator(self.integrator_name)
        self.brake_delay_s = plants[0].brake_delay_s

        first = plants[0]
        self._reflected_inertia = first._reflected_inertia
        self._reflected_damping = first._reflected_damping
        self._kt = first._kt
        self._tau_i = first._tau_i
        self._i_max = first._i_max

        self._time = first._time
        self._y = np.stack([p._y for p in plants]).astype(float)
        self.brakes_engaged = np.array([p.brakes_engaged for p in plants])
        self._countdown = np.zeros(self.num_lanes)
        self._counting = np.zeros(self.num_lanes, dtype=bool)
        for i, p in enumerate(plants):
            if p._brake_countdown is not None:
                self._counting[i] = True
                self._countdown[i] = p._brake_countdown

    # -- per-lane brake control (mirrors RavenPlant) ---------------------------

    def engage_brakes(self, lane: int) -> None:
        """Start engaging lane ``lane``'s brakes (idempotent while closing)."""
        if self.brakes_engaged[lane] or self._counting[lane]:
            return
        if self.brake_delay_s <= 0.0:
            self._lock_brakes(lane)
        else:
            self._counting[lane] = True
            self._countdown[lane] = self.brake_delay_s

    def _lock_brakes(self, lane: int) -> None:
        self.brakes_engaged[lane] = True
        self._counting[lane] = False
        self._y[lane, 3:6] = 0.0
        self._y[lane, 6:9] = 0.0

    def release_brakes(self, lane: int) -> None:
        """Release lane ``lane``'s brakes."""
        self.brakes_engaged[lane] = False
        self._counting[lane] = False

    def brakes_engaging(self, lane: int) -> bool:
        """Whether an engage request is pending on lane ``lane``."""
        return bool(self._counting[lane])

    # -- state access ----------------------------------------------------------

    @property
    def time(self) -> float:
        """Shared (lockstep) plant time."""
        return self._time

    def lane_state(self, lane: int) -> PlantState:
        """Scalar-identical :class:`PlantState` snapshot of one lane."""
        jpos = self._y[lane, 0:3].copy()
        jvel = self._y[lane, 3:6].copy()
        return PlantState(
            time=self._time,
            jpos=jpos,
            jvel=jvel,
            currents=self._y[lane, 6:9].copy(),
            mpos=self._g @ jpos,
            mvel=self._g @ jvel,
            brakes_engaged=bool(self.brakes_engaged[lane]),
        )

    def lane(self, lane: int) -> "LanePlantView":
        """A :class:`RavenPlant`-shaped view of one lane."""
        return LanePlantView(self, lane)

    # -- simulation ------------------------------------------------------------

    def _derivative(
        self, setpoints: np.ndarray, i0: np.ndarray, t0: float
    ) -> BatchDerivative:
        dynamics = self.dynamics
        g = self._g
        kt = self._kt
        refl_m = self._reflected_inertia
        refl_b = self._reflected_damping
        tau_i = self._tau_i

        def f(t: float, y: np.ndarray) -> np.ndarray:
            cur = batched_current_response(setpoints, i0, t - t0, tau_i)
            tau_joint = batched_matvec(g.T, kt * cur)
            qddot = dynamics.acceleration(
                y[:, 0:3],
                y[:, 3:6],
                tau_joint,
                extra_inertia=refl_m,
                extra_damping=refl_b,
            )
            return np.concatenate([y[:, 3:6], qddot], axis=1)

        return f

    def step(
        self, dac_values: np.ndarray, dt: float = constants.CONTROL_PERIOD_S
    ) -> None:
        """Advance every lane by one control period under ``dac_values``.

        Lanes with engaged brakes only advance time; lanes with closing
        brakes coast on zero DAC; the rest execute their command — all
        per-lane decisions are made by ``np.where`` selection so each
        lane's bytes match a scalar :meth:`RavenPlant.step`.
        """
        engaged = self.brakes_engaged.copy()
        if engaged.all():
            self._time += dt
            return
        dac = np.asarray(dac_values, dtype=float).reshape(self.num_lanes, 3)
        closing = ~engaged & self._counting
        coast_or_hold = engaged | closing
        if coast_or_hold.any():
            dac = np.where(coast_or_hold[:, None], 0.0, dac)
        self._countdown[closing] -= dt

        setpoints = np.clip(batched_dac_to_current(dac), -self._i_max, self._i_max)
        i0 = self._y[:, 6:9].copy()
        t0 = self._time
        f = self._derivative(setpoints, i0, t0)
        h = dt / self.substeps
        y = self._y[:, 0:6]
        t = t0
        for _ in range(self.substeps):
            y = self._stepper(f, t, y, h)
            t += h
        # Brake-engaged lanes were integrated along with the batch for
        # uniformity; restore their held state bitwise (the scalar plant
        # never integrates them).
        self._y[:, 0:6] = np.where(engaged[:, None], self._y[:, 0:6], y)
        new_currents = batched_current_response(setpoints, i0, dt, self._tau_i)
        self._y[:, 6:9] = np.where(engaged[:, None], i0, new_currents)
        self._time = t0 + dt

        expired = np.nonzero(closing & (self._countdown <= 0.0))[0]
        for lane in expired:
            self._lock_brakes(int(lane))


class LanePlantView:
    """One lane of a :class:`BatchedPlant`, shaped like a scalar plant.

    Installed in place of a rig's :class:`RavenPlant` so the PLC, motor
    controller and encoders keep their scalar code paths; only
    :meth:`RavenPlant.step` is off limits — the batched rig advances all
    lanes through :meth:`BatchedPlant.step`.
    """

    def __init__(self, batch: BatchedPlant, lane: int) -> None:
        self.batch = batch
        self.lane = lane
        self.transmission = batch.transmission
        self.brake_delay_s = batch.brake_delay_s

    @property
    def jpos(self) -> np.ndarray:
        return self.batch._y[self.lane, 0:3].copy()

    @property
    def jvel(self) -> np.ndarray:
        return self.batch._y[self.lane, 3:6].copy()

    @property
    def currents(self) -> np.ndarray:
        return self.batch._y[self.lane, 6:9].copy()

    @property
    def mpos(self) -> np.ndarray:
        return self.batch._g @ self.batch._y[self.lane, 0:3]

    @property
    def mvel(self) -> np.ndarray:
        return self.batch._g @ self.batch._y[self.lane, 3:6]

    @property
    def time(self) -> float:
        return self.batch._time

    @property
    def brakes_engaged(self) -> bool:
        return bool(self.batch.brakes_engaged[self.lane])

    @property
    def brakes_engaging(self) -> bool:
        return self.batch.brakes_engaging(self.lane)

    def engage_brakes(self) -> None:
        self.batch.engage_brakes(self.lane)

    def release_brakes(self) -> None:
        self.batch.release_brakes(self.lane)

    def snapshot(self) -> PlantState:
        return self.batch.lane_state(self.lane)

    def set_state(self, jpos: np.ndarray, jvel: Optional[np.ndarray] = None) -> None:
        y = self.batch._y
        y[self.lane, 0:3] = np.asarray(jpos, dtype=float)
        y[self.lane, 3:6] = 0.0 if jvel is None else np.asarray(jvel, dtype=float)
        y[self.lane, 6:9] = 0.0

    def step(self, dac_values: Sequence[float], dt: float = constants.CONTROL_PERIOD_S):
        raise DynamicsError(
            "lane plants advance together through BatchedPlant.step(); "
            "stepping a single lane would break lockstep"
        )
