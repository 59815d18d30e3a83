"""Batched execution of N independent surgical rigs in one process.

:class:`BatchedSurgicalRig` constructs N ordinary :class:`SurgicalRig`
instances (one per :class:`LaneSpec`), then rewires them so every control
cycle advances all lanes together:

- the N scalar plants are replaced by one :class:`repro.dynamics.batch
  .BatchedPlant` plus per-lane views, so the physics integrates as one
  ``(N, ...)`` operation;
- the guarded lanes become lanes of one :class:`repro.core.pipeline
  .LanePack` (the same batch driver the fleet uses): each guard's
  per-packet bookkeeping, supervisor screening and mitigation decisions
  stay scalar and per lane, but the numeric core (estimator sync/coast,
  one-step model prediction, thresholds, fusion and decision window) runs
  once per round, batched; :meth:`BatchedSurgicalRig.run` detaches the
  pack at the end, writing each lane back into its guard;
- DAC latching onto the motor controllers is deferred within the cycle
  (the controller's USB write is its last effectful statement, so the
  deferral is invisible to the software stack) and flushed after the
  batched guard decisions, preserving the exact per-lane latch sequence —
  including zeroed latches for blocked packets and physical-layer
  ``dac_fault`` hooks firing exactly once per latch.

The result is **bit-identical per lane** to running each rig alone:
``RunTrace.fingerprint()`` of lane *i* equals the scalar run's, including
alarm cycles, blocked packets, PLC E-STOPs and degraded-mode transitions.
``tests/test_batch_equivalence.py`` enforces this with a differential
harness (:mod:`repro.testing.differential`).

Lanes may differ in seed, trajectory, pedal schedule, attack preloads,
physical-fault plans, thresholds, fusion rule, decision window,
mitigation strategy and model parameter error.  They must share the control
period, run duration, plant integrator/substeps and (across guarded
lanes) what :meth:`LanePack.mismatch` checks — asserted at construction.
"""

from __future__ import annotations

from collections import deque
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Deque, List, Optional, Sequence, Union

import numpy as np

from repro import constants
from repro.control.state_machine import RobotState
from repro.core.pipeline import DetectorGuard, GuardSupervisor, LanePack
from repro.dynamics.batch import BatchedPlant, require_homogeneous
from repro.errors import SimulationError
from repro.hw.usb_board import UsbBoard
from repro.hw.usb_packet import CommandPacket
from repro.obs.runtime import get_runtime
from repro.sim.rig import RigConfig, SurgicalRig
from repro.sim.trace import RunTrace
from repro.sysmodel.linker import SharedLibrary, SystemEnvironment
from repro.teleop.network import UdpChannel


@dataclass
class LaneSpec:
    """Everything needed to construct one lane's :class:`SurgicalRig`.

    Mirrors the ``SurgicalRig`` constructor.  Guard, preload libraries and
    channel objects are stateful, so a spec must not be shared between a
    scalar and a batched run — build fresh objects per run (see
    :mod:`repro.testing.differential`).
    """

    config: RigConfig
    guard: Optional[Union[DetectorGuard, GuardSupervisor]] = None
    preload_libraries: Sequence[SharedLibrary] = ()
    trajectory: Optional[object] = None
    environment: Optional[SystemEnvironment] = None
    channel: Optional[UdpChannel] = None

    def build(self) -> SurgicalRig:
        """Construct the lane's rig."""
        return SurgicalRig(
            self.config,
            trajectory=self.trajectory,
            preload_libraries=self.preload_libraries,
            guard=self.guard,
            environment=self.environment,
            channel=self.channel,
        )


class _DeferredLatchBoard:
    """Defers a USB board's DAC latches until the batch sink has decided.

    ``UsbBoard.fd_write`` calls ``board._latch(values)`` as its final act;
    this shim captures those calls in order and replays them through the
    original ``_latch`` (which applies any ``dac_fault`` hook and latches
    onto the motor controller) at flush time.  The rig's lane pack can
    retroactively zero a pending entry when its deferred evaluation
    decides the packet is blocked — producing the same latch
    sequence, fault-hook call count and counters as the scalar path.
    """

    def __init__(self, board: UsbBoard) -> None:
        self.board = board
        self.pending: List[Sequence[float]] = []
        self._real_latch = board._latch
        board._latch = self.pending.append

    def next_index(self) -> int:
        return len(self.pending)

    def block(self, index: int) -> None:
        """Replace a pending latch with the blocked-command zero latch."""
        self.pending[index] = [0, 0, 0]
        self.board.packets_blocked += 1

    def flush(self) -> None:
        # Mutate in place: ``board._latch`` is bound to this exact list's
        # ``append``, so rebinding ``self.pending`` would orphan it.
        pending = self.pending[:]
        self.pending.clear()
        for values in pending:
            self._real_latch(values)

    def detach(self) -> None:
        self.flush()
        self.board._latch = self._real_latch


class _BatchGuardCoordinator(LanePack):
    """The lane pack of a :class:`BatchedSurgicalRig`'s guarded lanes.

    Its verdicts gate the lanes' deferred DAC latches: each capture
    records the index of the latch its packet queued, and a blocked
    packet's latch is zeroed before the rig flushes the boards.  Clear
    lanes fill the guard's forensic stash only when their rig has a
    flight recorder to read it.  ``finalize`` is the rig's batch step,
    named apart from the fleet's: ``perfbench/layers.py`` times each by
    name.
    """

    def __init__(self, rigs: Sequence[SurgicalRig]) -> None:
        super().__init__(
            [
                rig.guard.guard if isinstance(rig.guard, GuardSupervisor) else rig.guard
                for rig in rigs
            ]
        )
        self.boards = [_DeferredLatchBoard(rig.usb_board) for rig in rigs]
        self._latches: List[Deque[int]] = [deque() for _ in rigs]
        self._stash = [rig.flight is not None for rig in rigs]

    def capture(
        self, guard: DetectorGuard, packet: CommandPacket, mpos: Optional[np.ndarray]
    ) -> bool:
        lane = self.lane_of(guard)
        self._latches[lane].append(self.boards[lane].next_index())
        return super().capture(guard, packet, mpos)

    def finalize(self) -> None:
        """Decide this cycle's packets; zero the latches of blocked ones.

        A lane whose mitigation step raised fails the run, as it would
        the scalar rig.
        """
        decisions, faults = self.decide()
        if faults:
            raise faults[0][1]
        for lane, allowed, _, _ in decisions:
            index = self._latches[lane].popleft()
            if not allowed:
                self.boards[lane].block(index)


class BatchedSurgicalRig:
    """N surgical rigs advanced in lockstep by one batched step."""

    def __init__(self, specs: Sequence[LaneSpec]) -> None:
        if not specs:
            raise SimulationError("at least one lane spec is required")
        require_homogeneous([s.config.duration_s for s in specs], "duration_s")
        self.specs = list(specs)
        self.num_lanes = len(specs)
        self.rigs: List[SurgicalRig] = [spec.build() for spec in specs]

        for rig in self.rigs:
            guard = rig.guard
            if guard is not None and not isinstance(
                guard, (DetectorGuard, GuardSupervisor)
            ):
                raise SimulationError(
                    "batched execution supports DetectorGuard/GuardSupervisor "
                    f"lanes only, got {type(guard).__name__}"
                )

        # One batched plant over all lanes; each rig keeps a scalar-shaped
        # view so its PLC, motor controller and encoders are untouched.
        self.plant = BatchedPlant([rig.plant for rig in self.rigs])
        for i, rig in enumerate(self.rigs):
            view = self.plant.lane(i)
            rig.plant = view
            rig.motor_controller.plant = view
            rig.plc.plant = view

        # Deferred DAC latching + one lane pack over the guarded lanes
        # (inner guards for supervisor-wrapped lanes); run() detaches it.
        guarded = [rig for rig in self.rigs if rig.guard is not None]
        self.coordinator = _BatchGuardCoordinator(guarded) if guarded else None

    def run(self) -> List[RunTrace]:
        """Execute all lanes and return their traces, in lane order.

        Mirrors :meth:`SurgicalRig.run` per lane, phase by phase; the
        only reordering is the deferred guard evaluation within a cycle,
        which the control software cannot observe (see module docstring).
        """
        obs = get_runtime()
        configs = [rig.config for rig in self.rigs]
        traces: List[RunTrace] = []
        started = [False] * self.num_lanes

        for i, rig in enumerate(self.rigs):
            trace = RunTrace()
            trace.seed = configs[i].seed
            trace.label = configs[i].trajectory_name
            traces.append(trace)
            rig._now = 0.0

            def on_transition(
                old: RobotState,
                new: RobotState,
                rig: SurgicalRig = rig,
                trace: RunTrace = trace,
                lane: int = i,
            ) -> None:
                if new is RobotState.E_STOP and started[lane]:
                    reason = rig.controller.state_machine.last_estop_reason or ""
                    trace.estop_events.append((rig._now, reason))
                    obs.log_event(
                        "estop", t=rig._now, seed=rig.config.seed, reason=reason
                    )

            rig.controller.state_machine.add_listener(on_transition)

        steps = int(round(configs[0].duration_s / constants.CONTROL_PERIOD_S))
        run_span = (
            obs.tracer.span(
                "rig.batch_run",
                cat="sim",
                lanes=self.num_lanes,
                steps=steps,
            )
            if obs.enabled
            else nullcontext()
        )
        # Detach even on failure: a guard left bound to a pack that no
        # longer decides would allow every later packet unevaluated.
        try:
            with run_span:
                for k in range(steps):
                    now = k * constants.CONTROL_PERIOD_S

                    # Phase 1: per-lane frontend (console, network, control
                    # software).  Guarded lanes capture their packet with the
                    # lane pack instead of evaluating inline.
                    outs = []
                    for i, rig in enumerate(self.rigs):
                        rig._now = now
                        if not started[i] and now >= configs[i].start_button_s:
                            rig.controller.press_start(now)
                            started[i] = True
                        rig.socket.set_time(now)
                        if rig.phys_injector is not None:
                            rig.phys_injector.set_time(now)
                        rig.console.tick(now)
                        out = rig.controller.tick(now)
                        if not out.safety.safe:
                            traces[i].safety_trip_cycles.append(k)
                        outs.append(out)

                    # Phase 2: batched guard evaluation + deferred latch flush.
                    if self.coordinator is not None:
                        self.coordinator.finalize()
                        for board in self.coordinator.boards:
                            board.flush()

                    # Phase 3: per-lane housekeeping (watchdogs, PLC, E-STOP
                    # propagation) — same order as the scalar loop.
                    for i, rig in enumerate(self.rigs):
                        if rig.guard is not None:
                            rig.guard.tick_cycle(k)
                        rig.plc.tick()
                        if (
                            rig.plc.estop_latched
                            and rig.controller.state_machine.state
                            is not RobotState.E_STOP
                        ):
                            rig.controller.state_machine.emergency_stop(
                                now, reason=f"PLC: {rig.plc.estop_reason}"
                            )

                    # Phase 4: one batched plant step for all lanes.
                    dac_rows = np.zeros((self.num_lanes, 3))
                    for i, rig in enumerate(self.rigs):
                        mc = rig.motor_controller
                        if mc._powered:
                            dac_rows[i] = mc._latched_dac
                    self.plant.step(dac_rows)

                    # Phase 5: per-lane trace recording + flight recorder.
                    for i, rig in enumerate(self.rigs):
                        snapshot = self.plant.lane_state(i)
                        out = outs[i]
                        traces[i].record(
                            time=now,
                            state=out.state,
                            tip_pos=rig.arm.forward(snapshot.jpos),
                            pos_d=out.pos_d,
                            jpos=snapshot.jpos,
                            jvel=snapshot.jvel,
                            mpos=snapshot.mpos,
                            dac=out.dac,
                        )
                        if rig.flight is not None:
                            rig._flight_cycle(k, now, out, snapshot)
        finally:
            if self.coordinator is not None:
                self.coordinator.detach()

        for i, rig in enumerate(self.rigs):
            if rig.guard is not None:
                traces[i].detector_alert_cycles = [
                    e.cycle for e in rig.guard.stats.alert_events
                ]
                if rig.guard.stats.alerts > len(traces[i].detector_alert_cycles):
                    traces[i].detector_alert_cycles.extend(
                        [-1]
                        * (
                            rig.guard.stats.alerts
                            - len(traces[i].detector_alert_cycles)
                        )
                    )
        return traces
