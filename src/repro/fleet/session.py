"""One tenant of the fleet supervisor: a rig session and its guard state.

A :class:`FleetSession` hosts the per-session half of detection as a
service: a scalar :class:`repro.core.GuardSupervisor` (plausibility
screen, coasting, staleness watchdog) attached to a :class:`SessionBoard`
— a minimal virtual USB board whose PLC latches E-STOP decisions for the
remote rig instead of driving motors.  Telemetry arrives as
:class:`TelemetryFrame` objects through a **bounded ingest queue**
(``REPRO_FLEET_QUEUE_DEPTH``); a full queue rejects the frame, which the
caller observes as backpressure, rather than silently shedding the oldest
telemetry.

Every decision the guard makes extends an order-sensitive SHA-256 **hash
chain** (``digest = H(prev_digest || canonical_record)``), so two runs
agree on their entire decision history iff their final digests match —
and the chain resumes from a checkpoint, which is what lets a killed and
restored session prove bit-identical continuation.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from hashlib import sha256
from json.encoder import encode_basestring_ascii
from typing import Any, Deque, Dict, Optional, Tuple

import numpy as np

from repro.control.state_machine import RobotState
from repro.core.detector import AnomalyDetector, FusionRule
from repro.core.dynamic_model import RavenDynamicModel
from repro.core.estimator import NextStateEstimator
from repro.core.mitigation import MitigationStrategy
from repro.core.pipeline import DetectorGuard, GuardSupervisor, SupervisorConfig
from repro.core.thresholds import SafetyThresholds
from repro.fleet.config import FleetConfig
from repro.hw.usb_packet import CommandPacket, check_dac_values, command_packet

#: Schema version of fleet session checkpoints.  v2 added
#: ``frames_ingested``; v1 payloads still restore (the counter is
#: reconstructed as ``frames_processed``, consistent with the cleared
#: queue a resume starts from).
SESSION_SNAPSHOT_VERSION = 2

#: How many recent decision records a session retains for the
#: quarantine flight dump (bounded — sessions are long-lived).
RECENT_DECISIONS = 64


@dataclass(frozen=True)
class TelemetryFrame:
    """One telemetry sample from a remote rig.

    ``dac`` is the commanded DAC triple the rig's control software
    emitted; ``mpos`` is the accompanying motor-shaft measurement
    (radians), or ``None`` when the frame carried no measurement.

    A DAC that no command packet can carry (a value outside int16) is
    rejected here, with :class:`~repro.errors.PacketError`, so a
    malformed frame never reaches a fleet tick.  The frame stores its DACs
    as ``int`` and its pedal as ``bool``, the types the decision chain's
    canonical record encodes.
    """

    tick: int
    dac: Tuple[int, int, int]
    pedal_down: bool = True
    mpos: Optional[Tuple[float, float, float]] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "dac", tuple(check_dac_values(self.dac)))
        object.__setattr__(self, "pedal_down", bool(self.pedal_down))

    def to_packet(self) -> CommandPacket:
        """The equivalent on-wire command packet (canonical encoding)."""
        state = RobotState.PEDAL_DOWN if self.pedal_down else RobotState.PEDAL_UP
        return command_packet(state, True, self.dac)

    def mpos_array(self) -> Optional[np.ndarray]:
        if self.mpos is None:
            return None
        return np.asarray(self.mpos, dtype=float)


class SessionPlc:
    """E-STOP latch for a remote rig (the fleet's PLC stand-in).

    The guard's mitigation chain calls :meth:`trigger_estop` exactly like
    the hardware PLC's; here the latch is the decision the service
    reports back to the rig, not a brake line.
    """

    def __init__(self) -> None:
        self.estop_latched = False
        self.estop_reason: Optional[str] = None

    def trigger_estop(self, reason: str) -> None:
        if self.estop_latched:
            return
        self.estop_latched = True
        self.estop_reason = reason


class SessionBoard:
    """Minimal virtual USB board a guard can attach to.

    Provides exactly the surface the guard touches on the fleet path:
    the ``plc`` (E-STOP escalation) and the ``guard`` attachment slot.
    Measurements never come from this board — they arrive in telemetry
    frames through :meth:`repro.core.GuardSupervisor.process`.
    """

    def __init__(self) -> None:
        self.plc = SessionPlc()
        self.guard = None


@dataclass(frozen=True)
class SessionSpec:
    """Configuration of one fleet session (config, not state).

    Resume rebuilds the session from the *same spec*, then restores the
    checkpointed state into it — mirroring how
    :meth:`repro.core.GuardSupervisor.restore` refuses snapshots taken
    under a different :class:`SupervisorConfig`.
    """

    session_id: str
    thresholds: SafetyThresholds
    strategy: MitigationStrategy = MitigationStrategy.BLOCK
    fusion: FusionRule = FusionRule.ALL
    decision_window: Optional[Tuple[int, int]] = None
    parameter_error: float = 1.03
    integrator: str = "euler"
    supervisor: Optional[SupervisorConfig] = None

    def supervisor_config(self, fleet: FleetConfig) -> SupervisorConfig:
        """The session's supervisor config (fleet defaults unless set)."""
        if self.supervisor is not None:
            return self.supervisor
        return SupervisorConfig(
            max_coast_cycles=fleet.max_coast_ticks,
            staleness_timeout_cycles=fleet.stale_after_ticks,
        )

    def build_supervisor(self, fleet: FleetConfig) -> GuardSupervisor:
        """A pristine supervised guard for this session."""
        model = RavenDynamicModel(
            integrator=self.integrator, parameter_error=self.parameter_error
        )
        guard = DetectorGuard(
            estimator=NextStateEstimator(model),
            detector=AnomalyDetector(
                thresholds=self.thresholds,
                fusion=self.fusion,
                decision_window=self.decision_window,
            ),
            strategy=self.strategy,
        )
        return GuardSupervisor(guard, self.supervisor_config(fleet))


_JSON_BOOL = ("false", "true")


def _chain_digest(prev_hex: str, encoded: str) -> str:
    """One link of the decision hash chain."""
    return sha256((prev_hex + encoded).encode("utf-8")).hexdigest()


@dataclass
class _PendingDecision:
    """A frame whose verdict arrives from the batched finalize pass.

    ``health`` is the session's health the moment the frame was processed
    — recorded here because by dispatch time a later frame in the same
    drain burst may already have moved the health machine on.
    """

    tick: int
    frame: TelemetryFrame
    health: str


class FleetSession:
    """One registered session: supervised guard + ingest queue + chain."""

    def __init__(self, spec: SessionSpec, fleet: FleetConfig) -> None:
        self.spec = spec
        self.fleet = fleet
        self.supervisor = spec.build_supervisor(fleet)
        self.board = SessionBoard()
        self.supervisor.attach(self.board)
        self.queue: Deque[TelemetryFrame] = deque()
        self.pending: Deque[_PendingDecision] = deque()
        self.recent: Deque[Dict[str, Any]] = deque(maxlen=RECENT_DECISIONS)
        # The chain's genesis is the session id, so two sessions with
        # identical decision histories still have distinct digests.
        self.digest = sha256(spec.session_id.encode("utf-8")).hexdigest()
        self.frames_ingested = 0
        self.frames_rejected = 0
        self.frames_processed = 0
        self.decisions = 0
        self.checkpoint_version = 0  # repro: allow[RPR006] store-managed, set by FleetSupervisor.checkpoint/resume
        self.last_checkpoint_tick: Optional[int] = None  # repro: allow[RPR006] store-managed, set by FleetSupervisor.checkpoint/resume
        self.last_frame: Optional[TelemetryFrame] = None
        self.quarantined = False
        self.quarantine_reason: Optional[str] = None
        #: ``slow_consumer`` chaos: ticks before which drain() is a no-op.
        self.stalled_until_tick = -1

    @property
    def session_id(self) -> str:
        return self.spec.session_id

    @property
    def health(self) -> str:
        return self.supervisor.stats.health.value

    # -- ingest (bounded queue, explicit backpressure) ---------------------------

    def offer(self, frame: TelemetryFrame) -> bool:
        """Enqueue one frame; ``False`` (backpressure) when full."""
        if len(self.queue) >= self.fleet.queue_depth:
            self.frames_rejected += 1
            return False
        self.queue.append(frame)
        self.frames_ingested += 1
        return True

    def stalled(self, tick: int) -> bool:
        return tick < self.stalled_until_tick

    # -- decision chain ----------------------------------------------------------

    def record_decision(
        self,
        tick: int,
        frame: TelemetryFrame,
        allowed: bool,
        evaluated: bool,
        alert: bool,
        health: Optional[str] = None,
    ) -> Dict[str, Any]:
        """Chain one decision; returns its record."""
        if health is None:
            health = self.health
        dac = list(frame.dac)
        had_mpos = frame.mpos is not None
        record = {
            "tick": tick,
            "dac": dac,
            "pedal_down": frame.pedal_down,
            "had_mpos": had_mpos,
            "allowed": allowed,
            "evaluated": evaluated,
            "alert": alert,
            "health": health,
        }
        # The chain's canonical record: the bytes of
        # ``json.dumps(record, sort_keys=True, separators=(",", ":"))``, built
        # directly (the frame holds int DACs and a bool pedal; the verdict
        # flags are bools).
        encoded = (
            f'{{"alert":{_JSON_BOOL[alert]},"allowed":{_JSON_BOOL[allowed]},'
            f'"dac":[{",".join(map(str, dac))}],'
            f'"evaluated":{_JSON_BOOL[evaluated]},'
            f'"had_mpos":{_JSON_BOOL[had_mpos]},'
            f'"health":{encode_basestring_ascii(health)},'
            f'"pedal_down":{_JSON_BOOL[frame.pedal_down]},"tick":{tick}}}'
        )
        self.digest = _chain_digest(self.digest, encoded)
        self.decisions += 1
        self.recent.append(record)
        return record

    def fingerprint(self) -> Dict[str, Any]:
        """Comparable identity of this session's entire history."""
        return {
            "digest": self.digest,
            "decisions": self.decisions,
            "frames_processed": self.frames_processed,
            "frames_rejected": self.frames_rejected,
            "health": self.health,
            "estopped": self.board.plc.estop_latched,
            "stats": self.supervisor.stats.summary(),
        }

    # -- durable state -----------------------------------------------------------

    def snapshot_payload(self, tick: int) -> Dict[str, Any]:
        """The checkpoint payload (guard state + fleet-layer counters).

        The caller must have written the session's batched-lane estimator
        state back into the scalar estimator first (see
        ``_SessionPack.writeback``); queued-but-unprocessed frames are
        deliberately *not* checkpointed — on resume the feed replays from
        ``frames_processed``.
        """
        return {
            "version": SESSION_SNAPSHOT_VERSION,
            "session_id": self.session_id,
            "tick": tick,
            "supervisor": self.supervisor.snapshot(),
            "digest": self.digest,
            "decisions": self.decisions,
            "frames_ingested": self.frames_ingested,
            "frames_processed": self.frames_processed,
            "frames_rejected": self.frames_rejected,
            "estop_latched": self.board.plc.estop_latched,
            "estop_reason": self.board.plc.estop_reason,
        }

    def restore_payload(self, payload: Dict[str, Any]) -> None:
        """Resume from a checkpoint payload (inverse of the above)."""
        if payload["version"] not in (1, SESSION_SNAPSHOT_VERSION):
            raise ValueError(
                f"session snapshot version {payload['version']} != "
                f"supported {SESSION_SNAPSHOT_VERSION}"
            )
        if payload["session_id"] != self.session_id:
            raise ValueError(
                f"snapshot belongs to {payload['session_id']!r}, "
                f"not {self.session_id!r}"
            )
        self.supervisor.restore(payload["supervisor"])
        self.digest = payload["digest"]
        self.decisions = payload["decisions"]
        # v1 checkpoints predate the ingest counter; a resume starts from
        # an empty queue, so every ingested frame was a processed one.
        self.frames_ingested = payload.get(
            "frames_ingested", payload["frames_processed"]
        )
        self.frames_processed = payload["frames_processed"]
        self.frames_rejected = payload["frames_rejected"]
        self.board.plc.estop_latched = payload["estop_latched"]
        self.board.plc.estop_reason = payload["estop_reason"]
        self.queue.clear()
        self.pending.clear()
        self.recent.clear()
        # Transient per-run state restarts clean: nothing below survives
        # the process that wrote the checkpoint.
        self.last_frame = None
        self.quarantined = False
        self.quarantine_reason = None
        self.stalled_until_tick = -1
