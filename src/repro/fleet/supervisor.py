"""The fleet supervisor: fail-operational multiplexing of many sessions.

:class:`FleetSupervisor` drives N registered sessions through one
**lane pack** (:class:`repro.core.pipeline.LanePack`, the batch driver
:class:`repro.sim.batch.BatchedSurgicalRig` uses too): each session's
guard keeps its own statistics, mitigation chain and supervisor state
machine, but the numeric core (estimator sync/coast, one-step model
prediction, thresholds, fusion and decision window) runs once per round,
batched, so a lane's bytes are provably independent of who else is
packed with it.  Only lanes that alert run per-lane Python beyond their
counters.

Fail-operational guarantees:

- **lane fault isolation** — a session whose evaluation throws, whose
  checkpoint cannot be persisted, or whose stored state fails integrity
  is *quarantined*: its lane is ejected from the pack
  (:meth:`~repro.core.pipeline.LanePack.remove_lanes` — the survivors'
  rows keep their exact bytes) and its guard is escalated
  through the existing STALE -> PLC E-STOP machine; the supervisor and
  every other session keep running;
- **durable sessions** — guard state checkpoints into a
  :class:`repro.fleet.SessionStore` every ``checkpoint_every`` ticks; a
  killed session resumes from its newest verifiable snapshot and, fed the
  same frames, continues bit-identically (hash-chain digests match an
  uninterrupted run);
- **backpressure and staleness** — bounded ingest queues reject frames
  when full; sessions that stop receiving (or stop draining —
  ``slow_consumer`` chaos) walk the supervisor's coast/STALE/E-STOP
  path instead of stalling the fleet.

Chaos hooks (``session_kill`` / ``store_corrupt`` / ``slow_consumer``
faults from :class:`repro.testing.ChaosInjector`) are consulted at the
top of every tick, keyed on session id and tick, so fault campaigns are
deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.core.pipeline import LanePack
from repro.errors import FleetError, SessionStoreError, SnapshotIntegrityError
from repro.fleet.config import FleetConfig
from repro.fleet.session import FleetSession, SessionSpec, TelemetryFrame, _PendingDecision
from repro.fleet.store import (
    InMemorySessionStore,
    RetryingSessionStore,
    SessionSnapshot,
    SessionStore,
)
from repro.obs.export import write_jsonl
from repro.obs.runtime import get_runtime


class _SessionPack(LanePack):
    """The fleet's lane pack: its verdicts become decision records.

    A lane whose per-lane step throws comes back as a fault, and the
    supervisor quarantines its session.  ``finalize`` is the fleet's batch
    step, defined here (not inherited) so it has a name of its own apart
    from the rig's: ``perfbench/layers.py`` times each by name.
    """

    def finalize(
        self,
    ) -> Tuple[List[Tuple[int, bool, bool, bool]], List[Tuple[int, BaseException]]]:
        """``(decisions, faults)`` for every queued frame (see
        :meth:`LanePack.decide`)."""
        return self.decide()


@dataclass
class TickReport:
    """What one :meth:`FleetSupervisor.tick` did (driver feedback)."""

    tick: int
    frames_processed: int = 0
    quarantined: List[Tuple[str, str]] = field(default_factory=list)
    killed: List[Tuple[str, int]] = field(default_factory=list)
    checkpointed: List[str] = field(default_factory=list)
    #: ``(session_id, record)`` for every decision this tick produced, in
    #: chain order (unbounded, unlike each session's ``recent`` ring).
    decisions: List[Tuple[str, Dict[str, Any]]] = field(default_factory=list)


class FleetSupervisor:
    """Multiplexes N rig sessions over one batched detector runtime."""

    def __init__(
        self,
        store: Optional[SessionStore] = None,
        config: Optional[FleetConfig] = None,
        injector=None,
    ) -> None:
        self.config = config or FleetConfig.from_env()
        backend = store if store is not None else InMemorySessionStore()
        self.store: SessionStore = RetryingSessionStore(
            backend,
            retries=self.config.store_retries,
            backoff_s=self.config.store_backoff_s,
        )
        self.injector = injector
        self.sessions: Dict[str, FleetSession] = {}
        self._order: List[str] = []  # registration order (determinism)
        self._pack: Optional[_SessionPack] = None
        #: A registration since the pack was built: rebuild on next use.
        self._pack_stale = False
        self.tick_count = 0
        self.sessions_killed = 0
        self.stores_corrupted = 0
        self._obs = get_runtime()
        if self._obs.enabled:
            registry = self._obs.registry
            self._g_active = registry.gauge(
                "repro_fleet_active_sessions", "registered, non-quarantined sessions"
            )
            self._g_quarantined = registry.gauge(
                "repro_fleet_quarantined_sessions", "sessions ejected from the pack"
            )
            self._c_frames = registry.counter(
                "repro_fleet_frames_total", "telemetry frames processed"
            )
            self._c_rejected = registry.counter(
                "repro_fleet_backpressure_total", "frames rejected by full queues"
            )
        else:
            self._g_active = None
            self._g_quarantined = None
            self._c_frames = None
            self._c_rejected = None
        self._tenant_counters: Dict[str, Any] = {}

    # -- roster ------------------------------------------------------------------

    @property
    def active(self) -> List[FleetSession]:
        """Non-quarantined sessions, in registration order."""
        return [
            self.sessions[sid]
            for sid in self._order
            if not self.sessions[sid].quarantined
        ]

    def register(self, spec: SessionSpec) -> FleetSession:
        """Add a session to the fleet.

        The lane pack is rebuilt once, on its next use, not once per
        registration: registering N sessions loads N lanes, not N²/2.
        """
        if spec.session_id in self.sessions:
            raise FleetError(f"session {spec.session_id!r} already registered")
        if len(self.sessions) >= self.config.max_sessions:
            raise FleetError(
                f"fleet is full ({self.config.max_sessions} sessions)"
            )
        session = FleetSession(spec, self.config)
        # Refused before it joins the roster, so a spec the pack cannot
        # batch never stops the pack from building for the others.
        active = self.active
        if active:
            reason = LanePack.mismatch(
                session.supervisor.guard, active[0].supervisor.guard
            )
            if reason is not None:
                raise FleetError(
                    f"session {spec.session_id!r} cannot join the lane pack: {reason}"
                )
        self.sessions[spec.session_id] = session
        self._order.append(spec.session_id)
        self._pack_stale = True
        self._update_gauges()
        return session

    def resume(self, spec: SessionSpec) -> FleetSession:
        """Register a session and restore it from its stored checkpoint.

        Loads the newest *verifiable* snapshot (older versions are the
        fallback when the newest is corrupt).  Raises
        :class:`SnapshotIntegrityError` when snapshots exist but none
        verifies, and :class:`FleetError` when the store holds nothing.
        """
        snapshot = self.store.load(spec.session_id)
        if snapshot is None:
            raise FleetError(
                f"session {spec.session_id!r} has no stored checkpoint"
            )
        # The lane loads from the restored state when the pack (stale
        # since register) is rebuilt on its next use.
        session = self.register(spec)
        try:
            session.restore_payload(snapshot.payload)
            session.checkpoint_version = snapshot.version
            session.last_checkpoint_tick = snapshot.payload.get("tick")
        except Exception:
            self._quarantine([spec.session_id], "restore failed")
            raise
        return session

    def _ensure_pack(self) -> None:
        """Rebuild the batched pack over the active sessions if a
        registration made it stale.

        Live lane state is written back into the scalar estimators and
        detectors first, so re-packing is state-preserving (the snapshot
        round-trip is bit-exact; see ``tests/test_guard_snapshot.py``).
        """
        if not self._pack_stale:
            return
        if self._pack is not None:
            self._pack.detach()
            self._pack = None
        guards = [s.supervisor.guard for s in self.active]
        if guards:
            self._pack = _SessionPack(guards)
        self._pack_stale = False

    # -- ingest ------------------------------------------------------------------

    def ingest(self, session_id: str, frame: TelemetryFrame) -> bool:
        """Offer one telemetry frame; ``False`` signals backpressure
        (or a quarantined session, which no longer accepts frames)."""
        session = self.sessions.get(session_id)
        if session is None:
            raise FleetError(f"unknown session {session_id!r}")
        if session.quarantined:
            return False
        accepted = session.offer(frame)
        if not accepted and self._c_rejected is not None:
            self._c_rejected.inc()
        return accepted

    # -- the tick ----------------------------------------------------------------

    def tick(self, tick: Optional[int] = None) -> TickReport:
        """Advance the fleet one tick: chaos, watchdogs, drain, decide,
        quarantine, checkpoint."""
        if tick is None:
            tick = self.tick_count
        self.tick_count = tick + 1
        report = TickReport(tick=tick)

        self._apply_chaos(tick, report)
        self._ensure_pack()

        # Watchdogs + drain (registration order, deterministic).
        for session in self.active:
            session.supervisor.tick_cycle(tick)
            if session.stalled(tick):
                continue
            while session.queue:
                frame = session.queue.popleft()
                self._process_frame(session, frame, report)
                report.frames_processed += 1

        # Batched evaluation + per-lane verdict dispatch.
        faulted: List[Tuple[str, str]] = []
        if self._pack is not None:
            decisions, faults = self._pack.finalize()
            lanes = self.active
            for lane, allowed, evaluated, alert in decisions:
                session = lanes[lane]
                pending = session.pending.popleft()
                record = session.record_decision(
                    pending.tick,
                    pending.frame,
                    allowed,
                    evaluated,
                    alert,
                    health=pending.health,
                )
                report.decisions.append((session.session_id, record))
            for lane, exc in faults:
                session = lanes[lane]
                session.pending.clear()
                faulted.append(
                    (
                        session.session_id,
                        f"evaluation raised {type(exc).__name__}: {exc}",
                    )
                )
        for sid, reason in faulted:
            self._quarantine([sid], reason, tick=tick)
            report.quarantined.append((sid, reason))

        self._checkpoint_due(tick, report)
        self._update_gauges()
        return report

    def _process_frame(
        self, session: FleetSession, frame: TelemetryFrame, report: TickReport
    ) -> None:
        """Run one frame through the session's supervisor.

        Decisions that defer into the pack are recorded after finalize;
        immediate verdicts (E-STOPPED fast path, coast-cap escalation)
        are recorded on the spot.
        """
        session.last_frame = frame
        pack = self._pack
        lane = pack.lane_of(session.supervisor.guard)
        before = pack.pending_captures(lane)
        allowed = session.supervisor.process(frame.to_packet(), frame.mpos_array())
        session.frames_processed += 1
        if self._c_frames is not None:
            self._c_frames.inc()
            self._tenant_counter(session.session_id).inc()
        # Decisions are recorded against the *frame's* tick, not the fleet
        # tick, so a resumed session replaying old frames at later fleet
        # ticks still reproduces the uninterrupted run's exact chain.
        if pack.pending_captures(lane) > before:
            session.pending.append(
                _PendingDecision(
                    tick=frame.tick, frame=frame, health=session.health
                )
            )
        else:
            record = session.record_decision(
                frame.tick, frame, allowed, evaluated=False, alert=False
            )
            report.decisions.append((session.session_id, record))

    # -- chaos -------------------------------------------------------------------

    def _apply_chaos(self, tick: int, report: TickReport) -> None:
        if self.injector is None or not self.injector.wants_fleet_faults:
            return
        for session in list(self.active):
            spec = self.injector.fleet_fault(session.session_id, tick)
            if spec is None:
                continue
            if spec.kind == "slow_consumer":
                session.stalled_until_tick = tick + max(1, int(spec.hang_s))
                self._obs.log_event(
                    "fleet_slow_consumer",
                    session=session.session_id,
                    tick=tick,
                    until=session.stalled_until_tick,
                )
            elif spec.kind == "store_corrupt":
                if self.store.corrupt_latest(session.session_id):
                    self.stores_corrupted += 1
                    self._obs.log_event(
                        "fleet_store_corrupt",
                        session=session.session_id,
                        tick=tick,
                    )
            elif spec.kind == "session_kill":
                self._kill_and_resume(session, tick, report)

    def _kill_and_resume(
        self, session: FleetSession, tick: int, report: TickReport
    ) -> None:
        """``session_kill`` chaos: drop the runtime, resume from the store.

        Everything since the last checkpoint is lost — including queued
        frames — exactly like a killed worker process.  The session either
        resumes from its newest verifiable snapshot (the driver replays
        frames from ``frames_processed``) or, with no usable checkpoint,
        is quarantined.
        """
        sid = session.session_id
        self.sessions_killed += 1
        self._obs.log_event("fleet_session_kill", session=sid, tick=tick)
        spec = session.spec
        # Drop the in-memory runtime.
        self._quarantine([sid], reason=None, tick=None)
        del self.sessions[sid]
        self._order.remove(sid)
        try:
            resumed = self.resume(spec)
        except (FleetError, SessionStoreError) as exc:
            # No (usable) checkpoint: the session is gone; register a
            # quarantined tombstone so its loss is visible, not silent.
            tombstone = FleetSession(spec, self.config)
            tombstone.quarantined = True
            tombstone.quarantine_reason = f"killed, not resumable: {exc}"
            tombstone.supervisor._escalate_stale(
                f"fleet: session killed and not resumable ({exc})"
            )
            self.sessions[sid] = tombstone
            self._order.append(sid)
            report.quarantined.append((sid, tombstone.quarantine_reason))
            return
        report.killed.append((sid, resumed.frames_processed))

    # -- quarantine --------------------------------------------------------------

    def quarantine(self, session_id: str, reason: str) -> None:
        """Eject one session from the pack and escalate its guard."""
        self._quarantine([session_id], reason, tick=self.tick_count)

    def _quarantine(
        self,
        session_ids: List[str],
        reason: Optional[str],
        tick: Optional[int] = None,
    ) -> None:
        """Remove lanes from the pack; survivors are untouched.

        ``reason=None`` means a silent ejection (session_kill teardown);
        otherwise the session's own guard walks STALE -> E-STOP and the
        event is logged + flight-dumped.
        """
        self._ensure_pack()
        active = self.active
        lanes = [
            i for i, s in enumerate(active) if s.session_id in set(session_ids)
        ]
        if self._pack is not None and lanes:
            if len(lanes) == self._pack.num_lanes:
                self._pack.detach()
                self._pack = None
            else:
                self._pack.remove_lanes(lanes)
        for sid in session_ids:
            session = self.sessions[sid]
            session.quarantined = True
            if reason is None:
                continue
            session.quarantine_reason = reason
            session.supervisor._escalate_stale(f"fleet quarantine: {reason}")
            self._obs.log_event(
                "fleet_quarantine", session=sid, tick=tick, reason=reason
            )
            self._dump_quarantine(session, tick if tick is not None else -1, reason)
        self._update_gauges()

    def _dump_quarantine(
        self, session: FleetSession, tick: int, reason: str
    ) -> None:
        """Flight-recorder dump of the session's recent decisions."""
        path = self._obs.flight_dump_path(
            label=f"fleet-{session.session_id}",
            seed=0,
            cycle=tick,
            reason="quarantine",
        )
        if path is None:
            return
        records: List[dict] = [
            {
                "session": session.session_id,
                "tick": tick,
                "reason": reason,
                "health": session.health,
                "digest": session.digest,
            }
        ]
        records.extend(session.recent)
        write_jsonl(path, records)

    # -- checkpoints -------------------------------------------------------------

    def _checkpoint_due(self, tick: int, report: TickReport) -> None:
        for session in self.active:
            last = session.last_checkpoint_tick
            if last is not None and tick - last < self.config.checkpoint_every:
                continue
            try:
                self.checkpoint(session.session_id, tick)
            except SessionStoreError as exc:
                reason = f"checkpoint failed: {exc}"
                self._quarantine([session.session_id], reason, tick=tick)
                report.quarantined.append((session.session_id, reason))
            else:
                report.checkpointed.append(session.session_id)

    def drain(self, tick: Optional[int] = None) -> List[str]:
        """Checkpoint every live session, now (clean-shutdown flush).

        Cadence-based checkpointing (:meth:`_checkpoint_due`) can leave up
        to ``checkpoint_every`` ticks of decisions unpersisted, so a clean
        SIGTERM that only relied on it would still lose frames.  Shutdown
        paths (service workers, campaign teardown) call this to flush every
        active session at ``tick`` (default: the last completed tick).

        Sessions already checkpointed at that exact tick are skipped (their
        stored state is current); a session whose store write fails is
        quarantined — consistent with the cadence path — and the remaining
        sessions still drain.  Returns the drained session ids in
        registration order.
        """
        if tick is None:
            tick = max(0, self.tick_count - 1)
        drained: List[str] = []
        for session in self.active:
            if session.last_checkpoint_tick == tick:
                drained.append(session.session_id)
                continue
            try:
                self.checkpoint(session.session_id, tick)
            except SessionStoreError as exc:
                self._quarantine(
                    [session.session_id], f"drain checkpoint failed: {exc}",
                    tick=tick,
                )
            else:
                drained.append(session.session_id)
        self._obs.log_event("fleet_drain", tick=tick, sessions=drained)
        return drained

    def checkpoint(self, session_id: str, tick: int) -> SessionSnapshot:
        """Write one session's current state to the store, now."""
        self._ensure_pack()
        session = self.sessions[session_id]
        if self._pack is not None and not session.quarantined:
            self._pack.writeback(self._pack.lane_of(session.supervisor.guard))
        session.checkpoint_version += 1
        snapshot = SessionSnapshot.create(
            session_id=session_id,
            version=session.checkpoint_version,
            payload=session.snapshot_payload(tick),
        )
        self.store.save(snapshot)
        session.last_checkpoint_tick = tick
        return snapshot

    # -- reporting ---------------------------------------------------------------

    def fingerprints(self) -> Dict[str, Dict[str, Any]]:
        """Per-session identity of everything that happened (sorted)."""
        return {
            sid: self.sessions[sid].fingerprint() for sid in sorted(self._order)
        }

    def _tenant_counter(self, session_id: str):
        counter = self._tenant_counters.get(session_id)
        if counter is None:
            slug = "".join(
                ch if (ch.isalnum() or ch == "_") else "_" for ch in session_id
            )
            counter = self._obs.registry.counter(
                f"repro_fleet_frames_total_{slug}",
                f"frames processed for session {session_id}",
            )
            self._tenant_counters[session_id] = counter
        return counter

    def _update_gauges(self) -> None:
        if self._g_active is None:
            return
        quarantined = sum(1 for s in self.sessions.values() if s.quarantined)
        self._g_active.set(len(self.sessions) - quarantined)
        self._g_quarantined.set(quarantined)
