"""Fleet supervisor: durable sessions, quarantine, backpressure, chaos.

The fail-operational contract under test:

- session state round-trips through both :class:`SessionStore` backends
  and survives corruption (fallback to the previous version);
- a killed session resumes *bit-identically* — its decision hash chain
  converges to the digest of an uninterrupted run;
- quarantining a faulty lane leaves every healthy lane's fingerprint
  byte-identical to a no-fault run (the differential proof that lane
  removal is non-disruptive);
- bounded queues reject frames instead of silently shedding, and silent
  sessions walk the coast -> STALE -> PLC E-STOP machine.
"""

from __future__ import annotations

from hashlib import sha256
from json import dumps

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.detector import FusionRule
from repro.core.mitigation import MitigationStrategy
from repro.core.thresholds import SafetyThresholds
from repro.errors import (
    FleetError,
    PacketError,
    SessionStoreError,
    SnapshotIntegrityError,
)
from repro.experiments.fleet import (
    NOMINAL_THRESHOLDS,
    frame_for,
    frames_from_trace,
    run_fleet_campaign,
    session_id,
)
from repro.fleet import (
    FleetConfig,
    FleetSession,
    FleetSupervisor,
    InMemorySessionStore,
    RetryingSessionStore,
    SessionSnapshot,
    SessionSpec,
    SqliteSessionStore,
    TelemetryFrame,
)
from repro.obs.runtime import ENV_DIR, ENV_ENABLE, get_runtime, reset_runtime
from repro.testing import ChaosInjector, FaultPlan, FaultSpec

pytestmark = [pytest.mark.fleet, pytest.mark.robustness]

THRESHOLDS = SafetyThresholds(
    motor_velocity=np.array([50.0, 50.0, 50.0]),
    motor_acceleration=np.array([50000.0, 50000.0, 50000.0]),
    joint_velocity=np.array([5.0, 5.0, 5.0]),
)


def spec(sid: str, **kwargs) -> SessionSpec:
    return SessionSpec(session_id=sid, thresholds=THRESHOLDS, **kwargs)


def nominal_frame(tick: int) -> TelemetryFrame:
    return TelemetryFrame(tick=tick, dac=(100, 100, 100), mpos=(0.0, 0.0, 0.0))


def payload(sid: str = "s", tick: int = 0) -> dict:
    return {"session_id": sid, "tick": tick, "data": [1.5, -2.25]}


@pytest.fixture(params=["memory", "sqlite"])
def store(request, tmp_path):
    if request.param == "memory":
        return InMemorySessionStore()
    return SqliteSessionStore(tmp_path / "fleet.sqlite")


class TestSessionStore:
    def test_round_trip_preserves_payload_exactly(self, store):
        snap = SessionSnapshot.create("s", 1, payload())
        store.save(snap)
        loaded = store.load("s")
        assert loaded.payload == snap.payload
        assert loaded.version == 1
        assert loaded.checksum == snap.checksum

    def test_load_returns_newest_version(self, store):
        store.save(SessionSnapshot.create("s", 1, payload(tick=1)))
        store.save(SessionSnapshot.create("s", 2, payload(tick=2)))
        assert store.load("s").payload["tick"] == 2

    def test_duplicate_version_rejected(self, store):
        store.save(SessionSnapshot.create("s", 1, payload()))
        with pytest.raises(SessionStoreError, match="already has"):
            store.save(SessionSnapshot.create("s", 1, payload()))

    def test_unknown_session_loads_none(self, store):
        assert store.load("ghost") is None

    def test_corruption_falls_back_to_previous_version(self, store):
        store.save(SessionSnapshot.create("s", 1, payload(tick=1)))
        store.save(SessionSnapshot.create("s", 2, payload(tick=2)))
        assert store.corrupt_latest("s")
        loaded = store.load("s")
        assert loaded.version == 1
        assert loaded.payload["tick"] == 1

    def test_all_versions_corrupt_is_an_integrity_error(self, store):
        store.save(SessionSnapshot.create("s", 1, payload()))
        assert store.corrupt_latest("s")
        with pytest.raises(SnapshotIntegrityError, match="all 1 stored"):
            store.load("s")

    def test_sessions_and_delete(self, store):
        store.save(SessionSnapshot.create("a", 1, payload("a")))
        store.save(SessionSnapshot.create("b", 1, payload("b")))
        assert store.session_ids() == ["a", "b"]
        store.delete("a")
        assert store.session_ids() == ["b"]
        assert store.versions("a") == []


class _FlakyStore(InMemorySessionStore):
    """Fails the first ``failures`` save calls with a transient error."""

    def __init__(self, failures: int) -> None:
        super().__init__()
        self.failures = failures
        self.attempts = 0

    def save(self, snapshot: SessionSnapshot) -> None:
        self.attempts += 1
        if self.attempts <= self.failures:
            raise OSError("disk hiccup")
        super().save(snapshot)


class TestRetryingStore:
    def test_transient_failures_are_retried(self):
        flaky = _FlakyStore(failures=2)
        retrying = RetryingSessionStore(flaky, retries=2, backoff_s=0.0)
        retrying.save(SessionSnapshot.create("s", 1, payload()))
        assert flaky.attempts == 3
        assert retrying.load("s").version == 1

    def test_exhausted_retries_surface_as_store_error(self):
        flaky = _FlakyStore(failures=5)
        retrying = RetryingSessionStore(flaky, retries=2, backoff_s=0.0)
        with pytest.raises(SessionStoreError, match="after 3 attempt"):
            retrying.save(SessionSnapshot.create("s", 1, payload()))

    def test_integrity_errors_are_not_retried(self):
        backend = InMemorySessionStore()
        backend.save(SessionSnapshot.create("s", 1, payload()))
        backend.corrupt_latest("s")
        retrying = RetryingSessionStore(backend, retries=5, backoff_s=0.0)
        with pytest.raises(SnapshotIntegrityError):
            retrying.load("s")


class TestBackpressure:
    def test_full_queue_rejects_frames(self):
        fleet = FleetSupervisor(config=FleetConfig(queue_depth=2))
        fleet.register(spec("s"))
        assert fleet.ingest("s", nominal_frame(0))
        assert fleet.ingest("s", nominal_frame(1))
        assert not fleet.ingest("s", nominal_frame(2))
        assert fleet.sessions["s"].frames_rejected == 1
        # Draining makes room again.
        fleet.tick(0)
        assert fleet.ingest("s", nominal_frame(3))

    def test_quarantined_session_rejects_frames(self):
        fleet = FleetSupervisor(config=FleetConfig())
        fleet.register(spec("a"))
        fleet.register(spec("b"))
        fleet.quarantine("a", "test")
        assert not fleet.ingest("a", nominal_frame(0))
        assert fleet.ingest("b", nominal_frame(0))

    def test_unknown_session_raises(self):
        fleet = FleetSupervisor(config=FleetConfig())
        with pytest.raises(FleetError, match="unknown session"):
            fleet.ingest("ghost", nominal_frame(0))

    def test_tick_report_carries_every_record_past_the_recent_ring(self):
        fleet = FleetSupervisor(config=FleetConfig(queue_depth=100))
        fleet.register(spec("s"))
        fleet.register(spec("t"))
        for tick in range(100):
            assert fleet.ingest("s", nominal_frame(tick))
        assert fleet.ingest("t", nominal_frame(0))
        report = fleet.tick(0)
        session = fleet.sessions["s"]
        assert report.frames_processed == 101
        assert session.decisions == 100
        assert len(session.recent) < 100  # the bounded flight-dump ring
        records = [record for sid, record in report.decisions if sid == "s"]
        assert [r["tick"] for r in records] == list(range(100))
        assert records[-len(session.recent):] == list(session.recent)
        assert [sid for sid, _ in report.decisions].count("t") == 1
        assert fleet.tick(1).decisions == []

    def test_registration_cap(self):
        fleet = FleetSupervisor(config=FleetConfig(max_sessions=1))
        fleet.register(spec("a"))
        with pytest.raises(FleetError, match="fleet is full"):
            fleet.register(spec("b"))


class TestStalenessWatchdog:
    def test_silent_session_walks_to_estop(self):
        cfg = FleetConfig(stale_after_ticks=5)
        fleet = FleetSupervisor(config=cfg)
        fleet.register(spec("s"))
        fleet.ingest("s", nominal_frame(0))
        fleet.tick(0)
        assert fleet.sessions["s"].health == "nominal"
        # Telemetry goes silent; the watchdog escalates past the timeout.
        for tick in range(1, 8):
            fleet.tick(tick)
        session = fleet.sessions["s"]
        assert session.health == "estopped"
        assert session.board.plc.estop_latched
        assert "stale" in session.board.plc.estop_reason

    def test_slow_consumer_defers_but_preserves_decisions(self):
        base = run_fleet_campaign(num_sessions=2, ticks=40, seed=7)
        plan = FaultPlan(
            specs=[FaultSpec(kind="slow_consumer", match="rig-001", index=10, hang_s=8)]
        )
        slow = run_fleet_campaign(
            num_sessions=2, ticks=40, seed=7, injector=ChaosInjector(plan)
        )
        # The stalled session drains late but in order: identical chain.
        assert slow.fingerprints == base.fingerprints


class TestQuarantineDifferential:
    def test_healthy_lanes_unaffected_by_quarantine(self):
        cfg = FleetConfig(checkpoint_every=8)
        base = run_fleet_campaign(num_sessions=3, ticks=30, seed=5, config=cfg)

        fleet = FleetSupervisor(config=cfg)
        for i in range(3):
            fleet.register(spec(session_id(i)))
        for tick in range(30):
            for i in range(3):
                sid = session_id(i)
                if not fleet.sessions[sid].quarantined:
                    fleet.ingest(sid, frame_for(5, i, tick))
            if tick == 12:
                fleet.quarantine(session_id(1), "operator pulled the plug")
            fleet.tick(tick)

        fps = fleet.fingerprints()
        # Differential proof: survivors' bytes as if the lane never left.
        assert fps[session_id(0)] == base.fingerprints[session_id(0)]
        assert fps[session_id(2)] == base.fingerprints[session_id(2)]
        quarantined = fleet.sessions[session_id(1)]
        assert quarantined.quarantined
        assert quarantined.health == "estopped"
        assert quarantined.board.plc.estop_latched

    def test_throwing_lane_is_quarantined_not_fatal(self):
        cfg = FleetConfig(checkpoint_every=8)
        base = run_fleet_campaign(num_sessions=3, ticks=30, seed=5, config=cfg)

        fleet = FleetSupervisor(config=cfg)
        for i in range(3):
            fleet.register(spec(session_id(i)))

        class _Bomb(Exception):
            pass

        def explode(alert):
            raise _Bomb("detector hardware fault")

        reports = []
        for tick in range(30):
            for i in range(3):
                sid = session_id(i)
                if not fleet.sessions[sid].quarantined:
                    fleet.ingest(sid, frame_for(5, i, tick))
            if tick == 15:
                # The per-lane step every evaluated lane runs after the
                # pack's batched detector pass.
                fleet.sessions[session_id(1)].supervisor.guard._record_verdict = (
                    explode
                )
            reports.append(fleet.tick(tick))

        bad = fleet.sessions[session_id(1)]
        assert bad.quarantined
        assert "_Bomb" in bad.quarantine_reason
        assert bad.health == "estopped"
        assert any(q for r in reports for q in r.quarantined)
        fps = fleet.fingerprints()
        assert fps[session_id(0)] == base.fingerprints[session_id(0)]
        assert fps[session_id(2)] == base.fingerprints[session_id(2)]

    def test_quarantine_writes_flight_dump(self, monkeypatch, tmp_path):
        monkeypatch.setenv(ENV_ENABLE, "1")
        monkeypatch.setenv(ENV_DIR, str(tmp_path))
        reset_runtime()
        try:
            fleet = FleetSupervisor(config=FleetConfig())
            fleet.register(spec("dump-me"))
            fleet.ingest("dump-me", nominal_frame(0))
            fleet.tick(0)
            fleet.quarantine("dump-me", "forced for the dump test")
            dumps = list((tmp_path / "flight").glob("flight-fleet-dump-me-*.jsonl"))
            assert len(dumps) == 1
            text = dumps[0].read_text()
            assert "forced for the dump test" in text
        finally:
            reset_runtime()


class TestCheckpointResume:
    def test_kill_and_resume_converges_to_baseline(self, store):
        cfg = FleetConfig(checkpoint_every=6)
        base = run_fleet_campaign(num_sessions=3, ticks=40, seed=2, config=cfg)
        plan = FaultPlan(
            specs=[FaultSpec(kind="session_kill", match="rig-001", index=17)]
        )
        chaos = run_fleet_campaign(
            num_sessions=3,
            ticks=40,
            seed=2,
            config=cfg,
            store=store,
            injector=ChaosInjector(plan),
        )
        assert chaos.kills and chaos.kills[0][0] == "rig-001"
        assert chaos.fingerprints == base.fingerprints

    def test_corrupt_checkpoint_resumes_from_older_version(self, store):
        cfg = FleetConfig(checkpoint_every=6)
        base = run_fleet_campaign(num_sessions=2, ticks=40, seed=2, config=cfg)
        plan = FaultPlan(
            specs=[
                FaultSpec(kind="store_corrupt", match="rig-000", index=15),
                FaultSpec(kind="session_kill", match="rig-000", index=20),
            ]
        )
        chaos = run_fleet_campaign(
            num_sessions=2,
            ticks=40,
            seed=2,
            config=cfg,
            store=store,
            injector=ChaosInjector(plan),
        )
        # Resumed from the pre-corruption version, replayed further back,
        # still converges to the uninterrupted bytes.
        assert chaos.kills
        assert chaos.fingerprints == base.fingerprints

    def test_kill_without_any_checkpoint_quarantines(self):
        # checkpoint_every larger than the kill tick: nothing stored yet.
        cfg = FleetConfig(checkpoint_every=500)
        fleet = FleetSupervisor(config=cfg)
        fleet.register(spec("s"))

        # Defeat the tick-0 checkpoint by corrupting the store's only
        # snapshot, then kill: resume must fail onto the tombstone path.
        fleet.ingest("s", nominal_frame(0))
        fleet.tick(0)
        fleet.store.delete("s")
        plan = FaultPlan(specs=[FaultSpec(kind="session_kill", match="s")])
        fleet.injector = ChaosInjector(plan)
        report = fleet.tick(1)
        assert report.quarantined
        session = fleet.sessions["s"]
        assert session.quarantined
        assert "not resumable" in session.quarantine_reason
        assert session.health == "estopped"

    def test_resume_without_checkpoint_raises(self):
        fleet = FleetSupervisor(config=FleetConfig())
        with pytest.raises(FleetError, match="no stored checkpoint"):
            fleet.resume(spec("ghost"))

    def test_explicit_checkpoint_round_trip(self, store):
        cfg = FleetConfig(checkpoint_every=1000)
        fleet = FleetSupervisor(store=store, config=cfg)
        fleet.register(spec("s"))
        for tick in range(10):
            fleet.ingest("s", frame_for(0, 0, tick))
            fleet.tick(tick)
        snap = fleet.checkpoint("s", 9)
        digest = fleet.sessions["s"].digest

        other = FleetSupervisor(store=store, config=cfg)
        resumed = other.resume(spec("s"))
        assert resumed.digest == digest
        assert resumed.frames_processed == 10
        assert resumed.checkpoint_version == snap.version
        assert resumed.last_checkpoint_tick == 9

    def test_resume_preserves_ingest_counter(self, store):
        cfg = FleetConfig(checkpoint_every=1000)
        fleet = FleetSupervisor(store=store, config=cfg)
        fleet.register(spec("s"))
        for tick in range(5):
            fleet.ingest("s", frame_for(0, 0, tick))
            fleet.tick(tick)
        assert fleet.sessions["s"].frames_ingested == 5
        fleet.checkpoint("s", 4)

        other = FleetSupervisor(store=store, config=cfg)
        resumed = other.resume(spec("s"))
        assert resumed.frames_ingested == 5
        assert resumed.frames_processed == 5

    def test_v1_payload_restores_with_reconstructed_counter(self):
        """Pre-``frames_ingested`` checkpoints (schema v1) still resume:
        the counter is reconstructed as ``frames_processed`` because a
        resume starts from an empty queue."""
        cfg = FleetConfig()
        fleet = FleetSupervisor(config=cfg)
        session = fleet.register(spec("s"))
        for tick in range(3):
            fleet.ingest("s", nominal_frame(tick))
            fleet.tick(tick)
        v1 = session.snapshot_payload(2)
        del v1["frames_ingested"]
        v1["version"] = 1

        fresh = FleetSession(spec("s"), cfg)
        fresh.quarantined = True
        fresh.quarantine_reason = "stale"
        fresh.restore_payload(v1)
        assert fresh.frames_ingested == 3
        assert fresh.frames_processed == 3
        assert fresh.digest == session.digest
        # Transient per-run state restarts clean on restore.
        assert not fresh.quarantined
        assert fresh.quarantine_reason is None
        assert fresh.last_frame is None

    def test_unknown_snapshot_version_is_rejected(self):
        cfg = FleetConfig()
        session = FleetSession(spec("s"), cfg)
        bad = session.snapshot_payload(0)
        bad["version"] = 99
        with pytest.raises(ValueError, match="snapshot version"):
            session.restore_payload(bad)


class TestDrain:
    def test_drain_checkpoints_every_live_session(self, store):
        # Cadence far beyond the run: nothing persists except tick 0.
        cfg = FleetConfig(checkpoint_every=1000)
        fleet = FleetSupervisor(store=store, config=cfg)
        for i in range(3):
            fleet.register(spec(session_id(i)))
        for tick in range(12):
            for i in range(3):
                fleet.ingest(session_id(i), frame_for(4, i, tick))
            fleet.tick(tick)
        digests = {sid: fleet.sessions[sid].digest for sid in fleet.sessions}

        drained = fleet.drain()
        assert drained == [session_id(i) for i in range(3)]

        # A fresh supervisor resumes every session from the drained state,
        # bit-identically — nothing past the last cadence point was lost.
        other = FleetSupervisor(store=store, config=cfg)
        for i in range(3):
            resumed = other.resume(spec(session_id(i)))
            assert resumed.digest == digests[session_id(i)]
            assert resumed.frames_processed == 12
            assert resumed.last_checkpoint_tick == 11

    def test_drain_skips_sessions_already_current(self, store):
        fleet = FleetSupervisor(store=store, config=FleetConfig(checkpoint_every=1000))
        fleet.register(spec("s"))
        for tick in range(5):
            fleet.ingest("s", nominal_frame(tick))
            fleet.tick(tick)
        fleet.checkpoint("s", 4)
        version = fleet.sessions["s"].checkpoint_version

        # Already checkpointed at the last completed tick: drain reports
        # it as drained but writes no redundant snapshot.
        assert fleet.drain() == ["s"]
        assert fleet.sessions["s"].checkpoint_version == version

    def test_drain_store_failure_quarantines_not_fatal(self):
        flaky = _FlakyStore(failures=0)
        fleet = FleetSupervisor(
            store=flaky,
            config=FleetConfig(
                checkpoint_every=1000, store_retries=0, store_backoff_s=0.0
            ),
        )
        fleet.register(spec("a"))
        fleet.register(spec("b"))
        for tick in range(3):
            fleet.ingest("a", nominal_frame(tick))
            fleet.ingest("b", nominal_frame(tick))
            fleet.tick(tick)
        # The next save (session "a", registration order) blows up;
        # "b" must still flush.
        flaky.failures = flaky.attempts + 1
        drained = fleet.drain()
        assert drained == ["b"]
        assert fleet.sessions["a"].quarantined
        assert "drain checkpoint failed" in fleet.sessions["a"].quarantine_reason

    def test_drain_excludes_quarantined_sessions(self, store):
        fleet = FleetSupervisor(store=store, config=FleetConfig())
        fleet.register(spec("a"))
        fleet.register(spec("b"))
        fleet.ingest("a", nominal_frame(0))
        fleet.ingest("b", nominal_frame(0))
        fleet.tick(0)
        fleet.quarantine("a", "pulled")
        assert fleet.drain() == ["b"]


def tuned_thresholds(scale: float) -> SafetyThresholds:
    """``scale`` times the thresholds at which each alarm group fires on
    about half of the :func:`frame_for` frames, so fusion rules and
    decision windows change the verdicts."""
    return SafetyThresholds(
        motor_velocity=np.asarray(NOMINAL_THRESHOLDS.motor_velocity) * 0.015 * scale,
        motor_acceleration=(
            np.asarray(NOMINAL_THRESHOLDS.motor_acceleration) * 0.005 * scale
        ),
        joint_velocity=np.asarray(NOMINAL_THRESHOLDS.joint_velocity) * 0.0015 * scale,
    )


def heterogeneous_specs():
    """Every fusion rule with every decision-window shape, under mixed
    strategies and thresholds."""
    fusions = [FusionRule.ALL, FusionRule.MAJORITY, FusionRule.ANY]
    windows = [(2, 3), (3, 5), None]
    strategies = list(MitigationStrategy)
    scales = [0.9, 1.0, 1.1]
    return [
        SessionSpec(
            session_id=session_id(i),
            thresholds=tuned_thresholds(scales[(2 * i + i // 3) % 3]),
            fusion=fusions[i % 3],
            decision_window=windows[i // 3],
            strategy=strategies[(i + i // 3) % 3],
        )
        for i in range(9)
    ]


def run_fleet(specs, streams, cfg, store=None, ticks=None, fleet=None):
    """Feed ``streams[i]`` to ``specs[i]``, one frame per tick."""
    if fleet is None:
        fleet = FleetSupervisor(store=store, config=cfg)
        for s in specs:
            fleet.register(s)
    for tick in ticks if ticks is not None else range(len(streams[0])):
        for s, stream in zip(specs, streams):
            if not fleet.sessions[s.session_id].quarantined:
                assert fleet.ingest(s.session_id, stream[tick])
        fleet.tick(tick)
    return fleet


def run_scalar(session_spec, frames, cfg) -> dict:
    """One session driven through its scalar guard, with no lane pack: the
    inline estimate/detect/mitigate path the batched pass must match."""
    session = FleetSession(session_spec, cfg)
    stats = session.supervisor.stats
    for frame in frames:
        session.supervisor.tick_cycle(frame.tick)
        evaluated, alerts = stats.packets_evaluated, stats.alerts
        allowed = session.supervisor.process(frame.to_packet(), frame.mpos_array())
        session.frames_processed += 1
        session.record_decision(
            frame.tick,
            frame,
            allowed,
            stats.packets_evaluated > evaluated,
            stats.alerts > alerts,
        )
    return session.fingerprint()


class TestBatchedVerdict:
    """The pack decides every lane in one batched detector pass; each
    session must still decide exactly as its scalar guard would."""

    TICKS = 90

    def streams(self, count: int):
        return [
            [frame_for(4, i, t) for t in range(self.TICKS)] for i in range(count)
        ]

    def test_heterogeneous_fleet_matches_each_session_alone(self):
        cfg = FleetConfig(checkpoint_every=16)
        specs = heterogeneous_specs()
        streams = self.streams(len(specs))
        fps = run_fleet(specs, streams, cfg).fingerprints()
        for s, stream in zip(specs, streams):
            alone = run_fleet([s], [stream], cfg).fingerprints()[s.session_id]
            assert fps[s.session_id] == alone
            assert fps[s.session_id] == run_scalar(s, stream, cfg)
        # The configurations really disagree: some sessions alert and some
        # do not, at different rates, and some are blocked into E-STOP.
        alerts = [fps[s.session_id]["stats"]["alerts"] for s in specs]
        assert 0 < sum(count > 0 for count in alerts) < len(alerts)
        assert len(set(alerts)) > 3
        assert any(fp["estopped"] for fp in fps.values())

    def test_detector_telemetry_matches_the_scalar_guard(self, monkeypatch, tmp_path):
        """With REPRO_OBS on, the batched pass records the same detector
        evaluations, alerts and margin histogram as scalar guards."""
        monkeypatch.setenv(ENV_ENABLE, "1")
        monkeypatch.setenv(ENV_DIR, str(tmp_path))
        cfg = FleetConfig(checkpoint_every=16)
        specs = heterogeneous_specs()
        streams = self.streams(len(specs))

        def detector_metrics(run):
            reset_runtime()
            run()
            return get_runtime().registry.snapshot("repro_detector_")

        try:
            batched = detector_metrics(lambda: run_fleet(specs, streams, cfg))
            scalar = detector_metrics(
                lambda: [run_scalar(s, stream, cfg) for s, stream in zip(specs, streams)]
            )
        finally:
            reset_runtime()
        assert batched["repro_detector_evaluations_total"]["value"] > 0
        # Observations arrive in a different order, so only the float sum
        # of the margin histogram may differ, and only in rounding.
        margin_sum = batched["repro_detector_margin_ratio"].pop("sum")
        mean = batched["repro_detector_margin_ratio"].pop("mean")
        assert margin_sum == pytest.approx(scalar["repro_detector_margin_ratio"].pop("sum"))
        assert mean == pytest.approx(scalar["repro_detector_margin_ratio"].pop("mean"))
        assert batched == scalar

    def test_heterogeneous_fleet_resumes_bit_identically(self, store):
        cfg = FleetConfig(checkpoint_every=1000)
        specs = heterogeneous_specs()
        streams = self.streams(len(specs))
        base = run_fleet(specs, streams, cfg).fingerprints()

        first = run_fleet(specs, streams, cfg, store=store, ticks=range(40))
        first.drain()
        second = FleetSupervisor(store=store, config=cfg)
        for s in specs:
            second.resume(s)
        run_fleet(specs, streams, cfg, ticks=range(40, self.TICKS), fleet=second)
        assert second.fingerprints() == base

    def test_window_lanes_survive_a_quarantine(self):
        cfg = FleetConfig(checkpoint_every=16)
        specs = heterogeneous_specs()
        streams = self.streams(len(specs))
        base = run_fleet(specs, streams, cfg).fingerprints()
        fleet = run_fleet(specs, streams, cfg, ticks=range(30))
        fleet.quarantine(session_id(4), "operator pulled the plug")
        run_fleet(specs, streams, cfg, ticks=range(30, self.TICKS), fleet=fleet)
        fps = fleet.fingerprints()
        for s in specs:
            if s.session_id != session_id(4):
                assert fps[s.session_id] == base[s.session_id]

    def test_scenario_b_stream_blocks_and_estops_like_the_scalar_guard(self):
        from repro.sim.runner import run_scenario_b

        # Recorded attack telemetry: the replayed stream hands the attacked
        # DAC to the model too, so the envelope is tightened to keep the
        # detector firing once the injection starts.
        thresholds = SafetyThresholds(
            motor_velocity=np.array([1.5, 1.5, 0.8]),
            motor_acceleration=np.array([120.0, 120.0, 90.0]),
            joint_velocity=np.array([0.05, 0.05, 0.01]),
        )
        frames = frames_from_trace(
            run_scenario_b(
                seed=11,
                error_dac=12000,
                period_ms=300,
                duration_s=0.6,
                raven_safety_enabled=False,
                attack_delay_cycles=100,
            ).trace
        )
        specs = [
            SessionSpec(
                session_id=f"attacked-{strategy.value}",
                thresholds=thresholds,
                strategy=strategy,
            )
            for strategy in MitigationStrategy
        ]
        cfg = FleetConfig(checkpoint_every=16)
        fps = run_fleet(specs, [frames] * len(specs), cfg).fingerprints()
        for s in specs:
            assert fps[s.session_id] == run_scalar(s, frames, cfg)
        monitor, block, estop = (fps[s.session_id] for s in specs)
        assert monitor["stats"]["alerts"] > 0
        assert monitor["stats"]["blocked"] == 0 and not monitor["estopped"]
        # BLOCK escalates once the blocked run persists; BLOCK_AND_ESTOP
        # latches on the first alert.
        assert block["stats"]["blocked"] > 0 and block["estopped"]
        assert estop["stats"]["blocked"] > 0 and estop["estopped"]


class TestMalformedFrames:
    def test_out_of_int16_dac_is_rejected_when_the_frame_is_built(self):
        with pytest.raises(PacketError, match="out of int16 range"):
            TelemetryFrame(tick=0, dac=(40000, 0, 0))
        with pytest.raises(PacketError, match="out of int16 range"):
            TelemetryFrame(tick=0, dac=(0, -32769, 0))

    def test_one_tenants_bad_frame_leaves_the_others_deciding(self):
        cfg = FleetConfig(checkpoint_every=8)
        base = run_fleet_campaign(num_sessions=3, ticks=20, seed=5, config=cfg)
        fleet = FleetSupervisor(config=cfg)
        for i in range(3):
            fleet.register(spec(session_id(i)))
        for tick in range(20):
            for i in range(3):
                if i == 1 and tick == 7:
                    # The tenant's frame never exists, so no tick sees it.
                    with pytest.raises(PacketError):
                        TelemetryFrame(tick=tick, dac=(40000, 0, 0))
                fleet.ingest(session_id(i), frame_for(5, i, tick))
            fleet.tick(tick)
        fps = fleet.fingerprints()
        assert fps == base.fingerprints
        assert all(fp["decisions"] == 20 for fp in fps.values())
        assert not any(s.quarantined for s in fleet.sessions.values())


class TestPackCompatibility:
    def test_a_spec_the_pack_cannot_batch_is_refused_at_registration(self):
        cfg = FleetConfig(checkpoint_every=8)
        base = run_fleet_campaign(num_sessions=3, ticks=20, seed=5, config=cfg)
        fleet = FleetSupervisor(config=cfg)
        for i in range(3):
            fleet.register(spec(session_id(i)))
        for tick in range(20):
            if tick == 7:
                with pytest.raises(FleetError, match="integrator 'rk4'"):
                    fleet.register(spec("rk4-tenant", integrator="rk4"))
                assert "rk4-tenant" not in fleet.sessions
            for i in range(3):
                fleet.ingest(session_id(i), frame_for(5, i, tick))
            report = fleet.tick(tick)
            assert report.frames_processed == 3 and report.quarantined == []
        fps = fleet.fingerprints()
        assert fps == base.fingerprints
        assert all(fp["decisions"] == 20 for fp in fps.values())

    def test_any_integrator_may_start_a_fleet(self):
        fleet = FleetSupervisor(config=FleetConfig())
        fleet.register(spec("a", integrator="rk4"))
        fleet.register(spec("b", integrator="rk4"))
        with pytest.raises(FleetError, match="integrator 'euler'"):
            fleet.register(spec("c"))
        for tick in range(3):
            for sid in ("a", "b"):
                fleet.ingest(sid, nominal_frame(tick))
            fleet.tick(tick)
        assert [fp["decisions"] for fp in fleet.fingerprints().values()] == [3, 3]


class TestCanonicalRecord:
    @settings(max_examples=300, deadline=None)
    @given(
        tick=st.integers(min_value=-(2**70), max_value=2**70),
        dac=st.lists(st.integers(min_value=-(2**15), max_value=2**15 - 1), max_size=8),
        flags=st.lists(st.booleans(), min_size=5, max_size=5),
        health=st.text(),
    )
    def test_chain_link_hashes_the_json_dumps_bytes(self, tick, dac, flags, health):
        pedal_down, had_mpos, allowed, evaluated, alert = flags
        session = FleetSession(spec("s"), FleetConfig())
        frame = TelemetryFrame(
            tick=tick,
            dac=tuple(dac),
            pedal_down=pedal_down,
            mpos=(0.0, 0.0, 0.0) if had_mpos else None,
        )
        prev = session.digest
        session.record_decision(tick, frame, allowed, evaluated, alert, health=health)
        record = session.recent[-1]
        assert record == {
            "tick": tick,
            "dac": dac,
            "pedal_down": pedal_down,
            "had_mpos": had_mpos,
            "allowed": allowed,
            "evaluated": evaluated,
            "alert": alert,
            "health": health,
        }
        encoded = dumps(record, sort_keys=True, separators=(",", ":"))
        assert session.digest == sha256((prev + encoded).encode("utf-8")).hexdigest()

    def test_frame_stores_int_dacs_and_a_bool_pedal(self):
        frame = TelemetryFrame(
            tick=0, dac=[np.int16(5), np.int64(-2), 3], pedal_down=np.bool_(False)
        )
        assert frame.dac == (5, -2, 3)
        assert [type(v) for v in frame.dac] == [int, int, int]
        assert frame.pedal_down is False


class TestSimBridge:
    @pytest.mark.slow
    def test_recorded_trace_feeds_a_fleet_session(self):
        from repro.sim.runner import run_fault_free

        trace = run_fault_free(seed=3, duration_s=0.5)
        frames = frames_from_trace(trace)
        assert len(frames) == len(trace)
        fleet = FleetSupervisor(config=FleetConfig(queue_depth=8))
        fleet.register(spec("sim"))
        for tick, frame in enumerate(frames):
            assert fleet.ingest("sim", frame)
            fleet.tick(tick)
        session = fleet.sessions["sim"]
        assert session.frames_processed == len(frames)
        assert not session.quarantined
        assert session.health == "nominal"
