"""Flight-recorder tests: the ring buffer and the forensic black box.

The integration test reproduces the paper's scenario B (a preloaded
wrapper adds a DAC offset after the RAVEN safety checks) with telemetry
enabled and asserts the dump written at the first blocked command holds
the smoking gun: the DAC the guard saw differs from what the controller
commanded by exactly the injected offset, the per-group margins exceed
1.0, and the preceding cycles of context are present.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.mitigation import MitigationStrategy
from repro.obs.flight import FlightRecorder
from repro.obs.runtime import ENV_DIR, ENV_ENABLE, get_runtime, reset_runtime
from repro.sim.runner import (
    make_detector_guard,
    run_fault_free,
    run_scenario_b,
)

pytestmark = pytest.mark.obs


@pytest.fixture
def obs_env(monkeypatch, tmp_path):
    """Enable telemetry for one test; always restore the cached runtime."""
    monkeypatch.setenv(ENV_ENABLE, "1")
    monkeypatch.setenv(ENV_DIR, str(tmp_path))
    reset_runtime()
    yield tmp_path
    reset_runtime()


class TestRing:
    def test_wraparound_keeps_newest(self):
        rec = FlightRecorder(capacity=3)
        for k in range(5):
            rec.record_cycle(cycle=k, t=k * 1e-3, state="PEDAL_DOWN")
        assert [r.cycle for r in rec.records()] == [2, 3, 4]
        assert rec.cycles_recorded == 5
        assert len(rec) == 3

    def test_annotate_touches_latest_record(self):
        rec = FlightRecorder(capacity=2)
        rec.record_cycle(cycle=0, t=0.0, state="INIT")
        rec.record_cycle(cycle=1, t=1e-3, state="INIT")
        rec.annotate(blocked=True, health="stale")
        records = rec.records()
        assert records[0].blocked is None
        assert records[1].blocked is True
        assert records[1].health == "stale"

    def test_rejects_zero_capacity(self):
        with pytest.raises(ValueError):
            FlightRecorder(capacity=0)

    def test_dump_and_load_round_trip(self, tmp_path):
        rec = FlightRecorder(capacity=4, context={"seed": 7, "label": "x"})
        rec.record_cycle(
            cycle=0,
            t=0.0,
            state="PEDAL_DOWN",
            dac_commanded=(1, 2, 3),
            jpos=np.array([0.1, 0.2, 0.3]),
            margins={"motor_velocity": 0.4},
        )
        path = rec.dump(tmp_path / "box.jsonl", reason="manual")
        header, rows = FlightRecorder.load(path)
        assert header["kind"] == "flight"
        assert header["reason"] == "manual"
        assert header["context"] == {"seed": 7, "label": "x"}
        assert header["cycles_in_dump"] == 1
        (row,) = rows
        assert row["dac_commanded"] == [1, 2, 3]
        assert row["jpos"] == pytest.approx([0.1, 0.2, 0.3])
        assert row["margins"] == {"motor_velocity": pytest.approx(0.4)}

    def test_load_rejects_non_flight_files(self, tmp_path):
        path = tmp_path / "other.jsonl"
        path.write_text('{"kind": "something_else"}\n')
        with pytest.raises(ValueError):
            FlightRecorder.load(path)


class TestScenarioBForensics:
    """End-to-end: an injected attack leaves an analyzable black box."""

    # Attack parameters mirrored from the rig integration suite: the
    # offset fires well inside the run and trips all three alarm groups.
    SEED = 11
    ERROR_DAC = 30_000
    PERIOD_MS = 64
    DURATION_S = 1.1
    ATTACK_DELAY = 150

    def _run_attack(self, loose_thresholds):
        guard = make_detector_guard(
            loose_thresholds, strategy=MitigationStrategy.BLOCK
        )
        result = run_scenario_b(
            seed=self.SEED,
            error_dac=self.ERROR_DAC,
            period_ms=self.PERIOD_MS,
            duration_s=self.DURATION_S,
            attack_delay_cycles=self.ATTACK_DELAY,
            guard=guard,
        )
        return guard, result

    def test_block_dump_contains_the_smoking_gun(
        self, obs_env, loose_thresholds
    ):
        guard, _ = self._run_attack(loose_thresholds)
        assert guard.stats.blocked > 0

        flight_dir = obs_env / "flight"
        dumps = sorted(flight_dir.glob("flight-*-block-*.jsonl"))
        assert dumps, "no block dump written"
        header, rows = FlightRecorder.load(dumps[0])
        assert header["reason"] == "block"
        assert header["context"]["seed"] == self.SEED

        alert_rows = [r for r in rows if r["alert"]]
        assert alert_rows, "dump holds no alerting cycle"
        offender = alert_rows[0]
        # The forensic smoking gun: the DAC the guard saw differs from
        # what the controller commanded by exactly the injected offset.
        deltas = [
            seen - commanded
            for seen, commanded in zip(
                offender["dac_seen"], offender["dac_commanded"]
            )
        ]
        assert self.ERROR_DAC in deltas
        # All three variable groups exceeded their thresholds ...
        assert all(m > 1.0 for m in offender["margins"].values())
        assert offender["blocked"] is True
        # ... and the preceding context is in the box for reconstruction.
        preceding = [r for r in rows if r["cycle"] < offender["cycle"]]
        assert len(preceding) >= 100

    def test_event_log_and_estop_dump(self, obs_env, loose_thresholds):
        guard, _ = self._run_attack(loose_thresholds)
        rt = get_runtime()
        kinds = {e["event"] for e in rt.events}
        assert "flight_dump" in kinds
        # BLOCK escalates to E-STOP when the alarm persists, so the run
        # also leaves an estop dump and an estop event.
        if guard.stats.alerts >= guard.escalate_after_blocks:
            assert "estop" in kinds
            assert list((obs_env / "flight").glob("*-estop-*.jsonl"))

    def test_telemetry_does_not_change_results(
        self, monkeypatch, tmp_path, loose_thresholds
    ):
        """Obs on vs off: identical simulated bytes (zero side effects)."""
        monkeypatch.delenv(ENV_ENABLE, raising=False)
        monkeypatch.delenv(ENV_DIR, raising=False)
        reset_runtime()
        try:
            guard_off = make_detector_guard(
                loose_thresholds, strategy=MitigationStrategy.BLOCK
            )
            off = run_scenario_b(
                seed=self.SEED,
                error_dac=self.ERROR_DAC,
                period_ms=self.PERIOD_MS,
                duration_s=self.DURATION_S,
                attack_delay_cycles=self.ATTACK_DELAY,
                guard=guard_off,
            ).trace.fingerprint()

            monkeypatch.setenv(ENV_ENABLE, "1")
            monkeypatch.setenv(ENV_DIR, str(tmp_path))
            reset_runtime()
            guard_on = make_detector_guard(
                loose_thresholds, strategy=MitigationStrategy.BLOCK
            )
            on = run_scenario_b(
                seed=self.SEED,
                error_dac=self.ERROR_DAC,
                period_ms=self.PERIOD_MS,
                duration_s=self.DURATION_S,
                attack_delay_cycles=self.ATTACK_DELAY,
                guard=guard_on,
            ).trace.fingerprint()
        finally:
            reset_runtime()
        assert on == off
        assert guard_on.stats.alerts == guard_off.stats.alerts

    def test_batched_lanes_record_what_scalar_rigs_record(
        self, obs_env, loose_thresholds
    ):
        """Each lane's ring in a batched rig equals its scalar rig's.

        The lane pack fills the forensic stash of clear lanes only for
        rigs with a flight recorder; a fault-free lane (every evaluation
        clear) and a scenario-B BLOCK lane (clear, alerting and blocked
        cycles) must leave the same margins, estimates, alerts and
        blocked flags cycle by cycle.
        """
        from repro.sim.batch import BatchedSurgicalRig, LaneSpec
        from repro.sim.rig import RigConfig
        from repro.sim.runner import scenario_b_lane

        def lanes():
            attacked, _, _ = scenario_b_lane(
                seed=self.SEED,
                error_dac=self.ERROR_DAC,
                period_ms=self.PERIOD_MS,
                duration_s=self.DURATION_S,
                attack_delay_cycles=self.ATTACK_DELAY,
                guard=make_detector_guard(
                    loose_thresholds, strategy=MitigationStrategy.BLOCK
                ),
            )
            fault_free = LaneSpec(
                RigConfig(seed=3, duration_s=self.DURATION_S),
                guard=make_detector_guard(
                    loose_thresholds, strategy=MitigationStrategy.BLOCK
                ),
            )
            return [attacked, fault_free]

        scalar_rigs = [spec.build() for spec in lanes()]
        for rig in scalar_rigs:
            rig.run()
        batched = BatchedSurgicalRig(lanes())
        batched.run()

        for scalar, lane in zip(scalar_rigs, batched.rigs):
            expected = [r.to_dict() for r in scalar.flight.records()]
            assert [r.to_dict() for r in lane.flight.records()] == expected
        attacked, fault_free = (
            [r.to_dict() for r in rig.flight.records()] for rig in batched.rigs
        )
        assert any(r["blocked"] for r in attacked)
        clear = [r for r in fault_free if r["margins"] is not None]
        assert clear and not any(r["alert"] for r in clear)
        assert all(r["est_motor_velocity"] is not None for r in clear)

    def test_fault_free_run_leaves_no_dump(self, obs_env):
        run_fault_free(seed=3, duration_s=0.4)
        flight_dir = obs_env / "flight"
        assert not flight_dir.exists() or not list(flight_dir.iterdir())
