"""Differential equivalence: batched execution is bit-identical to scalar.

The headline guarantee of :mod:`repro.sim.batch`: running N rigs as one
``(N, ...)`` batch yields, per lane, exactly the ``RunTrace`` the scalar
``SurgicalRig`` produces from the same seed — same float64 bits, same
alarm cycles, same blocked packets, same E-STOP reasons.  Every test
here builds the same lanes twice from fresh stateful objects (via
:class:`repro.testing.differential.LaneRecipe`), runs one side scalar
and one side batched, and compares ``RunTrace.fingerprint()`` plus the
guard counters field by field.

Covered regimes: fault-free heterogeneous lanes, scenario A/B attacks
under MONITOR / BLOCK / BLOCK_AND_ESTOP, physical-fault plans with
supervisor degraded modes (coasting, glitch screening, model drift), and
per-lane alarm bookkeeping when multiple lanes alarm in the same cycle.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    AnomalyDetector,
    BatchedAnomalyDetector,
    BatchedNextStateEstimator,
    BatchedStateEstimate,
    DetectorGuard,
    FusionRule,
    GuardSupervisor,
    MitigationStrategy,
    NextStateEstimator,
    RavenDynamicModel,
    SafetyThresholds,
    StateEstimate,
    SupervisorConfig,
)
from repro.dynamics import (
    BatchedManipulatorDynamics,
    BatchedPlant,
    FrictionModel,
    ManipulatorDynamics,
    ManipulatorParameters,
    RavenPlant,
)
from repro.errors import DetectorError
from repro.sim.batch import BatchedSurgicalRig, LaneSpec
from repro.sim.rig import RigConfig
from repro.sim.runner import make_detector_guard, scenario_a_lane, scenario_b_lane
from repro.testing.differential import (
    EquivalenceReport,
    LaneOutcome,
    LaneRecipe,
    assert_equivalent,
)
from repro.testing.physfaults import PhysFaultPlan

pytestmark = pytest.mark.batch


def detection_thresholds() -> SafetyThresholds:
    """Thresholds that fault-free motion respects but the attacks exceed."""
    return SafetyThresholds(
        motor_velocity=np.array([3.0, 3.0, 8.0]),
        motor_acceleration=np.array([1500.0, 1500.0, 4000.0]),
        joint_velocity=np.array([0.25, 0.25, 0.08]),
    )


def monitor_guard(**kwargs):
    return make_detector_guard(
        detection_thresholds(),
        strategy=kwargs.pop("strategy", MitigationStrategy.MONITOR),
        fusion=kwargs.pop("fusion", FusionRule.ANY),
        **kwargs,
    )


def debounced_guard(parameter_error, fusion, decision_window):
    """A guard with an M-of-N decision window (not exposed by the factory)."""
    model = RavenDynamicModel(integrator="euler", parameter_error=parameter_error)
    detector = AnomalyDetector(
        thresholds=detection_thresholds(),
        fusion=fusion,
        decision_window=decision_window,
    )
    return DetectorGuard(NextStateEstimator(model), detector)


class TestFaultFreeEquivalence:
    def test_mixed_guarded_and_unguarded_lanes(self):
        """Heterogeneous fault-free lanes: seeds, trajectories, guard kinds."""
        recipes = [
            LaneRecipe(
                "plain-circle",
                lambda: LaneSpec(
                    RigConfig(seed=1, duration_s=0.7, trajectory_name="circle")
                ),
            ),
            LaneRecipe(
                "plain-suturing",
                lambda: LaneSpec(
                    RigConfig(seed=2, duration_s=0.7, trajectory_name="suturing")
                ),
            ),
            LaneRecipe(
                "monitored-figure8",
                lambda: LaneSpec(
                    RigConfig(seed=3, duration_s=0.7, trajectory_name="figure8"),
                    guard=monitor_guard(),
                ),
            ),
            LaneRecipe(
                "supervised-circle",
                lambda: LaneSpec(
                    RigConfig(seed=4, duration_s=0.7, trajectory_name="circle"),
                    guard=GuardSupervisor(monitor_guard(), SupervisorConfig()),
                ),
            ),
        ]
        report = assert_equivalent(recipes)
        # Pedal Down was reached, so the guarded lanes actually evaluated
        # packets — the equivalence is not vacuous.
        assert report.batched[2].guard_stats["packets_evaluated"] > 0
        assert report.batched[3].guard_stats["packets_evaluated"] > 0

    def test_single_lane_batch_is_scalar(self):
        """N=1 batched run is the scalar run, bit for bit."""
        recipes = [
            LaneRecipe(
                "solo",
                lambda: LaneSpec(
                    RigConfig(seed=7, duration_s=0.6, trajectory_name="circle"),
                    guard=monitor_guard(),
                ),
            )
        ]
        assert_equivalent(recipes)

    def test_heterogeneous_guard_configurations(self):
        """Lanes differ in model error, fusion rule and decision window.

        The attacked lanes mix every fusion rule with no window, (2, 3)
        and (3, 5) in one rig, so the lane pack's per-lane batched
        detector must alert (and count, per lane) as each scalar one.
        """

        def attacked(seed, fusion, decision_window):
            return scenario_b_lane(
                seed=seed,
                error_dac=20_000,
                period_ms=100,
                duration_s=0.7,
                attack_delay_cycles=40,
                guard=debounced_guard(1.01, fusion, decision_window),
                trajectory_name="figure8",
            )

        mixed = [
            ("all-2of3", 14, FusionRule.ALL, (2, 3)),
            ("majority-3of5", 15, FusionRule.MAJORITY, (3, 5)),
            ("any-undebounced", 16, FusionRule.ANY, None),
        ]
        recipes = [
            LaneRecipe(name, lambda args=args: attacked(*args))
            for name, *args in mixed
        ] + [
            LaneRecipe(
                "loose-model",
                lambda: LaneSpec(
                    RigConfig(seed=11, duration_s=0.7, trajectory_name="circle"),
                    guard=make_detector_guard(
                        detection_thresholds(),
                        parameter_error=1.10,
                        fusion=FusionRule.ANY,
                    ),
                ),
            ),
            LaneRecipe(
                "majority-debounced",
                lambda: LaneSpec(
                    RigConfig(seed=12, duration_s=0.7, trajectory_name="figure8"),
                    guard=debounced_guard(1.01, FusionRule.MAJORITY, (2, 4)),
                ),
            ),
            LaneRecipe(
                "late-pedal",
                lambda: LaneSpec(
                    RigConfig(
                        seed=13,
                        duration_s=0.7,
                        trajectory_name="circle",
                        pedal_press_s=0.55,
                    ),
                    guard=monitor_guard(),
                ),
            ),
        ]
        report = assert_equivalent(recipes)
        for outcome in report.batched[: len(mixed)]:
            assert outcome.guard_stats["detector_alerts"] > 0


class TestAttackEquivalence:
    @pytest.mark.slow
    def test_scenario_b_all_mitigation_strategies(self):
        """DAC-injection attack under every mitigation posture at once.

        The unguarded lane rides out the attack until the robot's own DAC
        limit trips; MONITOR alarms without blocking; BLOCK zeroes the
        corrupted packets; BLOCK_AND_ESTOP escalates to a PLC E-STOP.
        All four must match the scalar runs exactly.
        """

        def lane(i, strategy):
            guard = None if strategy is None else monitor_guard(strategy=strategy)
            return scenario_b_lane(
                seed=10 + i,
                error_dac=12_000,
                period_ms=300,
                duration_s=1.0,
                guard=guard,
                trajectory_name="circle",
            )

        recipes = [
            LaneRecipe("unguarded", lambda: lane(0, None)),
            LaneRecipe("monitor", lambda: lane(1, MitigationStrategy.MONITOR)),
            LaneRecipe("block", lambda: lane(2, MitigationStrategy.BLOCK)),
            LaneRecipe(
                "block-estop", lambda: lane(3, MitigationStrategy.BLOCK_AND_ESTOP)
            ),
        ]
        report = assert_equivalent(recipes)

        monitor, block, estop = report.batched[1:]
        assert monitor.guard_stats["alerts"] > 0
        assert monitor.guard_stats["blocked"] == 0
        assert block.guard_stats["blocked"] > 0
        assert any(
            "detector alert" in reason for _, reason in estop.trace.estop_events
        ), estop.trace.estop_events
        # Attack bookkeeping (set by the trigger/record finalization) is
        # part of the fingerprint and must round-trip through the batch.
        assert monitor.trace.attack_first_cycle is not None

    @pytest.mark.slow
    def test_scenario_a_operator_input_attack(self):
        """Injected operator-input error: alarms and blocks match scalar."""

        def lane(i, strategy):
            return scenario_a_lane(
                seed=30 + i,
                error_mm=2.0,
                period_ms=300,
                duration_s=1.0,
                guard=monitor_guard(strategy=strategy),
                trajectory_name="suturing",
            )

        recipes = [
            LaneRecipe("monitor", lambda: lane(0, MitigationStrategy.MONITOR)),
            LaneRecipe("block", lambda: lane(1, MitigationStrategy.BLOCK)),
        ]
        report = assert_equivalent(recipes)
        assert report.batched[0].guard_stats["alerts"] > 0
        assert report.batched[1].guard_stats["blocked"] > 0


class TestPhysicalFaultEquivalence:
    @pytest.mark.slow
    def test_supervisor_degraded_modes_under_attack(self):
        """Physical faults + supervisor + attack, one fault class per lane.

        encoder_dropout and encoder_glitch drive the supervisor into
        model coasting; model_drift exercises the per-lane parameter
        refresh inside the batched model; packet_loss stresses the
        packet-stream bookkeeping.  Degraded-mode counters (coasting,
        implausible measurements, health transitions) must match scalar.
        """
        faults = ["encoder_dropout", "encoder_glitch", "packet_loss", "model_drift"]

        def lane(i):
            supervisor = GuardSupervisor(monitor_guard(), SupervisorConfig())
            plan = PhysFaultPlan.single(
                faults[i], intensity=0.5, seed=100 + i, start_s=0.6
            )
            return scenario_b_lane(
                seed=20 + i,
                error_dac=12_000,
                period_ms=300,
                duration_s=1.0,
                guard=supervisor,
                trajectory_name="figure8",
                phys_faults=plan.to_dict(),
            )

        recipes = [
            LaneRecipe(faults[i], lambda i=i: lane(i)) for i in range(len(faults))
        ]
        report = assert_equivalent(recipes)
        # The encoder faults actually pushed their lanes into coasting.
        assert report.batched[0].guard_stats["coasted_cycles"] > 0
        assert report.batched[1].guard_stats["coasted_cycles"] > 0
        # The healthy-stream lanes never coasted.
        assert report.batched[2].guard_stats["coasted_cycles"] == 0


class TestPerLaneAlarmBookkeeping:
    def test_same_cycle_alarms_counted_per_lane(self):
        """Two lanes alarming in the same cycle are counted separately.

        Both lanes run the same aggressive attack with near-zero
        thresholds, so their alarms overlap cycle for cycle; each lane's
        GuardStats must record its own alarms (not a shared counter), and
        both must match the scalar runs.
        """
        tight = SafetyThresholds(
            motor_velocity=np.array([1e-6, 1e-6, 1e-6]),
            motor_acceleration=np.array([1e-6, 1e-6, 1e-6]),
            joint_velocity=np.array([1e-9, 1e-9, 1e-9]),
        )

        def lane(i):
            guard = make_detector_guard(
                tight,
                strategy=MitigationStrategy.MONITOR,
                fusion=FusionRule.ANY,
            )
            return LaneSpec(
                RigConfig(seed=40 + i, duration_s=0.6, trajectory_name="circle"),
                guard=guard,
            )

        recipes = [LaneRecipe(f"lane{i}", lambda i=i: lane(i)) for i in range(2)]
        report = assert_equivalent(recipes)
        a, b = report.batched
        assert a.guard_stats["alerts"] > 0
        assert b.guard_stats["alerts"] > 0
        overlap = set(a.trace.detector_alert_cycles) & set(
            b.trace.detector_alert_cycles
        )
        assert overlap, "expected both lanes to alarm in the same cycles"
        # Per-lane counters: each lane's total equals its own event log.
        assert a.guard_stats["alerts"] >= len(overlap)
        assert b.guard_stats["alerts"] >= len(overlap)

    def test_batched_debouncer_is_per_lane(self):
        """BatchedAnomalyDetector keeps one M-of-N window per lane."""
        thresholds = SafetyThresholds(
            motor_velocity=np.array([1.0, 1.0, 1.0]),
            motor_acceleration=np.array([10.0, 10.0, 10.0]),
            joint_velocity=np.array([1.0, 1.0, 1.0]),
        )

        def estimate(hot: bool) -> StateEstimate:
            scale = 50.0 if hot else 0.0
            return StateEstimate(
                motor_velocity=np.full(3, scale),
                motor_acceleration=np.full(3, 10 * scale),
                joint_velocity=np.full(3, scale),
                jpos_next=np.zeros(3),
                jvel_next=np.zeros(3),
                elapsed_s=0.0,
            )

        scalars = [
            AnomalyDetector(thresholds, FusionRule.ANY, decision_window=(2, 3))
            for _ in range(2)
        ]
        batched = BatchedAnomalyDetector.from_detectors(
            [
                AnomalyDetector(thresholds, FusionRule.ANY, decision_window=(2, 3))
                for _ in range(2)
            ]
        )
        # Lane 0 alarms every cycle; lane 1 only on the last — their
        # debounce windows must not bleed into each other.
        schedule = [(True, False), (True, False), (True, True)]
        for hot0, hot1 in schedule:
            r0 = scalars[0].evaluate(estimate(hot0))
            r1 = scalars[1].evaluate(estimate(hot1))
            scale = np.where(np.array([hot0, hot1]), 50.0, 0.0)
            be = BatchedStateEstimate(
                motor_velocity=np.tile(scale[:, None], 3),
                motor_acceleration=np.tile(10 * scale[:, None], 3),
                joint_velocity=np.tile(scale[:, None], 3),
                jpos_next=np.zeros((2, 3)),
                jvel_next=np.zeros((2, 3)),
                elapsed_s=0.0,
            )
            br = batched.evaluate(be, np.ones(2, dtype=bool))
            assert br.alert[0] == r0.alert
            assert br.alert[1] == r1.alert
        # Lane 0 passed 2-of-3 and alarmed; lane 1's single raw alarm
        # was debounced away.  Counters are per lane.
        assert batched.alerts[0] == scalars[0].alerts > 0
        assert batched.alerts[1] == scalars[1].alerts == 0
        assert list(batched.evaluations) == [3, 3]


class TestGuardAfterBatchedRun:
    def test_reused_guard_decides_like_a_fresh_one(self):
        """A batched run hands its guards back: reset, a guard that was a
        lane evaluates and blocks in a scalar rig like a fresh guard.

        Left bound to the finished run's lane pack, it would queue every
        packet into a pack that never decides again: no evaluation, no
        block — the guard would fail open.
        """
        tight = SafetyThresholds(
            motor_velocity=np.full(3, 1e-9),
            motor_acceleration=np.full(3, 1e-9),
            joint_velocity=np.full(3, 1e-9),
        )

        def guard():
            return make_detector_guard(tight, strategy=MitigationStrategy.BLOCK)

        def config():
            return RigConfig(seed=2, duration_s=0.6, trajectory_name="circle")

        reused = guard()
        BatchedSurgicalRig(
            [LaneSpec(config(), guard=reused), LaneSpec(config(), guard=guard())]
        ).run()
        assert reused.stats.blocked > 0
        reused.reset()
        fresh = guard()
        traces = [LaneSpec(config(), guard=g).build().run() for g in (reused, fresh)]
        assert fresh.stats.packets_evaluated > 0 and fresh.stats.blocked > 0
        assert reused.stats.snapshot() == fresh.stats.snapshot()
        assert traces[0].fingerprint() == traces[1].fingerprint()

    def test_guards_that_cannot_share_a_pack_are_refused(self):
        """The rig applies the fleet's pack rule, before binding a guard."""
        euler = monitor_guard()
        rk4 = make_detector_guard(detection_thresholds(), integrator="rk4")
        config = RigConfig(seed=1, duration_s=0.1)
        with pytest.raises(DetectorError, match="integrator 'rk4'"):
            BatchedSurgicalRig(
                [LaneSpec(config, guard=euler), LaneSpec(config, guard=rk4)]
            )
        assert euler._batch_sink is None and rk4._batch_sink is None


class TestLaneRemoval:
    """Ejecting a lane must not shift the surviving lanes' state.

    The fleet supervisor quarantines faulted sessions by removing their
    lane from the batched pack mid-run; the regression pinned here is the
    bookkeeping one: after ``remove_lanes``, every surviving lane's
    GuardStats-feeding counters, debouncer ring slots and estimator state
    bytes must be exactly what a never-batched-with-the-ejected-lane run
    produces.
    """

    @staticmethod
    def hot_estimate(scales: np.ndarray) -> BatchedStateEstimate:
        """Per-lane estimates: scale 0 is quiet, large scales alarm."""
        scales = np.asarray(scales, dtype=float)
        return BatchedStateEstimate(
            motor_velocity=np.tile(scales[:, None], 3),
            motor_acceleration=np.tile(10 * scales[:, None], 3),
            joint_velocity=np.tile(scales[:, None], 3),
            jpos_next=np.zeros((len(scales), 3)),
            jvel_next=np.zeros((len(scales), 3)),
            elapsed_s=0.0,
        )

    def test_detector_removal_preserves_survivor_state(self):
        thresholds = SafetyThresholds(
            motor_velocity=np.array([1.0, 1.0, 1.0]),
            motor_acceleration=np.array([10.0, 10.0, 10.0]),
            joint_velocity=np.array([1.0, 1.0, 1.0]),
        )

        def build(num):
            return BatchedAnomalyDetector.from_detectors(
                [
                    AnomalyDetector(thresholds, FusionRule.ANY, decision_window=(2, 3))
                    for _ in range(num)
                ]
            )

        # Three lanes with distinct alarm phases, so any slot shift on
        # removal would change a survivor's 2-of-3 decision.
        full = build(3)
        schedule = [(50.0, 0.0, 50.0), (0.0, 50.0, 50.0), (50.0, 0.0, 0.0)]
        for scales in schedule:
            full.evaluate(self.hot_estimate(np.array(scales)))

        survivors = full.remove_lanes([1])
        assert survivors == [0, 2]
        assert full.num_lanes == 2

        # Control: lanes 0 and 2 alone, fed their own columns only.
        control = build(2)
        for scales in schedule:
            control.evaluate(self.hot_estimate(np.array([scales[0], scales[2]])))

        assert list(full.evaluations) == list(control.evaluations)
        assert list(full.alerts) == list(control.alerts)
        for lane in range(2):
            assert full.debouncer.lane_window(lane) == (
                control.debouncer.lane_window(lane)
            )
        # Future decisions stay aligned too (ring positions survived).
        tail = [(0.0, 50.0), (50.0, 50.0)]
        for scales in tail:
            r_full = full.evaluate(self.hot_estimate(np.array(scales)))
            r_ctrl = control.evaluate(self.hot_estimate(np.array(scales)))
            assert list(r_full.alert) == list(r_ctrl.alert)
        assert list(full.alerts) == list(control.alerts)

    def test_estimator_removal_preserves_survivor_bytes(self):
        def build(errors):
            return BatchedNextStateEstimator(
                [
                    RavenDynamicModel(integrator="euler", parameter_error=e)
                    for e in errors
                ]
            )

        full = build([1.0, 1.03, 1.05])
        mpos = np.array(
            [[0.001, 0.002, 0.003], [0.002, 0.001, 0.004], [0.003, 0.004, 0.001]]
        )
        dac = np.array([[150.0, -30.0, 12.0]] * 3)
        full.sync(mpos)
        full.sync(mpos + 0.0005)
        full.estimate(dac)
        full.coast(np.array([False, False, True]))  # stagger lane 2

        survivors = full.remove_lanes([0])
        assert survivors == [1, 2]

        control = build([1.03, 1.05])
        control.sync(mpos[1:])
        control.sync(mpos[1:] + 0.0005)
        control.estimate(dac[1:])
        control.coast(np.array([False, True]))

        assert full._jpos.tobytes() == control._jpos.tobytes()
        assert full._jvel.tobytes() == control._jvel.tobytes()
        assert list(full.coast_streak) == list(control.coast_streak)
        for lane in range(2):
            assert full.lane_state(lane) == control.lane_state(lane)
        # And the survivors keep producing identical estimates.
        nxt = np.array([[80.0, 40.0, -5.0]] * 2)
        mask = np.array([True, False])  # lane 1 kept coasting
        a = full.estimate(nxt, mask)
        b = control.estimate(nxt, mask)
        assert a.motor_velocity.tobytes() == b.motor_velocity.tobytes()
        assert a.jpos_next.tobytes() == b.jpos_next.tobytes()

    def test_removing_every_lane_is_rejected(self):
        thresholds = detection_thresholds()
        detector = BatchedAnomalyDetector([thresholds, thresholds])
        with pytest.raises(ValueError):
            detector.remove_lanes([0, 1])
        estimator = BatchedNextStateEstimator(
            [RavenDynamicModel(integrator="euler") for _ in range(2)]
        )
        with pytest.raises(ValueError):
            estimator.remove_lanes([0, 1])


class TestLaneCheckpointParity:
    """Batched ``lane_state``/``load_lane_state``/``reset`` round-trip
    with the scalar ``snapshot``/``restore``/``reset`` surface — the
    parity contract RPR007 pins statically, executed."""

    THRESHOLDS = SafetyThresholds(
        motor_velocity=np.array([1.0, 1.0, 1.0]),
        motor_acceleration=np.array([10.0, 10.0, 10.0]),
        joint_velocity=np.array([1.0, 1.0, 1.0]),
    )

    @staticmethod
    def scalar_estimate(scale: float) -> StateEstimate:
        return StateEstimate(
            motor_velocity=np.full(3, scale),
            motor_acceleration=np.full(3, 10 * scale),
            joint_velocity=np.full(3, scale),
            jpos_next=np.zeros(3),
            jvel_next=np.zeros(3),
            elapsed_s=0.0,
        )

    @staticmethod
    def batched_estimate(scales: np.ndarray) -> BatchedStateEstimate:
        scales = np.asarray(scales, dtype=float)
        return BatchedStateEstimate(
            motor_velocity=np.tile(scales[:, None], 3),
            motor_acceleration=np.tile(10 * scales[:, None], 3),
            joint_velocity=np.tile(scales[:, None], 3),
            jpos_next=np.zeros((len(scales), 3)),
            jvel_next=np.zeros((len(scales), 3)),
            elapsed_s=0.0,
        )

    def build_scalars(self, num: int):
        return [
            AnomalyDetector(self.THRESHOLDS, FusionRule.ANY, decision_window=(2, 3))
            for _ in range(num)
        ]

    def drive(self, scalars, batched, schedule):
        for scales in schedule:
            for lane, scalar in enumerate(scalars):
                scalar.evaluate(self.scalar_estimate(scales[lane]))
            batched.evaluate(self.batched_estimate(np.array(scales)))

    def test_detector_lane_state_matches_scalar_snapshot(self):
        scalars = self.build_scalars(2)
        batched = BatchedAnomalyDetector.from_detectors(self.build_scalars(2))
        self.drive(scalars, batched, [(50.0, 0.0), (0.0, 50.0), (50.0, 50.0)])
        for lane, scalar in enumerate(scalars):
            assert batched.lane_state(lane) == scalar.snapshot()

    def test_detector_lane_round_trip_both_directions(self):
        scalars = self.build_scalars(2)
        batched = BatchedAnomalyDetector.from_detectors(self.build_scalars(2))
        # An asymmetric prefix so each lane's ring holds distinct bytes.
        self.drive(scalars, batched, [(50.0, 0.0), (50.0, 50.0)])

        # batched lane -> fresh scalar detector
        restored_scalar = self.build_scalars(1)[0]
        restored_scalar.restore(batched.lane_state(0))
        # scalar snapshots -> fresh batched pack
        restored_batched = BatchedAnomalyDetector.from_detectors(
            self.build_scalars(2)
        )
        for lane, scalar in enumerate(scalars):
            restored_batched.load_lane_state(lane, scalar.snapshot())

        # All three continue in lockstep after the round-trip.
        tail = [(0.0, 50.0), (50.0, 0.0), (50.0, 50.0)]
        for scales in tail:
            r_scalar0 = scalars[0].evaluate(self.scalar_estimate(scales[0]))
            r_restored = restored_scalar.evaluate(
                self.scalar_estimate(scales[0])
            )
            r_batched = restored_batched.evaluate(
                self.batched_estimate(np.array(scales))
            )
            assert r_restored.alert == r_scalar0.alert
            assert r_batched.alert[0] == r_scalar0.alert
        assert restored_batched.lane_state(0) == scalars[0].snapshot()

    def test_per_lane_fusion_and_windows_match_scalars(self):
        """Fusion rule and decision window are per lane: each lane of one
        batched detector decides like its own scalar detector, through
        masked rounds, a lane-state round trip and a lane removal."""
        configs = [
            (FusionRule.ALL, None),
            (FusionRule.MAJORITY, (2, 3)),
            (FusionRule.ANY, (3, 5)),
            (FusionRule.ANY, None),
            (FusionRule.ALL, (1, 1)),
            (FusionRule.MAJORITY, None),
        ]

        def build():
            return [
                AnomalyDetector(self.THRESHOLDS, fusion, decision_window=window)
                for fusion, window in configs
            ]

        scalars = build()
        batched = BatchedAnomalyDetector.from_detectors(build())
        rng = np.random.default_rng(7)
        limits = np.array([1.0, 10.0, 1.0])

        def step(lanes):
            # Each group independently near its limit, so groups disagree.
            rows = rng.uniform(0.5, 1.5, size=(len(scalars), 3)) * limits
            mask = rng.random(len(scalars)) < 0.8
            estimate = BatchedStateEstimate(
                motor_velocity=np.tile(rows[:, :1], 3),
                motor_acceleration=np.tile(rows[:, 1:2], 3),
                joint_velocity=np.tile(rows[:, 2:], 3),
                jpos_next=np.zeros((len(scalars), 3)),
                jvel_next=np.zeros((len(scalars), 3)),
                elapsed_s=0.0,
            )
            result = batched.evaluate(estimate, mask)
            for lane in np.nonzero(mask)[0]:
                want = lanes[lane].evaluate(estimate.lane(lane))
                assert result.lane(lane) == want

        for _ in range(40):
            step(scalars)
        for lane, scalar in enumerate(scalars):
            assert batched.lane_state(lane) == scalar.snapshot()

        reloaded = BatchedAnomalyDetector.from_detectors(build())
        for lane, scalar in enumerate(scalars):
            reloaded.load_lane_state(lane, scalar.snapshot())
        batched = reloaded
        batched.remove_lanes([1, 3])
        del scalars[3], scalars[1]
        for _ in range(40):
            step(scalars)
        for lane, scalar in enumerate(scalars):
            assert batched.lane_state(lane) == scalar.snapshot()

    def test_detector_window_mismatch_is_rejected(self):
        batched = BatchedAnomalyDetector.from_detectors(self.build_scalars(2))
        bad = batched.lane_state(0)
        bad["debouncer"]["n"] = 4
        with pytest.raises(ValueError, match="decision-window mismatch"):
            batched.load_lane_state(0, bad)
        windowless = BatchedAnomalyDetector([self.THRESHOLDS, self.THRESHOLDS])
        with pytest.raises(ValueError, match="presence mismatch"):
            windowless.load_lane_state(0, batched.lane_state(0))

    def test_estimator_reset_matches_scalar(self):
        errors = [1.0, 1.03]
        scalars = [
            NextStateEstimator(
                RavenDynamicModel(integrator="euler", parameter_error=e)
            )
            for e in errors
        ]
        batched = BatchedNextStateEstimator(
            [
                RavenDynamicModel(integrator="euler", parameter_error=e)
                for e in errors
            ]
        )
        mpos = np.array([[0.001, 0.002, 0.003], [0.002, 0.001, 0.004]])
        dac = np.array([[150.0, -30.0, 12.0]] * 2)
        for lane, scalar in enumerate(scalars):
            scalar.sync(mpos[lane])
            scalar.sync(mpos[lane] + 0.0005)
            scalar.estimate(dac[lane])
            scalar.reset()
        batched.sync(mpos)
        batched.sync(mpos + 0.0005)
        batched.estimate(dac)
        batched.reset()
        for lane, scalar in enumerate(scalars):
            assert batched.lane_state(lane) == scalar.snapshot()
        # A reset pack behaves like pristine scalar lanes from here on.
        for lane, scalar in enumerate(scalars):
            scalar.sync(mpos[lane])
        batched.sync(mpos)
        for lane, scalar in enumerate(scalars):
            assert batched.lane_state(lane) == scalar.snapshot()


class TestArmKernelLanes:
    """The closed-form arm kernel gives each lane the scalar arm's bits,
    at N=1, at N=16 and in any lane order, with a still lane among
    moving ones (no speed branch to select)."""

    @staticmethod
    def lanes_and_states(num: int, seed: int):
        rng = np.random.default_rng(seed)
        lanes = [
            ManipulatorDynamics(
                params=ManipulatorParameters().scaled(float(rng.uniform(0.6, 1.6))),
                friction=FrictionModel().scaled(float(rng.uniform(0.6, 1.6))),
            )
            for _ in range(num)
        ]
        q = np.column_stack([
            rng.uniform(-1.2, 1.2, num),
            rng.uniform(0.3, 2.8, num),
            rng.uniform(0.05, 0.30, num),
        ])
        qdot = rng.uniform(-1.0, 1.0, (num, 3)) * np.array([1.0, 1.0, 0.1])
        qdot[num // 2] = 0.0
        tau = rng.uniform(-3.0, 3.0, (num, 3))
        return lanes, q, qdot, tau

    @staticmethod
    def assert_lanes_equal_scalar(lanes, q, qdot, tau):
        plant = RavenPlant()
        extra = (plant._reflected_inertia, plant._reflected_damping)
        batch = BatchedManipulatorDynamics(lanes)
        acc = batch.acceleration(q, qdot, tau, *extra)
        m = batch.mass_matrix(q)
        c = batch.coriolis_force(q, qdot)
        g = batch.gravity_force(q)
        for i, lane in enumerate(lanes):
            assert np.array_equal(acc[i], lane.acceleration(q[i], qdot[i], tau[i], *extra))
            assert np.array_equal(m[i], lane.mass_matrix(q[i]))
            assert np.array_equal(c[i], lane.coriolis_force(q[i], qdot[i]))
            assert np.array_equal(g[i], lane.gravity_force(q[i]))
        return acc

    @given(seed=st.integers(0, 2**32 - 1), num=st.sampled_from([1, 16]))
    @settings(max_examples=20, deadline=None)
    def test_lanes_equal_scalar_bits(self, seed, num):
        self.assert_lanes_equal_scalar(*self.lanes_and_states(num, seed))

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=10, deadline=None)
    def test_lane_permutation_permutes_bits(self, seed):
        lanes, q, qdot, tau = self.lanes_and_states(16, seed)
        direct = self.assert_lanes_equal_scalar(lanes, q, qdot, tau)
        perm = np.random.default_rng(seed).permutation(16)
        permuted = self.assert_lanes_equal_scalar(
            [lanes[j] for j in perm], q[perm], qdot[perm], tau[perm]
        )
        assert np.array_equal(permuted, direct[perm])

    def test_plant_step_with_a_still_lane(self):
        lanes, q, qdot, _ = self.lanes_and_states(16, seed=5)
        plants = []
        for lane, qi, wi in zip(lanes, q, qdot):
            plant = RavenPlant(dynamics=lane, initial_jpos=qi)
            plant.release_brakes()
            plant.set_state(qi, wi)
            plants.append(plant)
        batch = BatchedPlant(plants)
        dac = np.random.default_rng(6).integers(-20000, 20000, (16, 3)).astype(float)
        batch.step(dac)
        for i, plant in enumerate(plants):
            plant.step(dac[i])
            assert np.array_equal(batch._y[i], plant._y)


class TestHarness:
    def test_report_formats_mismatches(self):
        """The report names the lane and field of every divergence."""
        outcome_a = LaneOutcome(
            trace=None,
            fingerprint={"jpos_sha256": "aaaa", "cycles": 10},
            guard_stats={"alerts": 3},
        )
        outcome_b = LaneOutcome(
            trace=None,
            fingerprint={"jpos_sha256": "bbbb", "cycles": 10},
            guard_stats={"alerts": 5},
        )
        report = EquivalenceReport(
            names=["laneX"], scalar=[outcome_a], batched=[outcome_b]
        )
        assert not report.equivalent
        with pytest.raises(AssertionError) as excinfo:
            report.assert_equal()
        message = str(excinfo.value)
        assert "laneX" in message
        assert "jpos_sha256" in message
        assert "guard.alerts" in message
        assert "cycles" not in message
