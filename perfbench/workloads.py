"""The benchmark's four workloads, each a closed loop over the program.

Every workload runs *phases* made of *repeats*.  A repeat is a fixed amount
of work on a fresh set-up: one rig run, one batched run, or a fixed
number of fleet ticks or frontend rounds from newly registered sessions.
Every repeat of a phase gets the same inputs, made from the seed, so
period ``i`` of one repeat does exactly the work of period ``i`` of any
other.  A phase runs whole repeats until the one that ends nearest to
``seconds`` (and at least ``min_repeats``).  Inside a repeat the loop is
closed: the next control cycle, fleet tick or frontend round starts only
after the previous one returned.  The first repeat is checked against an
untimed reference run of the same seed, and every later repeat must
produce exactly the first one's outputs.

Every period's time is first scaled to the host's nominal speed by the
reference-kernel probes of :mod:`hostspeed`, taken between periods.  The
timings then charge period ``i`` the lower quartile of its scaled times
over the repeats, which drops most of the short stalls that the probes
are too coarse to follow.  Costs that every repeat pays (checkpoints, the
attack's E-STOP, sqlite writes) stay in the distribution.

- ``loop_guarded``: one scalar :class:`~repro.sim.rig.SurgicalRig` with a
  :class:`~repro.core.pipeline.DetectorGuard` under ``BLOCK`` and the
  RAVEN checks on; a scenario-B DAC injection fires in the last fifth of
  each 3 s repeat.  A period is one 1 ms control cycle.
- ``loop_batch16``: 16 such lanes stepped by
  :class:`~repro.sim.batch.BatchedSurgicalRig`.  A period is one cycle of
  all lanes.
- ``fleet_64``: an in-process :class:`~repro.fleet.FleetSupervisor` with
  64 sessions on :func:`~repro.experiments.fleet.frame_for` streams, an
  in-memory store and a checkpoint every 64 ticks.  A period is one tick.
- ``wire_64x1``: the same 64 streams through :mod:`repro.service` with one
  spawned worker and a sqlite store.  A period is one frontend round.
"""

from __future__ import annotations

import asyncio
import gc
import json
import os
import shutil
import subprocess
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional

import numpy as np

from hostspeed import HostSpeed
from layers import LayerTracer

_clock = time.perf_counter

#: Scenario-B injection: DAC offset (counts) and activation length (ms).
ATTACK_DAC = 26_000
ATTACK_MS = 64
#: Fleet checkpoint cadence, in ticks (the fleet bench's cadence).
CHECKPOINT_EVERY = 64
#: Repeats per untraced phase, at least, for the per-period lower
#: quartile to rest on.
MIN_REPEATS = 3


@dataclass(frozen=True)
class Size:
    """Workload sizes.  :data:`FULL` is the benchmark; :data:`TINY` is for
    the self-test."""

    guarded_duration_s: float
    #: Pedal-down cycles before the injection fires.  The pedal goes down
    #: at cycle 400, so 2400 puts the attack at cycle ~2800 of 3000, in
    #: the last fifth.  The attack comes late because BLOCK ends in E-STOP,
    #: after which the guard idles: late, guarded cycles are some 80% of
    #: the repeat and the median period sits well inside them.
    guarded_attack_delay: int
    batch_lanes: int
    batch_duration_s: float
    batch_attack_delay: int
    sessions: int
    #: Fleet ticks (or frontend rounds) per repeat; like the rig lengths,
    #: at least 1000 so that >= 10 periods fall beyond p99.
    fleet_ticks: int
    #: Sessions ``0..k-1`` replayed by the untimed fleet reference.
    reference_sessions: int
    #: Periods in the fixed prefix the exact per-period counts come from.
    window: int
    #: Set-ups before the first repeat whose time is also sampled
    #: (``setup_s`` is the median over these and one per repeat).
    extra_setups: int
    #: The same for ``wire_64x1``, where a set-up spawns a worker.
    wire_extra_setups: int
    #: Extra set-ups continue until this much time is spent, so that a
    #: set-up of a millisecond is sampled hundreds of times.
    setup_budget_s: float


FULL = Size(
    guarded_duration_s=3.0,
    guarded_attack_delay=2400,
    batch_lanes=16,
    batch_duration_s=1.1,
    batch_attack_delay=600,
    sessions=64,
    fleet_ticks=1024,
    reference_sessions=8,
    window=256,
    extra_setups=10,
    wire_extra_setups=4,
    setup_budget_s=0.5,
)

TINY = Size(
    guarded_duration_s=0.6,
    guarded_attack_delay=100,
    batch_lanes=3,
    batch_duration_s=0.6,
    batch_attack_delay=100,
    sessions=6,
    fleet_ticks=24,
    reference_sessions=3,
    window=16,
    extra_setups=1,
    wire_extra_setups=1,
    setup_budget_s=0.0,
)


@dataclass
class Phase:
    """What one timed phase measured and checked."""

    #: Measured period times of each repeat, in order.
    repeats: List[List[float]] = field(default_factory=list)
    speed: HostSpeed = field(default_factory=HostSpeed)
    #: Number of the first probe after each set-up.
    setup_probes: List[int] = field(default_factory=list)
    setups_s: List[float] = field(default_factory=list)
    #: Decisions over all repeats.
    decisions: int = 0
    attempted: int = 0
    failed: int = 0
    alerts: int = 0
    blocked: int = 0
    rejected: int = 0
    peak_rss_mb: float = 0.0
    #: Correctness-gate findings; empty means the outputs are correct.
    mismatches: List[str] = field(default_factory=list)
    #: What the gate compared, for the report.
    checked: str = ""
    worker_tracer: Optional[LayerTracer] = None

    @property
    def periods(self) -> int:
        """Periods recorded over all repeats (the next period's id)."""
        return sum(len(r) for r in self.repeats)

    def period_times_s(self, scaled: bool = True) -> np.ndarray:
        """Each period's lower-quartile time over the repeats, scaled to
        the host's nominal speed unless ``scaled`` is false."""
        factors = self.speed.factors(self.periods) if scaled else np.ones(self.periods)
        length = min(len(r) for r in self.repeats)
        rows, start = [], 0
        for times in self.repeats:
            rows.append(np.asarray(times[:length]) * factors[start:start + length])
            start += len(times)
        return np.quantile(rows, 0.25, axis=0)

    def add_setup(self, seconds: float) -> None:
        """Record one set-up time; probe between set-ups too."""
        self.setups_s.append(seconds)
        self.setup_probes.append(len(self.speed.times_s))
        self.speed.maybe_probe(self.periods)

    def setup_s(self) -> float:
        """Median set-up time, scaled to the host's nominal speed."""
        return float(np.median(self.speed.scale(self.setups_s, self.setup_probes)))

    @property
    def decisions_per_s(self) -> float:
        """Decisions of one repeat over the sum of :meth:`period_times_s`."""
        if not self.repeats or not min(len(r) for r in self.repeats):
            return 0.0
        return self.decisions / len(self.repeats) / float(self.period_times_s().sum())


def compare(label: str, got: Dict[str, Any], want: Dict[str, Any]) -> List[str]:
    """Correctness gate: every key of ``got`` must equal the reference."""
    return [
        f"{label}: {key} = {got.get(key)!r}, reference {want.get(key)!r}"
        for key in sorted(set(got) | set(want))
        if got.get(key) != want.get(key)
    ]


def peak_rss_mb(pid: Optional[int] = None) -> float:
    """Peak resident set (``VmHWM``) of ``pid`` (default: this process)."""
    status = Path(f"/proc/{pid or 'self'}/status")
    for line in status.read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM in {status}")


def _record(tracer: Optional[LayerTracer], on: bool) -> None:
    """Record spans only inside timed periods, never during set-up or the
    untimed checks (both of which call into instrumented layers)."""
    if tracer is not None:
        tracer.frozen = not on


def _extra_setups(size: Size, count: int) -> Iterator[int]:
    """At least ``count`` set-ups and, if any, until the set-up budget is
    spent."""
    started = _clock()
    done = 0
    while count and (done < count or _clock() - started < size.setup_budget_s):
        yield done
        done += 1


def _repeats(phase: Phase, seconds: float, min_repeats: int) -> Iterator[int]:
    """Repeat numbers: at least ``min_repeats``, then until the repeat that
    ends nearest to ``seconds`` (set-ups and checks included).

    Each repeat starts a new list in ``phase.repeats``.  The previous
    repeat's objects are collected before the next set-up, outside the
    timed periods.
    """
    started = _clock()
    done = 0
    while done < max(1, min_repeats) or (_clock() - started) * (1 + 0.5 / done) < seconds:
        gc.collect()
        phase.speed.probe(phase.periods)
        phase.repeats.append([])
        yield done
        done += 1
    phase.speed.probe(phase.periods)


# -- closed-loop rigs -----------------------------------------------------


def _thresholds():
    """Detector thresholds from the tracked default-scale cache.

    Refuses to recalibrate: a missing or stale cache would start a
    half-hour training run inside the timed set-up.
    """
    from repro.experiments.calibration import (
        calibration_config,
        get_thresholds,
        thresholds_cache_path,
    )
    from repro.experiments.parallel import load_versioned_json
    from repro.experiments.scale import DEFAULT

    path = thresholds_cache_path(DEFAULT)
    if load_versioned_json(path, calibration_config(DEFAULT)) is None:
        raise RuntimeError(f"threshold cache {path} is missing or stale")
    return get_thresholds(DEFAULT)


def _guarded_lane(seed: int, duration_s: float, delay: int):
    """One scenario-B lane with a fresh BLOCK-mode guard (thresholds load
    from the cache each time: that is part of set-up)."""
    from repro.core.mitigation import MitigationStrategy
    from repro.experiments.calibration import get_thresholds
    from repro.experiments.scale import DEFAULT
    from repro.sim.runner import make_detector_guard, scenario_b_lane

    guard = make_detector_guard(get_thresholds(DEFAULT), MitigationStrategy.BLOCK)
    spec, trigger, record = scenario_b_lane(
        seed,
        ATTACK_DAC,
        ATTACK_MS,
        duration_s=duration_s,
        guard=guard,
        attack_delay_cycles=delay,
    )
    return spec, guard, trigger, record


def _lane_outcome(trace, guard, trigger, record) -> Dict[str, Any]:
    """Fingerprint plus guard verdict summary of one finished lane."""
    from repro.sim.runner import _finalize

    _finalize(trace, trigger, record)
    return {
        "fingerprint": trace.fingerprint(),
        "alerts": guard.stats.alerts,
        "first_alert_cycle": guard.stats.first_alert_cycle,
    }


def _reference_lane(thresholds, seed: int, duration_s: float, delay: int):
    """Untimed scalar run of one lane through the program's entry point."""
    from repro.core.mitigation import MitigationStrategy
    from repro.sim.runner import make_detector_guard, run_scenario_b

    guard = make_detector_guard(thresholds, MitigationStrategy.BLOCK)
    result = run_scenario_b(
        seed,
        ATTACK_DAC,
        ATTACK_MS,
        duration_s=duration_s,
        guard=guard,
        attack_delay_cycles=delay,
    )
    return {
        "fingerprint": result.trace.fingerprint(),
        "alerts": guard.stats.alerts,
        "first_alert_cycle": guard.stats.first_alert_cycle,
    }


def _count_lane(phase: Phase, guard, lane_seed: int) -> None:
    """A decision is one DAC command gated by the guard."""
    stats = guard.stats
    phase.decisions += stats.packets_seen
    phase.attempted += stats.packets_seen
    phase.alerts += stats.alerts
    phase.blocked += stats.blocked
    if stats.blocked == 0:
        phase.mismatches.append(f"seed {lane_seed}: the guard never blocked the injection")


def _run_timed(rig, console, phase: Phase, tracer: Optional[LayerTracer], name: str):
    """``rig.run()`` with every control cycle timed from outside.

    A cycle starts at the console tick, the first call of every cycle, and
    ends when the next tick is called (the last when ``run`` returns).
    Host-speed probes run between the end of one cycle and the start of
    the next.
    """
    tick = console.tick
    times = phase.repeats[-1]
    started: List[float] = []

    def end_cycle() -> None:
        times.append(_clock() - started[0])
        if tracer is not None:
            tracer.end_period()

    def timed_tick(*args: Any, **kwargs: Any) -> Any:
        if started:
            end_cycle()
            phase.speed.maybe_probe(phase.periods)
        if tracer is not None:
            tracer.begin_period(name, phase.periods)
        started[:] = [_clock()]
        return tick(*args, **kwargs)

    console.tick = timed_tick
    _record(tracer, True)
    result = rig.run()
    end_cycle()
    if tracer is not None:
        tracer.mark_window()
    _record(tracer, False)
    return result


def run_loop_guarded(
    size: Size, seed: int, seconds: float, min_repeats: int,
    tracer: Optional[LayerTracer] = None, extra_setups: int = 0,
) -> Phase:
    phase = Phase()
    thresholds = _thresholds()
    duration, delay = size.guarded_duration_s, size.guarded_attack_delay

    def setup():
        t0 = _clock()
        lane = _guarded_lane(seed, duration, delay)
        rig = lane[0].build()
        phase.add_setup(_clock() - t0)
        return rig, lane

    for _ in _extra_setups(size, extra_setups):
        setup()
    if tracer is not None:
        tracer.reset()
        tracer.frozen = True
    outcome0: Dict[str, Any] = {}
    for repeat in _repeats(phase, seconds, min_repeats):
        rig, (spec, guard, trigger, record) = setup()
        trace = _run_timed(rig, rig.console, phase, tracer, "sim.cycle")
        _count_lane(phase, guard, seed)
        outcome = _lane_outcome(trace, guard, trigger, record)
        if repeat == 0:
            outcome0 = outcome
        else:
            phase.mismatches += compare(f"repeat {repeat}", outcome, outcome0)
        del rig, trace
    phase.peak_rss_mb = peak_rss_mb()
    reference = _reference_lane(thresholds, seed, duration, delay)
    phase.mismatches += compare(f"seed {seed}", outcome0, reference)
    phase.checked = (
        f"{len(phase.repeats)} repeat(s); seed {seed}: trace fingerprint, alert "
        f"count and first-alert cycle vs an untimed scalar run, and every "
        f"repeat vs the first"
    )
    return phase


def run_loop_batch16(
    size: Size, seed: int, seconds: float, min_repeats: int,
    tracer: Optional[LayerTracer] = None, extra_setups: int = 0,
) -> Phase:
    from repro.sim.batch import BatchedSurgicalRig

    phase = Phase()
    thresholds = _thresholds()
    duration, delay = size.batch_duration_s, size.batch_attack_delay
    lanes = size.batch_lanes

    def setup():
        t0 = _clock()
        built = [_guarded_lane(seed + i, duration, delay) for i in range(lanes)]
        rig = BatchedSurgicalRig([lane[0] for lane in built])
        phase.add_setup(_clock() - t0)
        return rig, built

    for _ in _extra_setups(size, extra_setups):
        setup()
    if tracer is not None:
        tracer.reset()
        tracer.frozen = True
    outcomes0: List[Dict[str, Any]] = []
    for repeat in _repeats(phase, seconds, min_repeats):
        rig, built = setup()
        traces = _run_timed(rig, rig.rigs[0].console, phase, tracer, "sim.batch_cycle")
        for i, (spec, guard, trigger, record) in enumerate(built):
            _count_lane(phase, guard, seed + i)
            outcome = _lane_outcome(traces[i], guard, trigger, record)
            if repeat == 0:
                outcomes0.append(outcome)
            else:
                phase.mismatches += compare(
                    f"repeat {repeat} lane {i}", outcome, outcomes0[i]
                )
        del rig, traces, built
    phase.peak_rss_mb = peak_rss_mb()
    sampled = [0, int(np.random.default_rng(seed).integers(1, lanes))]
    for lane in sampled:
        reference = _reference_lane(thresholds, seed + lane, duration, delay)
        phase.mismatches += compare(f"lane {lane}", outcomes0[lane], reference)
    phase.checked = (
        f"{len(phase.repeats)} repeat(s) of {lanes} lanes; lanes {sampled}: "
        f"fingerprint, alert count and first-alert cycle vs untimed scalar "
        f"runs, and every lane of every repeat vs the first repeat"
    )
    return phase


# -- fleet and wire -------------------------------------------------------


def _fleet_config():
    from repro.fleet import FleetConfig

    return FleetConfig(checkpoint_every=CHECKPOINT_EVERY)


def _specs(count: int):
    from repro.experiments.fleet import NOMINAL_THRESHOLDS, session_id
    from repro.fleet import SessionSpec

    return [
        SessionSpec(session_id=session_id(i), thresholds=NOMINAL_THRESHOLDS)
        for i in range(count)
    ]


def _check_repeat(
    phase: Phase, fingerprints: Dict[str, Dict[str, Any]], size: Size,
    seed: int, first: Dict[str, Dict[str, Any]],
) -> None:
    """Every session decided every frame.  The first repeat (``first``
    still empty, then filled) gates sessions ``0..k-1``
    (:attr:`Size.reference_sessions`) against ``run_fleet_campaign``;
    every later repeat must match the first for every session.

    Sessions are independent lanes, so the reference replays only the
    first few streams.
    """
    from repro.experiments.fleet import run_fleet_campaign

    ticks = size.fleet_ticks
    for sid, fp in fingerprints.items():
        if fp["decisions"] != ticks:
            phase.mismatches.append(f"{sid}: {fp['decisions']} decisions for {ticks} frames")
        phase.alerts += fp["stats"]["alerts"]
        phase.blocked += fp["stats"]["blocked"]
    if len(fingerprints) != size.sessions:
        phase.mismatches.append(f"{len(fingerprints)} sessions reported, {size.sessions} sent")
    if first:
        repeat = len(phase.repeats) - 1
        for sid, fp in first.items():
            phase.mismatches += compare(
                f"repeat {repeat} {sid}", fingerprints.get(sid, {}), fp
            )
        return
    first.update(fingerprints)
    want = run_fleet_campaign(
        num_sessions=size.reference_sessions, ticks=ticks, seed=seed,
        config=_fleet_config(),
    ).fingerprints
    for sid, fp in want.items():
        phase.mismatches += compare(f"seed {seed} {sid}", fingerprints.get(sid, {}), fp)


def _end_period(tracer: Optional[LayerTracer], frames: int, period: int, size: Size) -> None:
    if tracer is not None:
        tracer.end_period()
        tracer.count("frames", frames)
        if period + 1 == size.window:
            tracer.mark_window()


def run_fleet_64(
    size: Size, seed: int, seconds: float, min_repeats: int,
    tracer: Optional[LayerTracer] = None, extra_setups: int = 0,
) -> Phase:
    from repro.experiments.fleet import frame_for
    from repro.fleet import FleetSupervisor

    phase = Phase()
    specs = _specs(size.sessions)

    def setup():
        t0 = _clock()
        fleet = FleetSupervisor(config=_fleet_config())
        for spec in specs:
            fleet.register(spec)
        phase.add_setup(_clock() - t0)
        return fleet

    for _ in _extra_setups(size, extra_setups):
        setup()
    if tracer is not None:
        tracer.reset()
        tracer.frozen = True
    first: Dict[str, Dict[str, Any]] = {}
    for _ in _repeats(phase, seconds, min_repeats):
        fleet = setup()
        cursor = [0] * len(specs)
        _record(tracer, True)
        for tick in range(size.fleet_ticks):
            frames = [frame_for(seed, i, cursor[i]) for i in range(len(specs))]
            period = phase.periods
            if tracer is not None:
                tracer.begin_period("fleet.period", period)
            t0 = _clock()
            for i, frame in enumerate(frames):
                if fleet.ingest(specs[i].session_id, frame):
                    cursor[i] += 1
                else:
                    phase.rejected += 1
            report = fleet.tick(tick)
            phase.repeats[-1].append(_clock() - t0)
            _end_period(tracer, len(frames), period, size)
            phase.speed.maybe_probe(phase.periods)
            phase.attempted += len(frames)
            phase.decisions += report.frames_processed
            phase.failed += len(report.quarantined)
        _record(tracer, False)
        _check_repeat(phase, fleet.fingerprints(), size, seed, first)
        del fleet
    phase.failed += phase.rejected
    phase.peak_rss_mb = peak_rss_mb()
    phase.checked = (
        f"{len(phase.repeats)} repeat(s) of {size.fleet_ticks} ticks; every "
        f"session decided every frame; seed {seed}: in-process fingerprints of "
        f"sessions 0..{size.reference_sessions - 1} vs untimed "
        f"run_fleet_campaign, and every session of every repeat vs the first"
    )
    return phase


def _traced_worker_class():
    """A :class:`~repro.service.WorkerProcess` launched through the
    benchmark's own entry point, which wraps the worker's layers before
    handing over to ``repro.service.__main__.main``."""
    from repro.service import WorkerProcess

    entry = str(Path(__file__).resolve().parent / "traced_worker.py")

    class TracedWorkerProcess(WorkerProcess):
        def command(self) -> List[str]:
            argv = super().command()
            # argv is [python, "-m", "repro.service", "worker", ...].
            return [argv[0], entry] + argv[3:]

    return TracedWorkerProcess


def run_wire_64x1(
    size: Size, seed: int, seconds: float, min_repeats: int,
    tracer: Optional[LayerTracer] = None, extra_setups: int = 0,
) -> Phase:
    scratch = Path(__file__).resolve().parent / "out" / f"wire-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    # The frontend and the worker each get a core of their own, and the
    # host-speed probes time both.
    home = os.sched_getaffinity(0)
    cpus = sorted(home)
    placement = cpus[:2] if len(cpus) >= 2 else None
    if placement is not None:
        os.sched_setaffinity(0, {placement[0]})
    try:
        return asyncio.run(_wire_phase(
            size, seed, seconds, min_repeats, tracer, extra_setups, scratch, placement,
        ))
    finally:
        os.sched_setaffinity(0, home)
        shutil.rmtree(scratch, ignore_errors=True)


async def _wire_phase(
    size: Size, seed: int, seconds: float, min_repeats: int,
    tracer: Optional[LayerTracer], extra_setups: int, scratch: Path,
    placement: Optional[List[int]],
) -> Phase:
    from repro.errors import ServiceError
    from repro.service import WorkerProcess, connect_frontend

    phase = Phase(speed=HostSpeed(placement))
    specs = _specs(size.sessions)
    worker_cls: Callable[..., Any] = WorkerProcess
    if tracer is not None:
        worker_cls = _traced_worker_class()
        os.environ["PERFBENCH_WINDOW"] = str(size.window)
    setups = 0

    async def setup():
        """Spawn a worker on a fresh sqlite store, connect, register."""
        nonlocal setups
        setups += 1
        if tracer is not None:
            os.environ["PERFBENCH_WORKER_STATS"] = str(scratch / f"stats-{setups}.json")
            os.environ["PERFBENCH_PERIOD_BASE"] = str(phase.periods)
        t0 = _clock()
        worker = worker_cls(
            "w0", str(scratch / f"sessions-{setups}.sqlite"), fleet_config=_fleet_config(),
        )
        try:
            worker.start()
            if placement is not None:
                os.sched_setaffinity(worker.process.pid, {placement[1]})
            frontend = await connect_frontend({worker.name: worker.address})
            for spec in specs:
                await frontend.register(spec)
        except BaseException:
            worker.stop(timeout=10.0)
            raise
        phase.add_setup(_clock() - t0)
        return worker, frontend

    async def teardown(worker, frontend) -> None:
        try:
            await frontend.close(shutdown_workers=True)
            # Let the worker exit on its own: the traced worker writes its
            # layer statistics on the way out.
            worker.wait(timeout=10.0)
        except subprocess.TimeoutExpired:
            pass
        finally:
            worker.stop(timeout=10.0)

    for _ in _extra_setups(size, extra_setups):
        await teardown(*await setup())
    if tracer is not None:
        tracer.reset()
        tracer.frozen = True
    first: Dict[str, Dict[str, Any]] = {}
    for repeat in _repeats(phase, seconds, min_repeats):
        worker, frontend = await setup()
        fingerprints: Dict[str, Dict[str, Any]] = {}
        try:
            died = await _wire_repeat(phase, frontend, specs, size, seed, tracer)
            phase.peak_rss_mb = max(
                phase.peak_rss_mb, peak_rss_mb() + peak_rss_mb(worker.process.pid)
            )
            if not died:
                fingerprints = await frontend.fingerprints()
        except ServiceError as exc:
            phase.mismatches.append(f"repeat {repeat}: {type(exc).__name__}: {exc}")
            died = True
        finally:
            await teardown(worker, frontend)
        if tracer is not None:
            _merge_worker_stats(phase, scratch / f"stats-{setups}.json")
        if died:
            break
        _check_repeat(phase, fingerprints, size, seed, first)
    phase.failed += phase.rejected
    phase.checked = (
        f"{len(phase.repeats)} repeat(s) of {size.fleet_ticks} rounds; every "
        f"session decided every frame; seed {seed}: over-the-wire fingerprints "
        f"of sessions 0..{size.reference_sessions - 1} vs untimed "
        f"run_fleet_campaign, and every session of every repeat vs the first"
    )
    return phase


def _merge_worker_stats(phase: Phase, path: Path) -> None:
    if not path.exists():
        phase.mismatches.append("traced worker wrote no layer statistics")
        return
    stats = LayerTracer.from_dict(json.loads(path.read_text()))
    if phase.worker_tracer is None:
        phase.worker_tracer = stats
    else:
        phase.worker_tracer.merge(stats)


async def _wire_repeat(phase, frontend, specs, size, seed, tracer) -> bool:
    """One repeat of frontend rounds; True when a worker died."""
    cursor = [0] * len(specs)
    _record(tracer, True)
    try:
        return await _wire_rounds(phase, frontend, specs, size, seed, tracer, cursor)
    finally:
        _record(tracer, False)


async def _wire_rounds(phase, frontend, specs, size, seed, tracer, cursor) -> bool:
    from repro.errors import ServiceError
    from repro.experiments.fleet import frame_for

    for tick in range(size.fleet_ticks):
        frames = {
            spec.session_id: frame_for(seed, i, cursor[i]) for i, spec in enumerate(specs)
        }
        period = phase.periods
        if tracer is not None:
            tracer.begin_period("service.round", period)
        t0 = _clock()
        try:
            outcome = await frontend.run_tick(tick, frames)
        except ServiceError as exc:
            # A dead worker or a failed operation fails the run; the round
            # is never reported as a fast one.
            if tracer is not None:
                tracer.end_period()
            phase.attempted += len(frames)
            phase.failed += len(frames)
            phase.mismatches.append(f"round {tick}: {type(exc).__name__}: {exc}")
            return True
        phase.repeats[-1].append(_clock() - t0)
        _end_period(tracer, len(frames), period, size)
        phase.speed.maybe_probe(phase.periods)
        phase.attempted += len(frames)
        for i, spec in enumerate(specs):
            if outcome.accepted.get(spec.session_id):
                cursor[i] += 1
            else:
                phase.rejected += 1
        phase.decisions += sum(len(v) for v in outcome.decisions.values())
        for report in outcome.reports.values():
            phase.failed += len(report["quarantined"])
        if outcome.dead_workers or outcome.lost or outcome.rewinds:
            phase.failed += len(frames)
            phase.mismatches.append(f"round {tick}: worker died {outcome.dead_workers}")
            return True
    return False


#: name -> phase runner
WORKLOADS: Dict[str, Callable[..., Phase]] = {
    "loop_guarded": run_loop_guarded,
    "loop_batch16": run_loop_batch16,
    "fleet_64": run_fleet_64,
    "wire_64x1": run_wire_64x1,
}

#: name -> root span of one period
PERIOD_SPANS: Dict[str, str] = {
    "loop_guarded": "sim.cycle",
    "loop_batch16": "sim.batch_cycle",
    "fleet_64": "fleet.period",
    "wire_64x1": "service.round",
}
