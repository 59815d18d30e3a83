"""Per-layer timing from outside the program.

The traced run wraps the public entry points of each layer (console tick,
controller tick, ``write`` syscall, USB board, guard, estimator, detector,
plant, fleet supervisor, store, wire codec, worker dispatch) in this
process, so no file under ``src/`` changes.  Every wrapped call is a span.
Spans nest on one stack; a span's *self* time is its duration minus the
time its child spans cover.  The workload loop opens one root span per
period (control cycle, fleet tick or frontend round), so every span in a
period carries that period's id, and the root's self time is the part of
the period that no instrumented layer claims.

A :class:`LayerTracer` keeps per-name aggregates (calls, inclusive and
self seconds), per-call samples for the guard verdict, byte and frame
counters, and the first :data:`CHROME_SPAN_LIMIT` spans for a Chrome
trace.  :meth:`LayerTracer.mark_window` freezes a copy of the counters
after a fixed prefix of work, so per-period counts computed from it repeat
exactly for a given seed however long the run lasts.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

#: Spans kept for the Chrome trace (per process); later spans still count
#: in the aggregates.
CHROME_SPAN_LIMIT = 30_000

_clock = time.perf_counter


def _remove(stack: List[List[float]], frame: List[float]) -> None:
    """Remove ``frame`` itself from ``stack`` (equal frames may coexist)."""
    for i in range(len(stack) - 1, -1, -1):
        if stack[i] is frame:
            del stack[i]
            return


class LayerTracer:
    """Span stack plus per-name aggregates for one process."""

    def __init__(self, chrome_limit: int = CHROME_SPAN_LIMIT) -> None:
        self.chrome_limit = chrome_limit
        #: Open spans, innermost last; each entry is ``[child_seconds]``.
        #: Wrappers hold a reference to this exact list.
        self.stack: List[List[float]] = []
        self.period = 0
        self.frozen = False
        self.last_dur = 0.0
        self.reset()

    def reset(self) -> None:
        """Drop everything recorded so far (set-up spans, for example)."""
        self.calls: Dict[str, int] = {}
        self.incl_s: Dict[str, float] = {}
        self.self_s: Dict[str, float] = {}
        self.samples: Dict[str, List[float]] = {}
        self.counts: Dict[str, float] = {}
        self.events: List[Tuple[str, float, float, int]] = []
        self.window: Optional[Dict[str, Dict[str, float]]] = None
        self._root: Optional[Tuple[str, float, List[float]]] = None

    # -- recording -------------------------------------------------------

    def record(self, name: str, start: float, dur: float, self_dur: float) -> None:
        self.last_dur = dur
        if self.frozen:
            return
        self.calls[name] = self.calls.get(name, 0) + 1
        self.incl_s[name] = self.incl_s.get(name, 0.0) + dur
        self.self_s[name] = self.self_s.get(name, 0.0) + self_dur
        if len(self.events) < self.chrome_limit:
            self.events.append((name, start, dur, self.period))

    def sample(self, name: str, value: float) -> None:
        if not self.frozen:
            self.samples.setdefault(name, []).append(value)

    def count(self, name: str, amount: float = 1) -> None:
        if not self.frozen:
            self.counts[name] = self.counts.get(name, 0) + amount

    # -- periods ---------------------------------------------------------

    def begin_period(self, name: str, period: int) -> None:
        """Close the open period (if any) and open period ``period``."""
        self.end_period()
        self.period = period
        frame = [0.0]
        self.stack.append(frame)
        self._root = (name, _clock(), frame)

    def end_period(self) -> None:
        if self._root is None:
            return
        name, start, frame = self._root
        dur = _clock() - start
        # The root is the bottom of the stack: by the time a period ends
        # every span opened inside it has closed.
        _remove(self.stack, frame)
        self._root = None
        self.record(name, start, dur, dur - frame[0])
        self.count("periods")

    def mark_window(self) -> None:
        """Freeze a copy of the counters: the fixed-size prefix of work."""
        if self.window is None:
            self.window = {"calls": dict(self.calls), "counts": dict(self.counts)}

    # -- aggregates ------------------------------------------------------

    def mean_incl_us(self, name: str) -> float:
        calls = self.calls.get(name, 0)
        return self.incl_s.get(name, 0.0) / calls * 1e6 if calls else 0.0

    def mean_self_us(self, name: str) -> float:
        calls = self.calls.get(name, 0)
        return self.self_s.get(name, 0.0) / calls * 1e6 if calls else 0.0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "calls": self.calls,
            "incl_s": self.incl_s,
            "self_s": self.self_s,
            "samples": self.samples,
            "counts": self.counts,
            "window": self.window,
            "events": self.events,
        }

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_dict(), handle)

    def merge(self, other: "LayerTracer") -> None:
        """Add another tracer's aggregates (a later worker process)."""
        for name, calls in other.calls.items():
            self.calls[name] = self.calls.get(name, 0) + calls
            self.incl_s[name] = self.incl_s.get(name, 0.0) + other.incl_s[name]
            self.self_s[name] = self.self_s.get(name, 0.0) + other.self_s[name]
        for name, values in other.samples.items():
            self.samples.setdefault(name, []).extend(values)
        for name, amount in other.counts.items():
            self.counts[name] = self.counts.get(name, 0) + amount
        room = self.chrome_limit - len(self.events)
        self.events.extend(other.events[:max(0, room)])
        if self.window is None:
            self.window = other.window

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "LayerTracer":
        tracer = cls()
        tracer.calls = dict(data["calls"])
        tracer.incl_s = dict(data["incl_s"])
        tracer.self_s = dict(data["self_s"])
        tracer.samples = {k: list(v) for k, v in data["samples"].items()}
        tracer.counts = dict(data["counts"])
        tracer.window = data["window"]
        tracer.events = [tuple(e) for e in data["events"]]
        return tracer


# -- wrappers -------------------------------------------------------------


def _timed(tracer: LayerTracer, fn: Callable, name: str) -> Callable:
    stack = tracer.stack
    record = tracer.record

    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        frame = [0.0]
        stack.append(frame)
        start = _clock()
        try:
            return fn(*args, **kwargs)
        finally:
            dur = _clock() - start
            stack.pop()
            if stack:
                stack[-1][0] += dur
            record(name, start, dur, dur - frame[0])

    return wrapper


def _timed_async(tracer: LayerTracer, fn: Callable, name: str) -> Callable:
    stack = tracer.stack
    record = tracer.record

    @functools.wraps(fn)
    async def wrapper(*args: Any, **kwargs: Any) -> Any:
        frame = [0.0]
        stack.append(frame)
        start = _clock()
        try:
            return await fn(*args, **kwargs)
        finally:
            dur = _clock() - start
            _remove(stack, frame)
            if stack:
                stack[-1][0] += dur
            record(name, start, dur, dur - frame[0])

    return wrapper


class Instrumentation:
    """Installs span wrappers on classes and modules; restores on close."""

    def __init__(self, tracer: LayerTracer) -> None:
        self.tracer = tracer
        self._saved: List[Tuple[Any, str, Any]] = []

    def _swap(self, owner: Any, attr: str, wrapper: Callable) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def span(self, owner: Any, attr: str, name: str) -> None:
        """Time every call of ``owner.attr`` as span ``name``."""
        fn = owner.__dict__[attr]
        if inspect.iscoroutinefunction(fn):
            self._swap(owner, attr, _timed_async(self.tracer, fn, name))
        else:
            self._swap(owner, attr, _timed(self.tracer, fn, name))

    def span_with(
        self, owner: Any, attr: str, name: str, after: Callable[..., None]
    ) -> None:
        """Like :meth:`span`, then ``after(args, result)`` on success."""
        timed = _timed(self.tracer, owner.__dict__[attr], name)

        @functools.wraps(timed)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            result = timed(*args, **kwargs)
            after(args, result)
            return result

        self._swap(owner, attr, wrapper)

    def guard_verdict(self, owner: Any, attr: str, name: str) -> None:
        """Time the guard hook; sample its duration when it evaluated."""
        timed = _timed(self.tracer, owner.__dict__[attr], name)
        tracer = self.tracer

        @functools.wraps(timed)
        def wrapper(guard: Any, *args: Any) -> Any:
            before = guard.stats.packets_evaluated
            result = timed(guard, *args)
            if guard.stats.packets_evaluated != before:
                tracer.sample("core.guard_verdict", tracer.last_dur)
            return result

        self._swap(owner, attr, wrapper)

    def close(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def _core_and_fleet(inst: Instrumentation) -> None:
    """Spans shared by the in-process fleet and the service worker."""
    from repro.core.detector import AnomalyDetector
    from repro.core.estimator import BatchedNextStateEstimator, NextStateEstimator
    from repro.dynamics.batch import BatchedManipulatorDynamics
    from repro.dynamics.manipulator import ManipulatorDynamics
    from repro.fleet.session import FleetSession, TelemetryFrame
    from repro.fleet.store import InMemorySessionStore, SqliteSessionStore
    from repro.fleet.supervisor import FleetSupervisor, _SessionPack

    inst.span(NextStateEstimator, "estimate", "core.estimate")
    inst.span(AnomalyDetector, "evaluate", "core.detect")
    inst.span(BatchedNextStateEstimator, "estimate", "core.batch_estimate")
    inst.span(BatchedNextStateEstimator, "sync", "core.batch_sync")
    inst.span(BatchedNextStateEstimator, "coast", "core.batch_coast")
    inst.span(ManipulatorDynamics, "acceleration", "dynamics.accel")
    inst.span(BatchedManipulatorDynamics, "acceleration", "dynamics.accel")
    inst.span(_SessionPack, "finalize", "core.batch_finalize")
    inst.span(FleetSupervisor, "ingest", "fleet.ingest")
    inst.span(FleetSupervisor, "_process_frame", "fleet.lane_process")
    inst.span(FleetSupervisor, "tick", "fleet.tick")
    inst.span(FleetSupervisor, "checkpoint", "fleet.checkpoint")
    inst.span(TelemetryFrame, "to_packet", "fleet.to_packet")
    inst.span(FleetSession, "record_decision", "fleet.chain")
    inst.span(InMemorySessionStore, "save", "store.save")
    inst.span(SqliteSessionStore, "save", "store.save")


def install_frontend(tracer: LayerTracer) -> Instrumentation:
    """Wrap every layer the benchmark process itself runs."""
    from repro.control.controller import RavenController
    from repro.core.pipeline import DetectorGuard
    from repro.dynamics.batch import BatchedPlant
    from repro.hw.motor_controller import MotorController
    from repro.hw.plc import Plc
    from repro.hw.usb_board import UsbBoard
    from repro.service import protocol
    from repro.service.client import ServiceClient
    from repro.sim.batch import _BatchGuardCoordinator
    from repro.sim.trace import RunTrace
    from repro.sysmodel.process import Process
    from repro.teleop.console import MasterConsoleEmulator

    inst = Instrumentation(tracer)
    inst.span(MasterConsoleEmulator, "tick", "teleop.console_tick")
    inst.span(RavenController, "tick", "control.controller_tick")
    inst.span(Process, "write", "sysmodel.write")
    inst.span(Process, "read", "sysmodel.read")
    inst.span(Process, "recvfrom", "sysmodel.recvfrom")
    inst.span(UsbBoard, "fd_write", "hw.usb_write")
    inst.span(UsbBoard, "fd_read", "hw.usb_read")
    inst.span(Plc, "tick", "hw.plc_tick")
    inst.span(MotorController, "tick", "dynamics.plant_tick")
    inst.span(BatchedPlant, "step", "dynamics.batch_plant_step")
    inst.span(RunTrace, "record", "sim.trace_record")
    inst.span(_BatchGuardCoordinator, "finalize", "core.batch_finalize")
    inst.guard_verdict(DetectorGuard, "__call__", "core.guard_call")
    _core_and_fleet(inst)
    inst.span(ServiceClient, "pipeline", "service.round_trip")
    inst.span_with(
        protocol, "encode_message", "service.encode",
        lambda args, out: tracer.count("service.bytes", len(out)),
    )
    inst.span_with(
        protocol, "decode_body", "service.decode",
        lambda args, out: tracer.count("service.bytes", len(args[0]) + 4),
    )
    return inst


def install_worker(
    tracer: LayerTracer, window_rounds: int, period_base: int = 0
) -> Instrumentation:
    """Wrap the service worker's layers (run inside the worker process).

    The worker's period id starts at ``period_base`` (the frontend's id of
    the first round this worker serves) and advances with each ``tick``
    operation, so worker spans carry the frontend round's id.  Spans
    before the first ``ingest`` or ``tick`` (session registration) are
    dropped, and recording freezes at the first other operation after
    that (the final fingerprint fetch and shutdown), so the aggregates
    cover exactly the timed rounds.
    """
    from repro.service import protocol
    from repro.service.worker import ServiceWorker

    inst = Instrumentation(tracer)
    _core_and_fleet(inst)
    inst.span(protocol, "encode_message", "service.worker_encode")
    inst.span(protocol, "decode_body", "service.worker_decode")

    tracer.period = period_base

    def after_tick(args: Any, result: Any) -> None:
        tracer.period += 1
        tracer.count("periods")
        if tracer.period - period_base == window_rounds:
            tracer.mark_window()

    inst.span_with(ServiceWorker, "_op_tick", "service.worker_tick", after_tick)

    dispatch = _timed(tracer, ServiceWorker.__dict__["dispatch"], "service.worker_dispatch")
    state = {"ticking": False}

    @functools.wraps(dispatch)
    def gated_dispatch(worker: Any, message: Dict[str, Any]) -> Any:
        streaming = message.get("op") in ("ingest", "tick")
        if streaming and not state["ticking"]:
            state["ticking"] = True
            tracer.reset()
        elif not streaming and state["ticking"]:
            tracer.frozen = True
        return dispatch(worker, message)

    inst._swap(ServiceWorker, "dispatch", gated_dispatch)
    return inst


# -- per-layer metrics ----------------------------------------------------

#: ``(name, unit, better)`` of every per-layer metric, in report order.
LAYER_METRICS: List[Tuple[str, str, str]] = [
    ("sim.cycle_self_us", "us", "lower"),
    ("sim.trace_record_us", "us", "lower"),
    ("sim.batch_cycle_self_us", "us", "lower"),
    ("teleop.console_tick_us", "us", "lower"),
    ("control.controller_tick_self_us", "us", "lower"),
    ("sysmodel.write_hook_us", "us", "lower"),
    ("hw.usb_write_self_us", "us", "lower"),
    ("hw.usb_read_us", "us", "lower"),
    ("hw.plc_tick_us", "us", "lower"),
    ("core.guard_verdict_us_p50", "us", "lower"),
    ("core.guard_verdict_us_p99", "us", "lower"),
    ("core.estimate_us", "us", "lower"),
    ("core.detect_us", "us", "lower"),
    ("core.batch_estimate_us", "us", "lower"),
    ("core.batch_detect_us", "us", "lower"),
    ("core.commands_evaluated", "count", "higher"),
    ("core.alerts", "count", "higher"),
    ("core.blocked", "count", "higher"),
    ("core.detect_calls_per_tick", "count", "lower"),
    ("dynamics.plant_tick_us", "us", "lower"),
    ("dynamics.batch_plant_step_us", "us", "lower"),
    ("dynamics.accel_calls_per_cycle", "count", "lower"),
    ("fleet.ingest_us", "us", "lower"),
    ("fleet.lane_process_us", "us", "lower"),
    ("fleet.to_packet_us", "us", "lower"),
    ("fleet.chain_us", "us", "lower"),
    ("fleet.checkpoint_us", "us", "lower"),
    ("fleet.tick_self_us", "us", "lower"),
    ("fleet.frames_processed", "count", "higher"),
    ("fleet.frames_rejected", "count", "lower"),
    ("fleet.checkpoints", "count", "lower"),
    ("store.save_us", "us", "lower"),
    ("service.encode_us", "us", "lower"),
    ("service.decode_us", "us", "lower"),
    ("service.round_trip_us", "us", "lower"),
    ("service.wait_us", "us", "lower"),
    ("service.worker_dispatch_us", "us", "lower"),
    ("service.worker_tick_us", "us", "lower"),
    ("service.messages_per_round", "count", "lower"),
    ("service.bytes_per_frame", "B", "lower"),
    ("bench.trace_overhead_ratio", "ratio", "lower"),
]


def _per_period(window: Optional[Dict[str, Dict[str, float]]], name: str) -> float:
    """Calls of ``name`` per period inside the fixed window."""
    if not window:
        return 0.0
    periods = window["counts"].get("periods", 0)
    return window["calls"].get(name, 0) / periods if periods else 0.0


def layer_metrics(
    front: LayerTracer,
    worker: Optional[LayerTracer],
    run_counts: Dict[str, float],
    overhead_ratio: float,
) -> Dict[str, float]:
    """Every per-layer metric, from the traced phase's aggregates.

    ``*_us`` timings are means per call; ``*_self_us`` exclude the time
    of instrumented child spans.  Layers a workload does not cross read 0.
    On the wire workload the fleet, core and store layers run in the
    worker, so their numbers come from the worker's tracer.
    """
    # Worker-side layers replace the (empty) frontend ones by name.
    side = worker if worker is not None else front

    def incl(name: str) -> float:
        return side.incl_s.get(name, 0.0)

    verdicts = np.asarray(front.samples.get("core.guard_verdict", []), dtype=float)
    finalize_calls = side.calls.get("core.batch_finalize", 0)
    batch_detect_s = (
        incl("core.batch_finalize")
        - incl("core.batch_estimate")
        - incl("core.batch_sync")
        - incl("core.batch_coast")
    )
    rounds = front.calls.get("service.round_trip", 0)
    wait_us = 0.0
    if worker is not None and rounds:
        busy_s = (
            incl("service.worker_dispatch")
            + incl("service.worker_encode")
            + incl("service.worker_decode")
        )
        wait_us = (front.incl_s["service.round_trip"] - busy_s) / rounds * 1e6
    window = front.window
    frames = window["counts"].get("frames", 0) if window else 0
    return {
        "sim.cycle_self_us": front.mean_self_us("sim.cycle"),
        "sim.trace_record_us": front.mean_incl_us("sim.trace_record"),
        "sim.batch_cycle_self_us": front.mean_self_us("sim.batch_cycle"),
        "teleop.console_tick_us": front.mean_incl_us("teleop.console_tick"),
        "control.controller_tick_self_us": front.mean_self_us("control.controller_tick"),
        "sysmodel.write_hook_us": front.mean_self_us("sysmodel.write"),
        "hw.usb_write_self_us": front.mean_self_us("hw.usb_write"),
        "hw.usb_read_us": front.mean_incl_us("hw.usb_read"),
        "hw.plc_tick_us": front.mean_incl_us("hw.plc_tick"),
        "core.guard_verdict_us_p50": (
            float(np.percentile(verdicts, 50)) * 1e6 if verdicts.size else 0.0
        ),
        "core.guard_verdict_us_p99": (
            float(np.percentile(verdicts, 99)) * 1e6 if verdicts.size else 0.0
        ),
        "core.estimate_us": side.mean_incl_us("core.estimate"),
        "core.detect_us": side.mean_incl_us("core.detect"),
        "core.batch_estimate_us": side.mean_incl_us("core.batch_estimate"),
        "core.batch_detect_us": (
            batch_detect_s / finalize_calls * 1e6 if finalize_calls else 0.0
        ),
        "core.commands_evaluated": float(side.calls.get("core.detect", 0)),
        "core.alerts": float(run_counts.get("alerts", 0)),
        "core.blocked": float(run_counts.get("blocked", 0)),
        "core.detect_calls_per_tick": _per_period(side.window, "core.detect"),
        "dynamics.plant_tick_us": front.mean_incl_us("dynamics.plant_tick"),
        "dynamics.batch_plant_step_us": front.mean_incl_us("dynamics.batch_plant_step"),
        "dynamics.accel_calls_per_cycle": _per_period(side.window, "dynamics.accel"),
        "fleet.ingest_us": side.mean_incl_us("fleet.ingest"),
        "fleet.lane_process_us": side.mean_self_us("fleet.lane_process"),
        "fleet.to_packet_us": side.mean_incl_us("fleet.to_packet"),
        "fleet.chain_us": side.mean_incl_us("fleet.chain"),
        "fleet.checkpoint_us": side.mean_self_us("fleet.checkpoint"),
        "fleet.tick_self_us": side.mean_self_us("fleet.tick"),
        "fleet.frames_processed": float(side.calls.get("fleet.lane_process", 0)),
        "fleet.frames_rejected": float(run_counts.get("rejected", 0)),
        "fleet.checkpoints": float(side.calls.get("fleet.checkpoint", 0)),
        "store.save_us": side.mean_incl_us("store.save"),
        "service.encode_us": front.mean_incl_us("service.encode"),
        "service.decode_us": front.mean_incl_us("service.decode"),
        "service.round_trip_us": front.mean_incl_us("service.round_trip"),
        "service.wait_us": wait_us,
        "service.worker_dispatch_us": side.mean_self_us("service.worker_dispatch"),
        "service.worker_tick_us": side.mean_self_us("service.worker_tick"),
        "service.messages_per_round": _per_period(window, "service.encode"),
        "service.bytes_per_frame": (
            window["counts"].get("service.bytes", 0) / frames if frames else 0.0
        ),
        "bench.trace_overhead_ratio": overhead_ratio,
    }


def self_time_table(
    tracers: List[Tuple[str, LayerTracer]], period_name: str
) -> List[str]:
    """Per-span self-time table, grouped by layer, as text lines.

    ``self us/period`` divides each span's total self time by the number
    of periods, so the column sums to the mean period (for spans in the
    process that owns the period).
    """
    front = tracers[0][1]
    periods = front.calls.get(period_name, 0) or 1
    period_us = front.incl_s.get(period_name, 0.0) / periods * 1e6
    lines = [
        f"per-layer self time ({periods} traced periods, "
        f"mean period {period_us:.1f} us)",
        f"  {'process':<8} {'span':<30} {'calls':>9} {'calls/period':>12} "
        f"{'incl us/call':>12} {'self us/call':>12} {'self us/period':>14} "
        f"{'share':>6}",
    ]
    for process, tracer in tracers:
        for name in sorted(tracer.calls):
            calls = tracer.calls[name]
            self_per_period = tracer.self_s[name] / periods * 1e6
            share = self_per_period / period_us if period_us else 0.0
            lines.append(
                f"  {process:<8} {name:<30} {calls:>9d} {calls / periods:>12.2f} "
                f"{tracer.mean_incl_us(name):>12.2f} "
                f"{tracer.mean_self_us(name):>12.2f} "
                f"{self_per_period:>14.2f} {share:>6.1%}"
            )
    return lines


def write_chrome(
    path: str, tracers: List[Tuple[str, LayerTracer]]
) -> Tuple[bool, str]:
    """Write the recorded spans as one Chrome trace and validate it.

    Uses the program's own exporter and validator
    (:mod:`repro.obs.tracer`, :mod:`repro.obs.export`); each process gets
    its own thread lane, and every span carries its period id.
    """
    from repro.obs.export import validate_chrome_trace, write_chrome_trace
    from repro.obs.tracer import SpanTracer

    starts = [e[1] for _, t in tracers for e in t.events]
    chrome = SpanTracer(max_spans=sum(len(t.events) for _, t in tracers) + 1)
    chrome.origin_s = min(starts) if starts else 0.0
    for tid, (process, tracer) in enumerate(tracers):
        for name, start, dur, period in tracer.events:
            chrome.add_span(
                name, start_s=start, dur_s=dur, cat=name.split(".")[0],
                tid=tid, period=period, process=process,
            )
    write_chrome_trace(path, chrome, process_name="perfbench")
    return validate_chrome_trace(path)
