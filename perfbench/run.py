"""The repository's benchmark: the guard's verdict budget, end to end.

Run from the repository root::

    python3 perfbench/run.py --workload loop_guarded --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 0

With ``--trace 0`` a workload is measured with no instrumentation and the
end-to-end metrics are reported.  A workload repeats the same seeded work
on fresh set-ups for ``--seconds``; each period's time is scaled to the
host's nominal speed by reference-kernel probes taken between periods
(see ``hostspeed.py``), each period is charged the lower quartile of its
scaled times over the repeats, and the timings are computed from those
(see ``workloads.py``).  The unscaled figures are printed alongside.  With ``--trace 1`` the same workload
runs twice — a third of ``--seconds`` untraced, two thirds with every
layer's entry points wrapped in spans (see ``layers.py``) — and the
per-layer metrics, a self-time table, a validated Chrome trace and the
tracing overhead are reported.  Every run checks its outputs against an
untimed reference run of the same seed and stamps the result with the
machine and source it ran on.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is
0 only when the outputs were correct.  See ``README.md`` for the
workloads, the metrics and which layer metric should move which
end-to-end metric.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

#: ``(name, unit)`` of every end-to-end metric.
END_TO_END = [
    ("decisions_per_s", "1/s"),
    ("period_ms_p50", "ms"),
    ("period_ms_p99", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
]

WORKLOAD_NAMES = ["loop_guarded", "loop_batch16", "fleet_64", "wire_64x1"]

#: Thread-pool sizes pinned to 1 before numpy loads (see ``_bootstrap``).
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _bootstrap() -> None:
    """Import the program from this checkout's ``src/``, with a clean
    environment: ``REPRO_*`` settings (telemetry, fleet tuning, scale)
    would change what is measured, so none reach the program or its
    worker processes, and BLAS runs on one thread."""
    src = str(ROOT / "src")
    sys.path.insert(0, src)
    sys.path.insert(0, str(HERE))
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    # The program calls numpy on 3-vectors and small (N, 3, 3) stacks; a
    # BLAS thread pool only adds scheduling noise there, and on the wire
    # workload it would oversubscribe the cores the two processes share.
    for key in BLAS_THREAD_VARS:
        os.environ[key] = "1"
    path = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = src + (os.pathsep + path if path else "")


def _git(*args: str) -> str:
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), *args],
            capture_output=True, text=True, timeout=30, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return ""
    return done.stdout.strip()


def stamp() -> Dict[str, Any]:
    """Machine and source fingerprint attached to every result.

    ``commit`` and ``dirty`` come from git when the checkout is a git
    repository (``none`` otherwise); ``src_sha256`` hashes every file
    under ``src/`` so results stay attributable without git.
    """
    import numpy

    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    inside = _git("rev-parse", "--show-toplevel")
    is_repo = bool(inside) and Path(inside).resolve() == ROOT
    cpu = ""
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.exists():
        for line in cpuinfo.read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "commit": _git("rev-parse", "HEAD") if is_repo else "none",
        "dirty": (
            bool(_git("status", "--porcelain", "--untracked-files=no"))
            if is_repo else None
        ),
        "src_sha256": digest.hexdigest()[:16],
    }


def end_to_end(phase) -> Dict[str, float]:
    import numpy as np

    periods = phase.period_times_s()
    return {
        "decisions_per_s": phase.decisions_per_s,
        "period_ms_p50": float(np.percentile(periods, 50)) * 1e3,
        "period_ms_p99": float(np.percentile(periods, 99)) * 1e3,
        "setup_s": phase.setup_s(),
        "peak_rss_mb": phase.peak_rss_mb,
    }


def _phase_lines(label: str, phase) -> List[str]:
    import statistics

    import numpy as np
    from hostspeed import NOMINAL_PROBE_S

    length = min(len(r) for r in phase.repeats)
    busy = [sum(r) for r in phase.repeats]
    raw = phase.period_times_s(scaled=False)
    per_repeat = phase.decisions / len(phase.repeats)
    frac = phase.failed / phase.attempted if phase.attempted else 1.0
    return [
        f"{label}: {len(phase.repeats)} repeat(s) of {length} periods "
        f"({length // 100} beyond p99), {phase.decisions} decisions; busy s "
        f"per repeat min {min(busy):.3f} median {statistics.median(busy):.3f} "
        f"max {max(busy):.3f}; {len(phase.setups_s)} set-ups",
        f"{label}: host speed: {len(phase.speed.times_s)} probes, median "
        f"{phase.speed.median_probe_s() * 1e3:.4f} ms (nominal "
        f"{NOMINAL_PROBE_S * 1e3:.4f} ms); unscaled: {per_repeat / raw.sum():.6g} "
        f"decisions/s, p50 {np.percentile(raw, 50) * 1e3:.6g} ms, p99 "
        f"{np.percentile(raw, 99) * 1e3:.6g} ms, set-up "
        f"{statistics.median(phase.setups_s):.6g} s",
        f"{label}: failed_frac {frac:.6f} ratio "
        f"({phase.failed} failed / {phase.attempted} attempted)",
        f"{label}: correctness gate "
        + ("passed" if not phase.mismatches else "FAILED")
        + f" — {phase.checked or 'not reached'}",
    ] + [f"{label}:   mismatch: {m}" for m in phase.mismatches]


def run_one(name: str, seed: int, seconds: float, trace: bool, tiny: bool) -> Dict[str, Any]:
    """Run one workload; print its report; return the result object."""
    import workloads
    from layers import LAYER_METRICS, LayerTracer, install_frontend, layer_metrics
    from layers import self_time_table, write_chrome

    size = workloads.TINY if tiny else workloads.FULL
    runner = workloads.WORKLOADS[name]
    info = stamp()
    OUT.mkdir(exist_ok=True)
    print(f"perfbench {name} seed={seed} seconds={seconds:g} trace={int(trace)}"
          f"{' tiny' if tiny else ''}")
    print("stamp: " + " ".join(f"{k}={v}" for k, v in info.items()))
    lines: List[str] = []
    if not trace:
        extra = size.wire_extra_setups if name == "wire_64x1" else size.extra_setups
        phase = runner(size, seed, seconds, workloads.MIN_REPEATS, None, extra)
        phases = [phase]
        values = end_to_end(phase)
        units = dict(END_TO_END)
        lines += _phase_lines("untraced", phase)
    else:
        base = runner(size, seed, seconds / 3, 1, None)
        tracer = LayerTracer()
        instrumentation = install_frontend(tracer)
        try:
            traced = runner(size, seed, seconds * 2 / 3, 1, tracer)
        finally:
            instrumentation.close()
        phases = [base, traced]
        overhead = (
            base.decisions_per_s / traced.decisions_per_s
            if traced.decisions_per_s else 0.0
        )
        values = layer_metrics(
            tracer, traced.worker_tracer,
            {"alerts": traced.alerts, "blocked": traced.blocked,
             "rejected": traced.rejected},
            overhead,
        )
        units = {metric: unit for metric, unit, _ in LAYER_METRICS}
        processes = [("bench", tracer)]
        if traced.worker_tracer is not None:
            processes.append(("worker", traced.worker_tracer))
        chrome_path = OUT / f"{name}-seed{seed}.trace.json"
        ok, message = write_chrome(str(chrome_path), processes)
        if not ok:
            traced.mismatches.append(f"chrome trace invalid: {message}")
        lines += _phase_lines("untraced", base) + _phase_lines("traced", traced)
        lines.append(
            f"tracing overhead: {overhead:.3f}x (untraced "
            f"{base.decisions_per_s:.1f} vs traced "
            f"{traced.decisions_per_s:.1f} decisions/s)"
        )
        lines.append(f"chrome trace: {chrome_path.relative_to(ROOT)} ({message})")
        lines += self_time_table(processes, workloads.PERIOD_SPANS[name])
    correct = all(not p.mismatches for p in phases)
    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    result = {
        "correct": correct and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in values.items()},
    }
    for line in lines:
        print(line)
    print(f"{'metric':<34} {'value':>16}  unit")
    for metric, entry in result["metrics"].items():
        print(f"{metric:<34} {entry['value']:>16.6g}  {entry['unit']}")
    artifact = OUT / f"{name}-seed{seed}-trace{int(trace)}.json"
    artifact.write_text(json.dumps(
        {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
         "stamp": info, "result": result}, indent=1,
    ))
    return result


def run_all(args: argparse.Namespace) -> int:
    """Every workload, each in its own process (peak memory and class
    wrappers must not leak between workloads)."""
    merged: Dict[str, Any] = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    rows = []
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        done = subprocess.run(argv, capture_output=True, text=True, timeout=900)
        out_lines = done.stdout.strip().splitlines()
        for line in out_lines[:-1]:
            print(line)
        if done.stderr:
            print(done.stderr, end="", file=sys.stderr)
        try:
            result = json.loads(out_lines[-1])
        except (IndexError, json.JSONDecodeError):
            result = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
        print()
        merged["correct"] = merged["correct"] and result["correct"] and done.returncode == 0
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = entry
        rows.append((name, result))
    if not args.trace:
        print(f"{'workload':<14}" + "".join(f"{m:>17}" for m, _ in END_TO_END)
              + f"{'failed_frac':>13}  correct")
        print(f"{'':<14}" + "".join(f"{u:>17}" for _, u in END_TO_END)
              + f"{'ratio':>13}")
        for name, result in rows:
            cells = "".join(
                f"{result['metrics'].get(m, {}).get('value', float('nan')):>17.6g}"
                for m, _ in END_TO_END
            )
            frac = result["failed"] / result["attempted"] if result["attempted"] else 1.0
            print(f"{name:<14}{cells}{frac:>13.6f}  {result['correct']}")
    print(json.dumps(merged))
    return 0 if merged["correct"] else 1


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="minimum timed seconds per run (BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="self-test sizes (seconds of work, not a measurement)")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program at {ROOT / 'src' / 'repro'}; "
              "run from a full checkout", file=sys.stderr)
        return 2
    _bootstrap()
    if args.workload == "all":
        return run_all(args)
    result = run_one(args.workload, args.seed, args.seconds, bool(args.trace), args.tiny)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
