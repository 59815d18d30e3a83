"""Tiny-size self-test of the benchmark itself (not a measurement).

Run from the repository root::

    python3 perfbench/selftest.py

At tiny sizes (a few seconds per workload) it checks that:

- ``--trace 0`` reports exactly the end-to-end metrics of
  ``BENCHMARK.json`` and ``--trace 1`` exactly its per-layer metrics, with
  the declared units, in a last output line of the required shape;
- ``--workload all`` runs every workload and gates each one;
- every traced run writes a Chrome trace that ``repro.obs`` validates,
  with the worker's spans on its own lane for ``wire_64x1``;
- the correctness gate trips when a fingerprint is tampered with, for a
  rig lane and for a fleet session, and when only a later repeat differs
  from the first;
- the benchmark refuses to run, without printing a result, in a
  directory that holds only ``BENCHMARK.json`` and the benchmark.

Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 5


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        capture_output=True, text=True, timeout=600, cwd=cwd,
    )


def _last_json(done: subprocess.CompletedProcess) -> Dict[str, Any]:
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise AssertionError(f"no output; stderr:\n{done.stderr}")
    return json.loads(lines[-1])


def check_result(result: Dict[str, Any], declared: List[Dict[str, str]]) -> List[str]:
    """Problems with one result object against the declared metrics."""
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True:
        problems.append("correct is not true")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        problems.append(f"attempted {result.get('attempted')!r}")
    if not isinstance(result.get("failed"), int):
        problems.append(f"failed {result.get('failed')!r}")
    metrics = result.get("metrics", {})
    want = {m["name"]: m["unit"] for m in declared}
    if set(metrics) != set(want):
        problems.append(
            f"metrics missing {sorted(set(want) - set(metrics))}, "
            f"extra {sorted(set(metrics) - set(want))}"
        )
    for name, entry in metrics.items():
        if entry.get("unit") != want.get(name):
            problems.append(f"{name}: unit {entry.get('unit')!r}, declared {want.get(name)!r}")
        value = entry.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{name}: value {value!r}")
    return problems


def check_runs(spec: Dict[str, Any]) -> List[str]:
    from repro.obs.export import validate_chrome_trace

    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            done = _run("--workload", workload, "--seed", str(SEED), "--seconds", "1",
                        "--trace", str(trace), "--tiny")
            label = f"{workload} --trace {trace}"
            if done.returncode != 0:
                problems.append(f"{label}: exit {done.returncode}\n{done.stdout[-3000:]}"
                                f"\n{done.stderr[-3000:]}")
                continue
            problems += [f"{label}: {p}" for p in check_result(_last_json(done), declared)]
            if trace:
                path = HERE / "out" / f"{workload}-seed{SEED}.trace.json"
                ok, message = validate_chrome_trace(path)
                if not ok:
                    problems.append(f"{label}: chrome trace invalid: {message}")
                events = json.loads(path.read_text())["traceEvents"]
                lanes = {e.get("tid") for e in events if e.get("ph") == "X"}
                if workload == "wire_64x1" and lanes != {0, 1}:
                    problems.append(f"{label}: trace lanes {sorted(lanes)}, want bench + worker")
                if not all("period" in e["args"] for e in events if e.get("ph") == "X"):
                    problems.append(f"{label}: a span carries no period id")
    done = _run("--workload", "all", "--seed", str(SEED), "--seconds", "1", "--tiny")
    merged = _last_json(done)
    if done.returncode != 0 or not merged["correct"]:
        problems.append(f"--workload all: exit {done.returncode}, correct {merged['correct']}")
    return problems


def check_gate_trips() -> List[str]:
    """Tamper with one fingerprint field; the gate must report it."""
    import workloads

    problems = []
    honest = workloads._lane_outcome

    def tampered_lane(*args: Any) -> Dict[str, Any]:
        outcome = honest(*args)
        outcome["fingerprint"]["jpos_sha256"] = "0" * 16
        return outcome

    workloads._lane_outcome = tampered_lane
    try:
        phase = workloads.run_loop_guarded(workloads.TINY, SEED, 0.0, 1)
    finally:
        workloads._lane_outcome = honest
    if not any("jpos_sha256" in m for m in phase.mismatches):
        problems.append(f"loop gate missed a tampered trace fingerprint: {phase.mismatches}")

    calls = []

    def tampered_second(*args: Any) -> Dict[str, Any]:
        outcome = honest(*args)
        calls.append(1)
        if len(calls) == 2:
            outcome["alerts"] += 1
        return outcome

    workloads._lane_outcome = tampered_second
    try:
        phase = workloads.run_loop_guarded(workloads.TINY, SEED, 0.0, 2)
    finally:
        workloads._lane_outcome = honest
    if not any(m.startswith("repeat 1: alerts") for m in phase.mismatches):
        problems.append(f"loop gate missed a repeat that differs from the first: "
                        f"{phase.mismatches}")

    honest_check = workloads._check_repeat

    def tampered_check(phase: Any, fingerprints: Dict[str, Any], *args: Any) -> None:
        fingerprints[min(fingerprints)]["digest"] = "f" * 64
        honest_check(phase, fingerprints, *args)

    workloads._check_repeat = tampered_check
    try:
        phase = workloads.run_fleet_64(workloads.TINY, SEED, 0.0, 1)
    finally:
        workloads._check_repeat = honest_check
    if not any("digest" in m for m in phase.mismatches):
        problems.append(f"fleet gate missed a tampered session digest: {phase.mismatches}")
    return problems


def check_refuses_without_program(spec_path: Path) -> List[str]:
    bare = HERE / "out" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    try:
        shutil.copy(spec_path, bare / "BENCHMARK.json")
        for path in HERE.glob("*.py"):
            shutil.copy(path, bare / "perfbench" / path.name)
        for path in HERE.glob("*.md"):
            shutil.copy(path, bare / "perfbench" / path.name)
        done = _run("--workload", "loop_guarded", "--seed", "1", "--seconds", "1",
                    "--trace", "0", cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if done.returncode == 0:
        return ["a checkout without the program exited 0"]
    if done.stdout.strip():
        return [f"a checkout without the program printed: {done.stdout.strip()[:200]}"]
    return []


def main() -> int:
    sys.path.insert(0, str(HERE))
    from run import _bootstrap

    _bootstrap()
    spec_path = ROOT / "BENCHMARK.json"
    spec = json.loads(spec_path.read_text())
    problems = check_refuses_without_program(spec_path)
    problems += check_runs(spec)
    problems += check_gate_trips()
    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest " + ("passed" if not problems else f"failed ({len(problems)})"))
    return 0 if not problems else 1


if __name__ == "__main__":
    raise SystemExit(main())
