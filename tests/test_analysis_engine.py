"""Tests for the repro.analysis lint engine, rules, CLI, and baseline."""

from __future__ import annotations

import dataclasses
import json
import sys
import textwrap
from pathlib import Path

import pytest

from repro.analysis import (
    AnalysisEngine,
    DEFAULT_CONFIG,
    PARSE_ERROR_RULE,
    load_baseline,
    partition,
    save_baseline,
)
from repro.analysis.__main__ import main
from repro.analysis.suppress import parse_suppressions

REPO_ROOT = Path(__file__).resolve().parents[1]
FIXTURE_ROOT = REPO_ROOT / "tests" / "analysis_fixtures"

#: Fixture-scoped config: the allowlists point at the fixture packages
#: instead of the real pipeline so badpkg violates every rule on purpose.
FIXTURE_CONFIG = dataclasses.replace(
    DEFAULT_CONFIG,
    dac_sink_allowed_modules=(),
    guard_hook_allowed_modules=(),
    deterministic_packages=(
        "tests.analysis_fixtures.badpkg.jittery",
        "tests.analysis_fixtures.badpkg.batch",
        "tests.analysis_fixtures.badpkg.fleetops",
        "tests.analysis_fixtures.goodpkg",
    ),
    constants_scope=(
        "tests.analysis_fixtures.badpkg.tuning",
        "tests.analysis_fixtures.goodpkg",
    ),
)


def run_fixture(*names: str, config=FIXTURE_CONFIG):
    engine = AnalysisEngine(config=config)
    paths = [FIXTURE_ROOT / name for name in names]
    return engine.analyze_paths(paths, display_root=REPO_ROOT)


def rule_lines(findings):
    return sorted((f.rule_id, f.line) for f in findings)


# ---------------------------------------------------------------------------
# Rule families over the fixture packages — exact ids and lines
# ---------------------------------------------------------------------------


def test_rpr001_guard_bypass_fixture():
    result = run_fixture("badpkg/actuation.py")
    assert rule_lines(result.findings) == [
        ("RPR001", 13),  # self.board.guard = handler
        ("RPR001", 16),  # self.board._latch(values)
        ("RPR001", 28),  # packet.dac_values[0] = 32767 after guard check
        ("RPR001", 33),  # data = list(data) after guard check
        ("RPR001", 38),  # setattr(board, "guard", handler)
    ]
    assert not result.suppressed


def test_rpr002_determinism_fixture():
    result = run_fixture("badpkg/jittery.py")
    assert rule_lines(result.findings) == [
        ("RPR002", 14),  # time.time()
        ("RPR002", 18),  # datetime.datetime.now()
        ("RPR002", 22),  # np.random.rand(3)
        ("RPR002", 26),  # random.random()
        ("RPR002", 30),  # os.environ.get(...)
        ("RPR002", 34),  # lambda handed to iter_tasks
        ("RPR002", 38),  # bare time.perf_counter() outside repro.obs.timing
    ]


def test_rpr003_magic_numbers_fixture():
    result = run_fixture("badpkg/tuning.py")
    assert rule_lines(result.findings) == [
        ("RPR003", 16),  # 42.5 threshold in function logic
        ("RPR003", 17),  # 9000 scale factor
    ]
    # Module constants, dataclass defaults (incl. default_factory lambda),
    # and subscript indices are all allowed — nothing else fires.


def test_rpr004_pool_safety_fixture():
    result = run_fixture("badpkg/poolwork.py")
    assert rule_lines(result.findings) == [
        ("RPR004", 12),  # nested def
        ("RPR004", 17),  # locally bound lambda
        ("RPR004", 21),  # inline lambda (module outside RPR002 scope)
        ("RPR004", 28),  # functools.partial over a nested def
    ]


@pytest.mark.batch
def test_batch_fixture_carries_rpr002_and_rpr004():
    """A ``*.batch`` module inside the deterministic scope fires both
    rule families — vectorization is not an escape hatch from the
    determinism and pool-safety contracts."""
    result = run_fixture("badpkg/batch.py")
    assert rule_lines(result.findings) == [
        ("RPR002", 10),  # global RNG inside the batch kernel
        ("RPR004", 17),  # nested worker submitted to the pool
    ]


@pytest.mark.fleet
def test_fleet_fixture_carries_rpr002_and_rpr004():
    """A fleet-layer module inside the deterministic scope fires both
    rule families — session checkpoints and decision chains are pinned
    bytes, so wall clocks, raw env reads, and unpicklable pool workers
    are all contract violations there."""
    result = run_fixture("badpkg/fleetops.py")
    assert rule_lines(result.findings) == [
        ("RPR002", 12),  # time.time() stamped into a checkpoint
        ("RPR002", 16),  # raw os.environ read outside repro.envcfg
        ("RPR004", 23),  # nested worker submitted to the pool
    ]


def test_clean_fixture_has_no_findings():
    result = run_fixture("goodpkg/clean.py")
    assert result.findings == []
    assert result.suppressed == []


def test_inline_suppressions_waive_findings():
    result = run_fixture("goodpkg/waived.py")
    assert result.findings == []
    assert rule_lines(result.suppressed) == [
        ("RPR001", 17),  # allow[*] on the direct sink call
        ("RPR002", 9),  # allow[RPR002] on time.time()
        ("RPR002", 13),  # allow[RPR002, RPR004] on the pool lambda
    ]


def test_suppression_comment_only_covers_its_own_line():
    lines = [
        "x = time.time()  # repro: allow[RPR002]",
        "y = time.time()",
        "z = 1  # repro: allow[RPR001,RPR003]",
        "w = 2  # repro: allow[*]",
    ]
    supp = parse_suppressions(lines)
    assert supp[1] == frozenset({"RPR002"})
    assert 2 not in supp
    assert supp[3] == frozenset({"RPR001", "RPR003"})
    assert supp[4] == frozenset({"*"})


# ---------------------------------------------------------------------------
# Scratch reintroduction: the acceptance scenario from the fault model
# ---------------------------------------------------------------------------


def test_reintroduced_post_guard_mutation_is_caught(tmp_path):
    """Deliberately reopening the TOCTOU window in scratch code fires RPR001."""
    scratch = tmp_path / "scratch_pipeline.py"
    scratch.write_text(
        textwrap.dedent(
            """
            class Injector:
                def __init__(self, board, guard):
                    self.board = board
                    self.guard = guard

                def deliver(self, packet):
                    verdict = self.guard(packet)
                    if verdict:
                        packet.dac_values[1] = -32768
                        self.board.fd_write(packet)
            """
        )
    )
    engine = AnalysisEngine()
    result = engine.analyze_paths([scratch], display_root=tmp_path)
    assert [(f.rule_id, f.line) for f in result.findings] == [("RPR001", 10)]
    assert "TOCTOU" in result.findings[0].message


def test_parse_error_yields_rpr000(tmp_path):
    bad = tmp_path / "broken.py"
    bad.write_text("def oops(:\n")
    engine = AnalysisEngine()
    result = engine.analyze_paths([bad], display_root=tmp_path)
    assert result.findings == []
    assert [f.rule_id for f in result.parse_errors] == [PARSE_ERROR_RULE]
    assert result.active[0].rule_id == PARSE_ERROR_RULE


@pytest.mark.skipif(
    sys.version_info < (3, 11), reason="except* requires Python 3.11"
)
def test_violations_inside_trystar_blocks_are_found(tmp_path):
    scratch = tmp_path / "star.py"
    scratch.write_text(
        textwrap.dedent(
            """
            def emergency(board, values):
                try:
                    board.fd_write(values)
                except* ValueError:
                    board._latch(values)
            """
        )
    )
    engine = AnalysisEngine()
    result = engine.analyze_paths([scratch], display_root=tmp_path)
    assert [(f.rule_id, f.line) for f in result.findings] == [("RPR001", 6)]


# ---------------------------------------------------------------------------
# Fingerprints and the baseline mechanism
# ---------------------------------------------------------------------------


def test_fingerprint_survives_line_shift(tmp_path):
    src_a = "def f(board, v):\n    board._latch(v)\n"
    src_b = "\n\n\ndef f(board, v):\n    board._latch(v)\n"
    engine = AnalysisEngine()
    (tmp_path / "a.py").write_text(src_a)
    (tmp_path / "b.py").write_text(src_b)
    res_a = engine.analyze_paths([tmp_path / "a.py"], display_root=tmp_path)
    res_b = engine.analyze_paths([tmp_path / "b.py"], display_root=tmp_path)
    (fa,) = res_a.findings
    (fb,) = res_b.findings
    assert fa.line != fb.line
    # Same rule, same module stem difference... fingerprints hash
    # rule|module|source, so same-named modules would match. Here the
    # module names differ, so fingerprints differ:
    assert fa.fingerprint != fb.fingerprint
    # But an identical file shifted in place keeps its fingerprint:
    (tmp_path / "a.py").write_text(src_b)
    res_shifted = engine.analyze_paths(
        [tmp_path / "a.py"], display_root=tmp_path
    )
    (fs,) = res_shifted.findings
    assert fs.line != fa.line
    assert fs.fingerprint == fa.fingerprint


def test_baseline_roundtrip_and_partition(tmp_path):
    result = run_fixture("badpkg")
    baseline_path = tmp_path / "baseline.json"
    save_baseline(baseline_path, result.findings)
    baseline = load_baseline(baseline_path)
    new, grandfathered = partition(result.findings, baseline)
    assert new == []
    assert len(grandfathered) == len(result.findings)

    # Fixing one finding shrinks the allowance; the rest still match.
    trimmed = result.findings[1:]
    new, grandfathered = partition(trimmed, baseline)
    assert new == []
    assert len(grandfathered) == len(trimmed)

    # A brand-new finding is not absorbed.
    new, _ = partition(result.findings, load_baseline(tmp_path / "none.json"))
    assert len(new) == len(result.findings)


def test_baseline_counts_are_a_multiset(tmp_path):
    result = run_fixture("badpkg/actuation.py")
    duplicated = result.findings + [result.findings[0]]
    baseline_path = tmp_path / "baseline.json"
    save_baseline(baseline_path, result.findings)
    new, grandfathered = partition(duplicated, load_baseline(baseline_path))
    assert len(new) == 1
    assert len(grandfathered) == len(result.findings)


# ---------------------------------------------------------------------------
# CLI behavior
# ---------------------------------------------------------------------------


def test_cli_check_fails_then_baseline_update_clears(tmp_path, capsys):
    baseline = tmp_path / "baseline.json"
    fixture = str(FIXTURE_ROOT / "badpkg")

    code = main([fixture, "--check", "--baseline", str(baseline)])
    out = capsys.readouterr().out
    assert code == 1
    assert "RPR001" in out

    assert main([fixture, "--baseline-update", "--baseline", str(baseline)]) == 0
    capsys.readouterr()

    code = main([fixture, "--check", "--baseline", str(baseline)])
    out = capsys.readouterr().out
    assert code == 0
    assert "0 new finding(s)" in out


def test_cli_json_report(tmp_path, capsys):
    baseline = tmp_path / "baseline.json"
    code = main(
        [str(FIXTURE_ROOT / "badpkg"), "--json", "--baseline", str(baseline)]
    )
    assert code == 0  # no --check: report-only mode always exits 0
    payload = json.loads(capsys.readouterr().out)
    assert {f["rule"] for f in payload["new"]} >= {"RPR001", "RPR004"}
    assert payload["parse_errors"] == []
    for finding in payload["new"]:
        assert set(finding) == {
            "rule",
            "path",
            "module",
            "line",
            "col",
            "message",
            "source",
            "fingerprint",
        }


def test_cli_list_rules(capsys):
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule_id in ("RPR001", "RPR002", "RPR003", "RPR004"):
        assert rule_id in out


def test_cli_missing_path_is_a_usage_error(capsys):
    assert main(["definitely/not/a/path"]) == 2


def test_cli_parse_errors_are_never_baselined(tmp_path, capsys):
    bad = tmp_path / "broken.py"
    bad.write_text("def oops(:\n")
    baseline = tmp_path / "baseline.json"
    # --baseline-update refuses to launder a parse error into the baseline.
    assert main([str(bad), "--baseline-update", "--baseline", str(baseline)]) == 1
    capsys.readouterr()
    assert main([str(bad), "--check", "--baseline", str(baseline)]) == 1


def test_cli_rejects_corrupt_baseline(tmp_path, capsys):
    baseline = tmp_path / "baseline.json"
    baseline.write_text('{"version": 99}')
    code = main([str(FIXTURE_ROOT / "goodpkg"), "--baseline", str(baseline)])
    assert code == 2
    assert "unsupported layout" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# The real tree stays clean
# ---------------------------------------------------------------------------


def test_src_tree_is_clean_under_default_config():
    engine = AnalysisEngine()
    result = engine.analyze_paths([REPO_ROOT / "src"], display_root=REPO_ROOT)
    assert result.parse_errors == []
    baseline = load_baseline(REPO_ROOT / "analysis_baseline.json")
    new, _ = partition(result.findings, baseline)
    assert new == [], "\n".join(f.format() for f in new)


@pytest.mark.batch
def test_batch_modules_are_in_the_deterministic_scope():
    """The batched execution layer carries the same bit-identity promise
    as the scalar path, so RPR002 (determinism) and the RPR004 lambda
    carve-out must cover every ``*.batch`` module."""
    from repro.analysis.config import module_matches

    for module in (
        "repro.dynamics.batch",
        "repro.sim.batch",
        "repro.experiments.batch",
        "repro.core.dynamic_model",
        "repro.core.estimator",
        "repro.core.detector",
        "repro.fleet",
        "repro.fleet.supervisor",
        "repro.fleet.store",
        "repro.fleet.session",
        "repro.service",
        "repro.service.protocol",
        "repro.service.worker",
        "repro.service.frontend",
    ):
        assert module_matches(module, DEFAULT_CONFIG.deterministic_packages), (
            f"{module} must stay under RPR002's deterministic scope"
        )
    # The service boundary also carries the fleet's quarantine
    # discipline: swallowed connection faults are RPR008 findings.  So
    # does the lane pack, whose round loop isolates a throwing lane.
    for module in ("repro.service", "repro.service.worker", "repro.core.pipeline"):
        assert module_matches(module, DEFAULT_CONFIG.quarantine_scope), (
            f"{module} must stay under RPR008's quarantine scope"
        )


def test_engine_is_deterministic_across_runs():
    first = run_fixture("badpkg")
    second = run_fixture("badpkg")
    assert [f.to_dict() for f in first.findings] == [
        f.to_dict() for f in second.findings
    ]
