"""Tests for the independent schedule verifier (:mod:`repro.analysis.verify`).

Covers the ISSUE-6 acceptance criteria: bundled seeds lint clean on every
registered backend, hand-seeded illegal schedules are rejected with the
correct rule code, the scoreboard protocol checker catches its edge cases,
and the verifier is wired through the environment, the searches, the Session
verify modes, the serve-layer store gate and the lint CLI.
"""

import dataclasses
import json

import numpy as np
import pytest

from repro.analysis import (
    ScheduleVerifier,
    build_dependence_graph,
    check_scoreboard_protocol,
    verify_schedule,
)
from repro.analysis.diagnostics import RULES, Severity, make_diagnostic, worst_severity
from repro.analysis.lint import EXIT_CLEAN, EXIT_FINDINGS, EXIT_USAGE, main as lint_main
from repro.api import CacheConfig, OptimizationConfig, Session
from repro.api.backends import available_backends
from repro.api.session import normalize_verify_mode
from repro.baselines.search import run_greedy_search
from repro.core.env import AssemblyGame
from repro.sass import KernelMetadata, SassKernel
from repro.scenarios import all_scenarios
from repro.serve.store import ResultStore
from repro.triton.compiler import compile_spec
from repro.triton.spec import get_spec

# Every kernel the scenario matrix exercises (importing repro.scenarios
# registers the kernel library and the built-in scenarios).
WORKLOADS = sorted({scenario.kernel for scenario in all_scenarios()})

_COMPILED = {}


def compiled_kernel(name: str):
    """Compile each workload once per test session (they are immutable)."""
    if name not in _COMPILED:
        _COMPILED[name] = compile_spec(get_spec(name), scale="test")
    return _COMPILED[name]


# ---------------------------------------------------------------------------
# Seed self-audit: every bundled workload, every registered backend
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("backend", available_backends())
@pytest.mark.parametrize("workload", WORKLOADS)
def test_seed_lints_clean_on_every_backend(workload, backend):
    """The -O3 seed must be a fixed point: zero findings on any target."""
    compiled = compiled_kernel(workload)
    verifier = ScheduleVerifier(compiled.kernel)
    result = verifier.lint_seed()
    assert result.ok, result.render(f"{workload}@{backend}")
    assert not result.diagnostics
    assert result.checked_edges > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_seed_identity_is_legal_fast_path(workload):
    kernel = compiled_kernel(workload).kernel
    verifier = ScheduleVerifier(kernel)
    assert verifier.is_legal(kernel)


# ---------------------------------------------------------------------------
# Hand-seeded illegal schedules: each must fire its designated rule
# ---------------------------------------------------------------------------
def _first_adjacent_violation(kernel, verifier):
    """The first adjacent swap the verifier rejects, with its diagnostics."""
    for i in range(len(kernel.lines) - 1):
        candidate = kernel.swap(i, i + 1)
        result = verifier.verify(candidate, include_warnings=False)
        if not result.ok:
            return candidate, result
    return None, None


def test_raw_dependence_break_fires_v101():
    kernel = compiled_kernel("softmax").kernel
    verifier = ScheduleVerifier(kernel)
    graph = build_dependence_graph(kernel)
    raw_edges = graph.edges_by_rule("V101")
    assert raw_edges, "softmax seed should have RAW edges"
    candidate, result = _first_adjacent_violation(kernel, verifier)
    assert candidate is not None, "no adjacent swap violates any dependence"
    assert not verifier.is_legal(candidate)
    assert "V101" in {d.rule for d in result.errors}


def test_wait_before_set_fires_v202():
    listing = """
[B--2---:R-:W-:-:S04] FADD R10, R8, 1.0 ;
[B------:R-:W2:-:S02] LDG.E R8, [R6.64] ;
[B------:R-:W-:-:S05] EXIT ;
"""
    kernel = SassKernel.from_text(listing, KernelMetadata(name="v202"))
    diags = check_scoreboard_protocol(kernel)
    assert "V202" in {d.rule for d in diags}


def test_stall_count_violation_fires_v301():
    # Seed: IMAD(S1) -> FMUL(S6) -> LDG consuming the IMAD result.  The
    # required IMAD latency (4 cycles) is covered by 1+6=7 in seed order; the
    # hoist of FMUL above IMAD leaves only IMAD's own stall of 1 — a V301
    # with every pair ordering still intact.
    listing = """
[B------:R-:W-:-:S01] IMAD R8, R4, R5, RZ ;
[B------:R-:W-:-:S06] FMUL R20, R10, R12 ;
[B------:R-:W2:-:S02] LDG.E R16, [R8.64] ;
[B--2---:R-:W-:-:S05] EXIT ;
"""
    kernel = SassKernel.from_text(listing, KernelMetadata(name="v301"))
    verifier = ScheduleVerifier(kernel)
    assert verifier.lint_seed(include_warnings=False).ok
    hoisted = kernel.swap(0, 1)  # FMUL; IMAD; LDG — budget 1 < 4
    assert not verifier.is_legal(hoisted)
    result = verifier.verify(hoisted, include_warnings=False)
    rules = {d.rule for d in result.errors}
    assert rules == {"V301"}, f"expected a pure stall violation, got {rules}"
    v301 = next(d for d in result.errors if d.rule == "V301")
    assert v301.details["required"] > v301.details["actual"]


def test_cross_label_move_fires_v003():
    listing = """
[B------:R-:W-:-:S04] MOV R2, c[0x0][0x160] ;
[B------:R-:W2:-:S02] LDG.E R8, [R2.64] ;
.L_tail:
[B--2---:R-:W-:-:S04] FADD R10, R8, 1.0 ;
[B------:R-:W-:-:S05] EXIT ;
"""
    kernel = SassKernel.from_text(listing, KernelMetadata(name="v003"))
    verifier = ScheduleVerifier(kernel)
    assert verifier.lint_seed(include_warnings=False).ok
    lines = list(kernel.lines)
    # Exchange the LDG and the FADD across the label: both land in the wrong
    # block while every boundary (label, EXIT) keeps its seed position.
    crossed = SassKernel(
        [lines[0], lines[3], lines[2], lines[1], lines[4]], kernel.metadata
    )
    result = verifier.verify(crossed, include_warnings=False)
    assert not result.ok
    assert "V003" in {d.rule for d in result.errors}


def test_ldgsts_shared_base_hazard_fires_v401():
    # Both async copies fill the same shared-memory base register within one
    # per-warp footprint — the cp.async ordering hazard V401 protects.
    listing = """
[B------:R-:W-:-:S04] LDGSTS.E [R10], [R4.64] ;
[B------:R-:W-:-:S06] LDGSTS.E [R10+0x100], [R6.64] ;
[B------:R-:W-:-:S05] EXIT ;
"""
    kernel = SassKernel.from_text(listing, KernelMetadata(name="v401"))
    verifier = ScheduleVerifier(kernel)
    graph = build_dependence_graph(kernel)
    assert graph.edges_by_rule("V401"), "shared-base LDGSTS pair should edge"
    swapped = kernel.swap(0, 1)
    assert not verifier.is_legal(swapped)
    result = verifier.verify(swapped, include_warnings=False)
    assert "V401" in {d.rule for d in result.errors}


def test_ldgsts_distinct_shared_bases_do_not_edge_v401():
    # Same *global* source base but different shared destinations: the copies
    # land in disjoint shared buffers, so there is no fill-order hazard.  The
    # old conservative predicate (any memory-register overlap) edged this
    # pair; the sharp shared-side analysis proves it safe.
    listing = """
[B------:R-:W-:-:S04] LDGSTS.E [R10], [R4.64] ;
[B------:R-:W-:-:S06] LDGSTS.E [R12], [R4.64] ;
[B------:R-:W-:-:S05] EXIT ;
"""
    kernel = SassKernel.from_text(listing, KernelMetadata(name="v401"))
    graph = build_dependence_graph(kernel)
    assert not graph.edges_by_rule("V401")
    conservative = build_dependence_graph(kernel, alias_mode="conservative")
    assert conservative.edges_by_rule("V401"), "conservative mode keeps the edge"


def test_structure_mismatch_fires_v001_and_boundary_move_v002():
    kernel = compiled_kernel("softmax").kernel
    verifier = ScheduleVerifier(kernel)
    truncated = SassKernel(kernel.lines[:-1], kernel.metadata)
    result = verifier.verify(truncated)
    assert "V001" in {d.rule for d in result.errors}

    # EXIT (a sync boundary) moved off its seed position.
    moved = kernel.swap(len(kernel.lines) - 2, len(kernel.lines) - 1)
    result = verifier.verify(moved)
    assert "V002" in {d.rule for d in result.errors}


# ---------------------------------------------------------------------------
# Scoreboard protocol edge cases
# ---------------------------------------------------------------------------
def test_double_set_without_wait_fires_v203():
    listing = """
[B------:R-:W2:-:S02] LDG.E R8, [R6.64] ;
[B------:R-:W2:-:S02] LDG.E R10, [R4.64] ;
[B--2---:R-:W-:-:S04] FADD R12, R8, R10 ;
[B------:R-:W-:-:S05] EXIT ;
"""
    kernel = SassKernel.from_text(listing, KernelMetadata(name="v203"))
    diags = check_scoreboard_protocol(kernel)
    assert "V203" in {d.rule for d in diags}


def test_never_waited_write_barrier_warns_v204():
    listing = """
[B------:R-:W3:-:S02] LDG.E R8, [R6.64] ;
[B------:R-:W-:-:S05] EXIT ;
"""
    kernel = SassKernel.from_text(listing, KernelMetadata(name="v204"))
    diags = check_scoreboard_protocol(kernel)
    v204 = [d for d in diags if d.rule == "V204"]
    assert v204 and all(d.severity is Severity.WARNING for d in v204)
    # Warnings never fail verification: the listing is still "ok".
    assert verify_schedule(kernel).ok


def test_set_and_wait_spanning_block_boundary_is_clean():
    # Loop-carried pattern: the preamble arms slot 2, the loop body waits on
    # it and re-arms it each iteration — legal on every path, zero findings.
    listing = """
[B------:R-:W-:-:S04] MOV R2, c[0x0][0x160] ;
[B------:R-:W2:-:S02] LDG.E R8, [R2.64] ;
.L_loop:
[B--2---:R-:W-:-:S04] FADD R10, R8, 1.0 ;
[B------:R-:W2:-:S02] LDG.E R8, [R10.64] ;
[B------:R-:W-:-:S05] ISETP.LT.AND P0, PT, R10, R4, PT ;
[B------:R-:W-:-:S05] @P0 BRA `(.L_loop) ;
[B--2---:R-:W-:-:S04] FADD R14, R8, 2.0 ;
[B------:R-:W-:-:S05] EXIT ;
"""
    kernel = SassKernel.from_text(listing, KernelMetadata(name="loop_carried"))
    assert check_scoreboard_protocol(kernel) == []


def test_denylisted_instruction_slack_warns_v501():
    # The LDG consumes R8 whose producer sits in the *previous* block, so
    # stall inference denylists it; compressing the stalls in front of it
    # below the seed slack is the V501 warning.
    listing = """
[B------:R-:W-:-:S04] MOV R2, c[0x0][0x160] ;
[B------:R-:W-:-:S05] IMAD R8, R2, 0x2, RZ ;
.L_body:
[B------:R-:W-:-:S06] FADD R10, R12, 1.0 ;
[B------:R-:W-:-:S04] FMUL R14, R10, 2.0 ;
[B------:R-:W2:-:S02] LDG.E R16, [R8.64] ;
[B--2---:R-:W-:-:S04] FADD R18, R16, 1.0 ;
[B------:R-:W-:-:S05] EXIT ;
"""
    kernel = SassKernel.from_text(listing, KernelMetadata(name="v501"))
    graph = build_dependence_graph(kernel)
    assert graph.denylist_slack, "the LDG should be denylisted with slack"
    verifier = ScheduleVerifier(kernel, graph=graph)
    ldg = next(i for i, l in enumerate(kernel.lines) if getattr(l, "base_opcode", "") == "LDG")
    # Hoist the LDG toward its block start: slack shrinks below the seed's.
    hoisted = kernel.swap(ldg - 1, ldg)
    result = verifier.verify(hoisted)
    assert "V501" in {d.rule for d in result.warnings}
    # Warning severity only: the schedule still verifies.
    assert result.ok


# ---------------------------------------------------------------------------
# Diagnostics plumbing
# ---------------------------------------------------------------------------
def test_rule_registry_and_diagnostic_rendering():
    assert {"V001", "V101", "V201", "V301", "V401", "V501"} <= set(RULES)
    diag = make_diagnostic("V101", "broken", line=3, hint="undo it")
    assert diag.severity is Severity.ERROR
    rendered = diag.render("softmax")
    assert "softmax:3" in rendered and "V101" in rendered and "undo it" in rendered
    assert diag.as_dict()["rule"] == "V101"
    with pytest.raises(KeyError):
        make_diagnostic("V999", "no such rule", line=0)
    assert worst_severity([diag]) is Severity.ERROR


# ---------------------------------------------------------------------------
# Wiring: env counter, search pruner, Session modes, store gate, CLI
# ---------------------------------------------------------------------------
def test_env_swallows_and_counts_invalid_actions():
    env = AssemblyGame(compiled_kernel("bmm"))
    try:
        env.reset()
        mask = env.action_masks()
        invalid = np.flatnonzero(~mask)
        if not mask.any() or len(invalid) == 0:
            pytest.skip("need both a valid and an invalid action at this scale")
        before = env.current_kernel
        env.step(int(invalid[0]))
        assert env.invalid_actions == 1
        assert env.current_kernel is before  # swallowed, not applied
    finally:
        env.close()


def test_greedy_pruner_stays_silent_when_mask_and_verifier_agree():
    result = run_greedy_search(compiled_kernel("bmm"), budget=6, episode_length=8)
    assert result.measurement_stats.get("pruned", 0) == 0
    assert result.invalid_actions == 0


def test_normalize_verify_mode():
    assert normalize_verify_mode(None, default="final") == "final"
    assert normalize_verify_mode(True) == "final"
    assert normalize_verify_mode(False) == "off"
    assert normalize_verify_mode("paranoid") == "paranoid"
    with pytest.raises(ValueError):
        normalize_verify_mode("frantic")


@pytest.mark.parametrize("mode", ["off", "final", "paranoid"])
def test_session_verify_modes(mode):
    config = OptimizationConfig(
        scale="test", strategy="greedy", search_budget=4, autotune=False
    )
    session = Session("A100-sim", config=config)
    report = session.optimize("softmax", verify=mode, store=False)
    assert report.details["verify_mode"] == mode
    if mode == "off":
        assert report.verified is None
    else:
        assert report.verified is True
        assert report.diagnostics == ()
    assert "invalid_actions" in report.details
    assert "diagnostics" in report.summary()


def test_session_verify_modes_on_a_real_candidate():
    """mmLeakyReLu's greedy best is not the seed, so the bit-exact check and
    the splice audit see a real candidate (softmax's best is the seed)."""
    config = OptimizationConfig(
        scale="test", strategy="greedy", search_budget=4, autotune=False
    )
    session = Session("A100-sim", config=config, cache=CacheConfig(enabled=False))
    seed = session.compile("mmLeakyReLu").kernel
    reports = {
        mode: session.optimize("mmLeakyReLu", verify=mode, store=False)
        for mode in ("off", "final", "functional", "paranoid")
    }
    session.close()
    kept = reports["off"].artifact.result.best_kernel
    assert kept != seed
    for mode, report in reports.items():
        assert report.verified is (None if mode == "off" else True), mode
        assert report.artifact.result.best_kernel == kept, mode
        assert report.best_time_ms == reports["off"].best_time_ms, mode
        assert report.best_time_ms < report.baseline_time_ms, mode
        assert report.diagnostics == (), mode


def test_result_store_invalidate_counts_once():
    from repro.api.report import RunReport

    store = ResultStore()
    report = RunReport.from_error("softmax", "sim", "greedy", "x")
    store.put("k", report)
    assert store.invalidate("k") is True
    assert store.invalidate("k") is False
    assert store.stats.invalidations == 1
    assert store.get("k") is None


def test_serve_queue_reverifies_store_hits():
    from repro.pool import SessionPool

    config = OptimizationConfig(
        scale="test", strategy="greedy", search_budget=4, autotune=False
    )
    with SessionPool(["A100-sim"], config=config) as pool:
        queue = pool.serve()
        first = queue.submit("softmax")
        first.result(timeout=300)
        key = first.record().cache_key
        hit = queue.store.get(key)
        assert hit is not None and hit.artifact is not None

        # Poison the stored artifact with a dependence-breaking swap.
        art = hit.artifact
        seed = art.compiled.kernel
        bad_kernel = None
        for i in range(len(seed.lines) - 1):
            candidate = art.optimized.kernel.swap(i, i + 1)
            if not verify_schedule(seed, candidate, include_warnings=False).ok:
                bad_kernel = candidate
                break
        assert bad_kernel is not None
        bad = dataclasses.replace(
            hit,
            artifact=dataclasses.replace(
                art, optimized=dataclasses.replace(art.optimized, kernel=bad_kernel)
            ),
        )
        queue.store.put(key, bad)

        again = queue.submit("softmax")
        again.result(timeout=300)
        assert again.record().from_store is False  # gate forced a re-optimize
        assert queue.store.stats.invalidations == 1
        # The re-optimized (clean) report replaced the poisoned entry.
        refreshed = queue.store.get(key)
        assert refreshed is not None
        assert verify_schedule(
            refreshed.artifact.compiled.kernel, refreshed.artifact.optimized.kernel
        ).ok


# ---------------------------------------------------------------------------
# Lint CLI
# ---------------------------------------------------------------------------
def test_lint_cli_clean_kernel(capsys):
    assert lint_main(["softmax", "--scale", "test"]) == EXIT_CLEAN
    out = capsys.readouterr().out
    assert "softmax" in out and "clean" in out


def test_lint_cli_json_output(capsys):
    assert lint_main(["softmax", "--scale", "test", "--json"]) == EXIT_CLEAN
    payload = json.loads(capsys.readouterr().out)
    assert payload["kernel"] == "softmax" and payload["ok"] is True


def test_lint_cli_unknown_kernel(capsys):
    assert lint_main(["definitely-not-a-kernel"]) == EXIT_USAGE
    assert "unknown kernel" in capsys.readouterr().err


def test_lint_cli_rejects_illegal_schedule(tmp_path, capsys):
    kernel = compiled_kernel("softmax").kernel
    verifier = ScheduleVerifier(kernel)
    bad, _ = _first_adjacent_violation(kernel, verifier)
    assert bad is not None
    seed_path = tmp_path / "seed.sass"
    bad_path = tmp_path / "bad.sass"
    seed_path.write_text(kernel.render())
    bad_path.write_text(bad.render())

    code = lint_main([str(seed_path), "--schedule", str(bad_path)])
    out = capsys.readouterr().out
    assert code == EXIT_FINDINGS
    assert "error" in out and "FAILED" in out

    assert lint_main([str(seed_path), "--schedule", str(seed_path)]) == EXIT_CLEAN


def test_lint_cli_strict_fails_on_warnings(tmp_path):
    listing = """
[B------:R-:W3:-:S02] LDG.E R8, [R6.64] ;
[B------:R-:W-:-:S05] EXIT ;
"""
    path = tmp_path / "warned.sass"
    path.write_text(listing.strip() + "\n")
    assert lint_main([str(path), "-q"]) == EXIT_CLEAN
    assert lint_main([str(path), "--strict", "-q"]) == EXIT_FINDINGS
