"""Tests for the precision dataflow layer: liveness & register pressure,
space-tagged def-use keys, the output check (V701/V703), the splice audit
(V702) and the verify cascade that runs them in every verify mode.

The centerpiece is the hand-seeded semantics break: two stores to the *same*
address whose swap the timing verifier admits (same-address stores are only a
V402 warning) and probabilistic testing forgives (the payloads differ by one
fp16 ulp, far inside the 2e-2 tolerance) — but whose outputs are not
bit-identical, so the ``verify="functional"`` tier must catch it and the
``V701`` code must survive to the report and the serve terminal event.
"""

import dataclasses
from types import SimpleNamespace
from typing import Callable

import numpy as np
import pytest

import repro.api.session as session_module
import repro.triton.kernels  # noqa: F401 - registers the bundled specs
from repro.analysis.funcdiff import OutputCheck, audit_control_roundtrip
from repro.analysis.liveness import (
    REGISTER_BUDGET,
    compute_liveness,
    pressure_report,
)
from repro.analysis.verify import ScheduleVerifier
from repro.api import (
    CacheConfig,
    OptimizationConfig,
    Session,
    StrategyOutcome,
    register_strategy,
)
from repro.api.strategies import STRATEGIES
from repro.sass import KernelMetadata, SassKernel
from repro.sass.assembler import assemble, splice_kernel
from repro.sim import GPUSimulator, GridConfig
from repro.triton.compiler import CompiledKernel
from repro.triton.spec import KernelSpec

# ---------------------------------------------------------------------------
# The hand-seeded semantics break (see module docstring)
# ---------------------------------------------------------------------------
_DOUBLE_STORE = """
[B------:R-:W-:-:S04] MOV R4, c[0x0][0x160] ;
[B------:R-:W-:-:S04] MOV R6, c[0x0][0x168] ;
[B------:R-:W-:-:S05] IADD3 R8, R4, RZ, RZ ;
[B------:R-:W-:-:S05] IADD3 R10, R6, RZ, RZ ;
[B------:R-:W0:-:S02] LDG.E.128 R12, [R8.64] ;
[B0-----:R-:W-:-:S04] FADD R16, R12, 1.0009765625 ;
[B0-----:R-:W-:-:S04] FADD R20, R12, 1.0 ;
[B------:R0:W-:-:S02] STG.E.128 [R10.64], R16 ;
[B------:R1:W-:-:S02] STG.E.128 [R10.64], R20 ;
[B------:R-:W-:-:S05] EXIT ;
"""
_STORE_A, _STORE_B = 7, 8  # listing indices of the two same-address stores


def _double_store_kernel() -> SassKernel:
    return SassKernel.from_text(
        _DOUBLE_STORE, KernelMetadata(name="dblstore", num_warps=1, num_params=2)
    )


def _double_store_inputs(rng) -> dict:
    x = (rng.random((1, 256)).astype(np.float16) / 2).astype(np.float16)
    return {"x": x, "y": np.zeros_like(x)}


def _double_store_differ(simulator=None) -> OutputCheck:
    return OutputCheck(
        simulator=simulator or GPUSimulator(),
        input_factory=_double_store_inputs,
        reference=lambda inputs: {"y": _reference_final_store(inputs["x"])},
        grid=GridConfig((1, 1, 1), 1),
        param_order=["x", "y"],
        output_names=["y"],
    )


def _double_store_compiled() -> CompiledKernel:
    """A synthetic CompiledKernel so the Session pipeline accepts the listing."""
    kernel = _double_store_kernel()
    shapes = {"n": 256}
    spec = KernelSpec(
        name="dblstore-test",
        build=lambda shapes, config: None,
        grid=lambda shapes, config: GridConfig((1, 1, 1), 1),
        make_inputs=lambda rng, shapes: _double_store_inputs(rng),
        # The oracle forgives both payloads: x+1 vs x+1.001 are both within
        # the probabilistic tester's 2e-2 fp16 tolerance.
        reference=lambda inputs, shapes: {
            "y": _reference_final_store(inputs["x"])
        },
        output_names=("y",),
        default_config={"num_warps": 1},
        config_space=({"num_warps": 1},),
        paper_shapes=shapes,
        bench_shapes=shapes,
        test_shapes=shapes,
    )
    return CompiledKernel(
        spec=spec,
        shapes=shapes,
        config={"num_warps": 1},
        program=None,
        kernel=kernel,
        cubin=assemble(kernel, arch_sm=80),
        grid=GridConfig((1, 1, 1), 1),
        param_order=["x", "y"],
    )


def _reference_final_store(x: np.ndarray) -> np.ndarray:
    return (x.astype(np.float32) + 1.0).astype(np.float16)


def test_timing_verifier_admits_the_same_address_store_swap():
    kernel = _double_store_kernel()
    verifier = ScheduleVerifier(kernel)
    swapped = kernel.swap(_STORE_A, _STORE_B)
    assert verifier.is_legal(swapped)
    assert verifier.verify(swapped, include_warnings=False).ok
    # The aliasing pair is visible — but only at warning severity.
    warned = {d.rule for d in verifier.verify(swapped).diagnostics}
    assert "V402" in warned


def test_functional_differ_catches_the_swap_with_v701():
    kernel = _double_store_kernel()
    differ = _double_store_differ()
    result = differ.run(kernel.swap(_STORE_A, _STORE_B), seed_kernel=kernel, trials=1)
    assert not result.passed
    assert result.mismatched_outputs == ("y",)
    assert 0 < result.max_abs_error < 2e-2  # inside probabilistic tolerance
    assert {d.rule for d in result.diagnostics} == {"V701"}


def test_functional_differ_accepts_self_and_benign_reorders():
    kernel = _double_store_kernel()
    differ = _double_store_differ()
    assert differ.run(kernel, seed_kernel=kernel, trials=2).passed
    # Swapping the two independent FADDs is genuinely behaviour-preserving.
    benign = kernel.swap(5, 6)
    assert differ.run(benign, seed_kernel=kernel, trials=2).passed


def test_session_functional_tier_catches_what_final_admits(tmp_path):
    @register_strategy("plant-store-swap-test")
    class PlantStoreSwap:
        name = "plant-store-swap-test"

        def run(self, context):
            baseline = context.compiled.measure(
                context.simulator, measurement=context.measurement
            ).time_ms
            return StrategyOutcome(
                strategy=self.name,
                baseline_time_ms=baseline,
                best_time_ms=baseline * 0.9,
                best_kernel=context.compiled.kernel.swap(_STORE_A, _STORE_B),
                evaluations=1,
            )

    session = Session(
        gpu=GPUSimulator(),
        cache_dir=tmp_path,
        config=OptimizationConfig(scale="test", autotune=False, verify_trials=1),
    )
    compiled = _double_store_compiled()

    # The timing + probabilistic tier admits the planted schedule...
    final = session.optimize_compiled(
        compiled, strategy="plant-store-swap-test", verify="final", store=False
    )
    assert final.verified is True
    assert "V701" not in {d.get("rule") for d in final.diagnostics}

    # ...the functional tier rejects it, falls back to -O3 and reports V701.
    functional = session.optimize_compiled(
        compiled, strategy="plant-store-swap-test", verify="functional", store=False
    )
    assert functional.verified is False
    assert functional.best_time_ms == functional.baseline_time_ms
    v701 = [d for d in functional.diagnostics if d.get("rule") == "V701"]
    assert v701 and v701[0]["severity"] == "error"
    assert functional.details["verify_mode"] == "functional"
    session.close()


def test_serve_terminal_rules_surface_v701():
    from repro.serve.queue import JobQueue

    report = SimpleNamespace(
        verified=False,
        diagnostics=(
            {"rule": "V701", "severity": "error", "message": "output differs"},
            {"rule": "V402", "severity": "warning", "message": "may alias"},
        ),
    )
    job = SimpleNamespace(invalidation_rules=[])
    assert JobQueue._terminal_rules(job, report) == ("V701",)


# ---------------------------------------------------------------------------
# The verify cascade: every mode against planted candidates
# ---------------------------------------------------------------------------
_MODES = ("off", "final", "functional", "paranoid")
_RAW_BREAK = (4, 5)  # the LDG and the FADD that reads its destination

#: Planted "best" schedules, as moves applied to the seed listing.
_PLANTS = {
    "seed": lambda kernel: kernel,
    "fadd-swap": lambda kernel: kernel.swap(5, 6),
    "store-swap": lambda kernel: kernel.swap(_STORE_A, _STORE_B),
    "raw-break": lambda kernel: kernel.swap(*_RAW_BREAK),
}


@dataclasses.dataclass
class _Planted:
    """A search strategy that "finds" one planted schedule, 10% faster."""

    name: str
    move: Callable[[SassKernel], SassKernel]

    def run(self, context):
        baseline = context.compiled.measure(
            context.simulator, measurement=context.measurement
        ).time_ms
        kernel = self.move(context.compiled.kernel)
        return StrategyOutcome(
            strategy=self.name,
            baseline_time_ms=baseline,
            best_time_ms=baseline if kernel is context.compiled.kernel else baseline * 0.9,
            best_kernel=kernel,
            evaluations=1,
        )


for _name, _move in _PLANTS.items():
    STRATEGIES.add(f"cascade-{_name}-test", _Planted(f"cascade-{_name}-test", _move))


def _wrong_oracle_compiled() -> CompiledKernel:
    """The double-store kernel checked against a numpy oracle that expects x + 2."""
    compiled = _double_store_compiled()
    spec = dataclasses.replace(
        compiled.spec,
        reference=lambda inputs, shapes: {
            "y": (inputs["x"].astype(np.float32) + 2.0).astype(np.float16)
        },
    )
    return dataclasses.replace(compiled, spec=spec)


def _reorder_splice_readback(monkeypatch) -> None:
    """Make the paranoid audit read a RAW-broken schedule back out of the cubin."""
    real = session_module.disassemble
    monkeypatch.setattr(
        session_module,
        "disassemble",
        lambda *args, **kwargs: real(*args, **kwargs).swap(*_RAW_BREAK),
    )


_KEEP = "keep"
_RAW = frozenset({"V101", "V202"})
_V701 = frozenset({"V701"})
_V703 = frozenset({"V703"})

#: (candidate, oracle, splice read-back) -> outcome in final / functional /
#: paranoid mode: _KEEP, or the error rules of a fall-back to the seed.
#: "off" always keeps the candidate unverified.
_TABLE = {
    ("seed", "numpy", "faithful"): (_KEEP, _KEEP, _KEEP),
    ("fadd-swap", "numpy", "faithful"): (_KEEP, _KEEP, _KEEP),
    ("store-swap", "numpy", "faithful"): (_KEEP, _V701, _V701),
    ("raw-break", "numpy", "faithful"): (_RAW, _RAW, _RAW),
    ("seed", "wrong", "faithful"): (_V703, _V703, _V703),
    ("fadd-swap", "wrong", "faithful"): (_V703, _V703, _V703),
    ("store-swap", "wrong", "faithful"): (_V703, _V703, _V703),
    ("raw-break", "wrong", "faithful"): (_RAW, _RAW, _RAW),
    ("seed", "numpy", "reordered"): (_KEEP, _KEEP, _RAW),
    ("fadd-swap", "numpy", "reordered"): (_KEEP, _KEEP, _RAW),
    ("store-swap", "numpy", "reordered"): (_KEEP, _V701, _V701),
    ("raw-break", "numpy", "reordered"): (_RAW, _RAW, _RAW),
}


@pytest.mark.parametrize("plant", list(_TABLE), ids="/".join)
def test_verify_cascade_acceptance_table(plant, monkeypatch):
    candidate, oracle, readback = plant
    compiled = _double_store_compiled() if oracle == "numpy" else _wrong_oracle_compiled()
    if readback == "reordered":
        _reorder_splice_readback(monkeypatch)
    planted = _PLANTS[candidate](compiled.kernel)
    for trials in (1, 2):
        session = Session(
            gpu=GPUSimulator(),
            config=OptimizationConfig(scale="test", autotune=False, verify_trials=trials),
            cache=CacheConfig(enabled=False),
        )
        for mode, expected in zip(_MODES, (_KEEP, *_TABLE[plant])):
            where = f"verify={mode!r}, verify_trials={trials}"
            report = session.optimize_compiled(
                compiled, strategy=f"cascade-{candidate}-test", verify=mode, store=False
            )
            kept = report.artifact.result.best_kernel
            errors = {d["rule"] for d in report.diagnostics if d["severity"] == "error"}
            if expected == _KEEP:
                assert report.verified is (None if mode == "off" else True), where
                assert kept == planted, where
                speedup = 1.0 if candidate == "seed" else 0.9
                assert report.best_time_ms == report.baseline_time_ms * speedup, where
                assert errors == set(), where
            else:
                assert report.verified is False, where
                assert kept == compiled.kernel, where
                assert report.best_time_ms == report.baseline_time_ms, where
                assert errors == expected, where
            # The artifact ships the kept schedule, never an audited reject.
            assert report.artifact.optimized.kernel == kept, where
            spliced = splice_kernel(compiled.cubin, kept)
            assert report.artifact.cubin.fingerprint() == spliced.fingerprint(), where
        session.close()


@pytest.mark.parametrize(
    "mode, readback, runs, splices",
    [
        ("final", "faithful", 1, 1),
        ("functional", "faithful", 2, 1),
        ("paranoid", "faithful", 2, 1),
        # The audit rejects the spliced candidate, so the seed is spliced too.
        ("paranoid", "reordered", 2, 2),
    ],
)
def test_verify_cascade_work_per_trial(mode, readback, runs, splices, monkeypatch):
    """One whole-grid run of a non-seed candidate per trial, plus one seed
    run when the check is bit-exact; the audited cubin is the one shipped."""
    if readback == "reordered":
        _reorder_splice_readback(monkeypatch)
    calls = {"run": 0, "splice": 0}
    real_run, real_splice = GPUSimulator.run, session_module.splice_kernel

    def counting_run(self, *args, **kwargs):
        calls["run"] += 1
        return real_run(self, *args, **kwargs)

    def counting_splice(*args, **kwargs):
        calls["splice"] += 1
        return real_splice(*args, **kwargs)

    monkeypatch.setattr(GPUSimulator, "run", counting_run)
    monkeypatch.setattr(session_module, "splice_kernel", counting_splice)
    session = Session(
        gpu=GPUSimulator(),
        config=OptimizationConfig(scale="test", autotune=False, verify_trials=1),
        cache=CacheConfig(enabled=False),
    )
    report = session.optimize_compiled(
        _double_store_compiled(), strategy="cascade-fadd-swap-test", verify=mode, store=False
    )
    session.close()
    assert report.verified is (readback == "faithful")
    assert calls == {"run": runs, "splice": splices}


def test_reference_mismatch_reports_v703():
    kernel = _double_store_kernel()
    check = dataclasses.replace(
        _double_store_differ(),
        reference=lambda inputs: {"y": np.zeros_like(inputs["x"]) + 3},
    )
    result = check.run(kernel, trials=2)
    assert not result.passed
    assert [d.rule for d in result.diagnostics] == ["V703"]
    assert result.diagnostics[0].details["output"] == "y"
    assert result.diagnostics[0].details["trial"] == 0
    assert result.max_abs_error > 1.0

    from repro.serve.queue import JobQueue

    session = Session(
        gpu=GPUSimulator(),
        config=OptimizationConfig(scale="test", autotune=False, verify_trials=1),
        cache=CacheConfig(enabled=False),
    )
    for mode in ("final", "functional"):
        report = session.optimize_compiled(
            _wrong_oracle_compiled(), strategy="cascade-seed-test", verify=mode, store=False
        )
        assert report.verified is False
        job = SimpleNamespace(invalidation_rules=[])
        assert JobQueue._terminal_rules(job, report) == ("V703",)
    session.close()


def test_report_is_the_only_verification_record():
    session = Session(
        gpu=GPUSimulator(),
        config=OptimizationConfig(scale="test", autotune=False, verify_trials=1),
        cache=CacheConfig(enabled=False),
    )
    report = session.optimize_compiled(
        _double_store_compiled(),
        strategy="cascade-store-swap-test",
        verify="functional",
        store=False,
    )
    session.close()
    assert report.verified is False
    assert "verified" not in report.artifact.result.summary()


# ---------------------------------------------------------------------------
# V702: control-code round-trip audit
# ---------------------------------------------------------------------------
def test_control_roundtrip_audit_clean_on_bundled_seed():
    from repro.triton.compiler import compile_spec
    from repro.triton.spec import get_spec

    kernel = compile_spec(get_spec("softmax"), scale="test").kernel
    assert audit_control_roundtrip(kernel) == []


def test_control_roundtrip_audit_flags_disagreement(monkeypatch):
    import repro.analysis.funcdiff as funcdiff
    from repro.sass.control import ControlCode

    kernel = _double_store_kernel()
    # Simulate an encoder/parser disagreement: every parse drops the stall.
    real_parse = ControlCode.parse

    def skewed_parse(text):
        return dataclasses.replace(real_parse(text), stall=15)

    monkeypatch.setattr(funcdiff.ControlCode, "parse", staticmethod(skewed_parse))
    findings = audit_control_roundtrip(kernel)
    assert findings and all(d.rule == "V702" for d in findings)
    assert all(d.as_dict()["severity"] == "error" for d in findings)


# ---------------------------------------------------------------------------
# Liveness, pressure and the space-tagged def-use keys
# ---------------------------------------------------------------------------
_LIVENESS_DEMO = """
[B------:R-:W-:-:S04] MOV R4, 0x1 ;
[B------:R-:W-:-:S04] MOV R5, 0x2 ;
[B------:R-:W-:-:S04] MOV R6, 0x3 ;
[B------:R-:W-:-:S05] IADD3 R7, R4, R5, RZ ;
[B------:R-:W-:-:S05] ISETP.GE.AND P1, PT, R7, 0x4, PT ;
[B------:R-:W-:-:S02] @P1 STG.E [R8.64], R7 ;
[B------:R-:W-:-:S05] EXIT ;
"""


def test_liveness_dead_definition_and_ranges():
    kernel = SassKernel.from_text(_LIVENESS_DEMO, KernelMetadata(name="live", num_warps=1))
    info = compute_liveness(kernel)
    # R6 is written and never read: a dead definition.
    assert (2, ("r", 6)) in info.dead_definitions
    # R4 is live from its def until the IADD3 consumes it, then dead.
    assert ("r", 4) in info.live_out[0]
    assert ("r", 4) not in info.live_out[3]
    # The predicate written by ISETP is live into the guarded store.
    assert ("p", 1) in info.live_out[4]


def test_pressure_report_counts_and_dead_defs():
    kernel = SassKernel.from_text(_LIVENESS_DEMO, KernelMetadata(name="live", num_warps=1))
    report = pressure_report(kernel)
    assert report.fits and report.budget == REGISTER_BUDGET
    assert report.peak >= 3  # R4, R5, R6 (+R8 live-in) overlap
    assert any(reg == "R6" for _, reg in report.dead_definitions)


def test_pressure_report_flags_over_budget_listing():
    # 250 simultaneously-live registers: defs first, uses afterwards.
    n = REGISTER_BUDGET + 10
    lines = [f"[B------:R-:W-:-:S04] MOV R{4 + i}, 0x1 ;" for i in range(n)]
    lines += [f"[B------:R-:W-:-:S02] STG.E [R2.64], R{4 + i} ;" for i in range(n)]
    lines.append("[B------:R-:W-:-:S05] EXIT ;")
    kernel = SassKernel.from_text("\n".join(lines), KernelMetadata(name="fat", num_warps=1))
    report = pressure_report(kernel)
    assert not report.fits
    assert report.peak >= n
    assert report.headroom < 0


def test_lint_pressure_gate_exit_codes(tmp_path):
    from repro.analysis.lint import main as lint_main

    n = REGISTER_BUDGET + 10
    lines = [f"[B------:R-:W-:-:S04] MOV R{4 + i}, 0x1 ;" for i in range(n)]
    lines += [f"[B------:R-:W-:-:S02] STG.E [R2.64], R{4 + i} ;" for i in range(n)]
    lines.append("[B------:R-:W-:-:S05] EXIT ;")
    fat = tmp_path / "fat.sass"
    fat.write_text("\n".join(lines))

    lean = tmp_path / "lean.sass"
    lean.write_text(_LIVENESS_DEMO)

    # Without --pressure the fat listing has no error-severity findings...
    assert lint_main([str(fat), "-q"]) == 0
    # ...with it, V601 makes the gate fail.
    assert lint_main([str(fat), "--pressure", "-q"]) == 1
    # Dead definitions alone are warnings: clean exit unless --strict.
    assert lint_main([str(lean), "--pressure", "-q"]) == 0
    assert lint_main([str(lean), "--pressure", "--strict", "-q"]) == 1
