"""Pre-game static analysis passes (§3.2 of the paper).

Before the assembly game starts, CuAsmRL runs several analysis passes over
the disassembled SASS listing:

* basic-block / control-flow structure (instructions are never reordered
  across labels or synchronization instructions);
* stall-count resolution for every memory instruction that consumes the
  output of a fixed-latency instruction — resolved from the built-in table,
  inferred from the original (always-valid) schedule, or deny-listed;
* the operand/memory tables used by the state embedding.

On top of the pre-game passes, :mod:`repro.analysis.verify` provides an
independent whole-schedule semantic verifier (with structured diagnostics
from :mod:`repro.analysis.diagnostics` over the dependence graph built by
:mod:`repro.analysis.deps`) and ``python -m repro.analysis.lint`` exposes it
as a linter for CI.  Each seed listing has one read-only verifier
(:func:`~repro.analysis.verify.seed_verifier`), built once and shared by
every live kernel object with that listing: the pre-game passes read the
CFG and stall inference from its graph, and the env's ``is_legal``
pre-filter, the verify cascade, the lint CLI and every serving-store audit
read the verifier itself.

The precision dataflow layer adds three passes on top:

* :mod:`repro.analysis.liveness` — backward live-range analysis, the
  register-pressure report and the dead-fragment repack transform;
* sharper alias disambiguation in :mod:`repro.analysis.deps`
  (``alias_mode="precise"`` with provenance tracking, vs the sound
  ``"conservative"`` over-approximation);
* :mod:`repro.analysis.funcdiff` — the output check (numpy reference within
  fp16 tolerance, rule ``V703``; bit-exact against the seed schedule, rule
  ``V701``) and the control-code round-trip audit (``V702``).
"""

from repro.analysis.cfg import BasicBlock, ControlFlowInfo, build_cfg
from repro.analysis.deps import (
    ALIAS_MODES,
    AliasContext,
    DepEdge,
    DependenceGraph,
    StallConstraint,
    build_alias_context,
    build_dependence_graph,
    ldgsts_hazard,
    may_alias,
)
from repro.analysis.funcdiff import OutputCheck, OutputCheckResult, audit_control_roundtrip
from repro.analysis.liveness import (
    REGISTER_BUDGET,
    LivenessInfo,
    PressureReport,
    compute_liveness,
    pressure_report,
    repack_registers,
)
from repro.analysis.diagnostics import RULES, Diagnostic, Rule, Severity, worst_severity
from repro.analysis.memory_table import EmbeddingTables, build_embedding_tables
from repro.analysis.passes import PreGameAnalysis, run_pre_game_analysis
from repro.analysis.stall_inference import (
    Resolution,
    StallDependence,
    StallInferenceResult,
    infer_stall_counts,
)
from repro.analysis.verify import (
    ScheduleVerifier,
    VerificationResult,
    check_scoreboard_protocol,
    seed_verifier,
    verify_schedule,
)

__all__ = [
    "BasicBlock",
    "ControlFlowInfo",
    "build_cfg",
    "ALIAS_MODES",
    "AliasContext",
    "DepEdge",
    "DependenceGraph",
    "StallConstraint",
    "build_alias_context",
    "build_dependence_graph",
    "ldgsts_hazard",
    "may_alias",
    "OutputCheck",
    "OutputCheckResult",
    "audit_control_roundtrip",
    "REGISTER_BUDGET",
    "LivenessInfo",
    "PressureReport",
    "compute_liveness",
    "pressure_report",
    "repack_registers",
    "RULES",
    "Diagnostic",
    "Rule",
    "Severity",
    "worst_severity",
    "EmbeddingTables",
    "build_embedding_tables",
    "Resolution",
    "StallDependence",
    "StallInferenceResult",
    "infer_stall_counts",
    "PreGameAnalysis",
    "run_pre_game_analysis",
    "ScheduleVerifier",
    "VerificationResult",
    "check_scoreboard_protocol",
    "seed_verifier",
    "verify_schedule",
]
