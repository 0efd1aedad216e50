"""Structured diagnostics for the schedule verifier and SASS lint.

Every rule the verifier can fire is registered here with a stable code so
tests, CI gates and clients can match on ``diagnostic.rule`` instead of
parsing message text.  Codes are grouped by family:

========  ==================================================================
``V0xx``  structural checks (permutation, block/label/sync boundaries)
``V1xx``  register dependences (RAW/WAR/WAW on general/predicate/uniform)
``V2xx``  scoreboard protocol (set/wait ordering, races)
``V3xx``  stall-count sufficiency for fixed-latency producers
``V4xx``  memory hazards (LDGSTS shared-base, conservative aliasing)
``V5xx``  advisory checks that masking does not enforce
``V6xx``  register pressure (budget exceeded, dead definitions)
``V7xx``  functional verification (output checks, control-code round-trips)
========  ==================================================================

Severity semantics mirror the differential guarantee against
:mod:`repro.core.masking`: every invariant that the incremental action mask
enforces is ``ERROR`` severity, while whole-program checks the mask cannot
see (pure address aliasing, denylist slack erosion, never-consumed
barriers) are ``WARNING``/``INFO``.  A schedule is *clean* iff it has no
``ERROR`` diagnostics; warnings never fail verification.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any


class Severity(enum.IntEnum):
    """Severity ladder; comparisons follow the integer ordering."""

    INFO = 10
    WARNING = 20
    ERROR = 30

    @property
    def label(self) -> str:
        return self.name.lower()


@dataclass(frozen=True)
class Rule:
    """A registered diagnostic rule."""

    code: str
    name: str
    severity: Severity
    summary: str


def _rule(code: str, name: str, severity: Severity, summary: str) -> Rule:
    return Rule(code=code, name=name, severity=severity, summary=summary)


#: Registry of every rule the verifier can emit, keyed by code.
RULES: dict[str, Rule] = {
    rule.code: rule
    for rule in (
        # -- structure ----------------------------------------------------
        _rule(
            "V001",
            "structure-mismatch",
            Severity.ERROR,
            "candidate is not a permutation of the seed listing",
        ),
        _rule(
            "V002",
            "boundary-moved",
            Severity.ERROR,
            "label or synchronisation boundary changed position",
        ),
        _rule(
            "V003",
            "cross-block-move",
            Severity.ERROR,
            "instruction crossed a basic-block boundary",
        ),
        # -- register dependences -----------------------------------------
        _rule("V101", "raw-dependence", Severity.ERROR, "read-after-write order violated"),
        _rule("V102", "war-dependence", Severity.ERROR, "write-after-read order violated"),
        _rule("V103", "waw-dependence", Severity.ERROR, "write-after-write order violated"),
        _rule(
            "V104",
            "predicate-dependence",
            Severity.ERROR,
            "predicate register dependence order violated",
        ),
        _rule(
            "V105",
            "uniform-dependence",
            Severity.ERROR,
            "uniform register dependence order violated",
        ),
        # -- scoreboard protocol ------------------------------------------
        _rule(
            "V201",
            "barrier-order",
            Severity.ERROR,
            "scoreboard set/wait pair reordered",
        ),
        _rule(
            "V202",
            "wait-before-set",
            Severity.ERROR,
            "wait on a scoreboard slot no path has armed",
        ),
        _rule(
            "V203",
            "double-set",
            Severity.ERROR,
            "scoreboard slot re-armed without an intervening wait",
        ),
        _rule(
            "V204",
            "never-waited",
            Severity.WARNING,
            "write barrier armed but never waited on",
        ),
        # -- stall counts ---------------------------------------------------
        _rule(
            "V301",
            "stall-violation",
            Severity.ERROR,
            "fixed-latency producer too close to its consumer",
        ),
        # -- memory hazards -------------------------------------------------
        _rule(
            "V401",
            "ldgsts-hazard",
            Severity.ERROR,
            "asynchronous copies sharing a base register reordered",
        ),
        _rule(
            "V402",
            "memory-alias",
            Severity.WARNING,
            "possibly-aliasing memory accesses reordered",
        ),
        # -- advisory -------------------------------------------------------
        _rule(
            "V501",
            "denylist-slack",
            Severity.WARNING,
            "denylisted instruction lost stall slack versus the seed",
        ),
        # -- register pressure ----------------------------------------------
        _rule(
            "V601",
            "pressure-exceeded",
            Severity.ERROR,
            "peak live-register pressure exceeds the backend register file",
        ),
        _rule(
            "V602",
            "dead-definition",
            Severity.WARNING,
            "register written but never read on any path",
        ),
        # -- functional verification ----------------------------------------
        _rule(
            "V701",
            "functional-mismatch",
            Severity.ERROR,
            "candidate output differs bit-exactly from the seed schedule",
        ),
        _rule(
            "V702",
            "control-roundtrip",
            Severity.ERROR,
            "control code does not survive an encode/decode round-trip",
        ),
        _rule(
            "V703",
            "reference-mismatch",
            Severity.ERROR,
            "candidate output misses the numpy reference beyond fp16 tolerance",
        ),
    )
}


@dataclass(frozen=True)
class Diagnostic:
    """One verifier finding, tied to a registered rule.

    ``line`` / ``end_line`` are listing indices into the *candidate*
    schedule (``end_line`` inclusive); for seed-side findings they index
    the seed listing, which shares the same frame.
    """

    rule: str
    message: str
    line: int
    end_line: int | None = None
    hint: str | None = None
    details: dict[str, Any] = field(default_factory=dict)

    @property
    def severity(self) -> Severity:
        return RULES[self.rule].severity

    @property
    def name(self) -> str:
        return RULES[self.rule].name

    @property
    def span(self) -> tuple[int, int]:
        return (self.line, self.end_line if self.end_line is not None else self.line)

    def as_dict(self) -> dict[str, Any]:
        payload: dict[str, Any] = {
            "rule": self.rule,
            "name": self.name,
            "severity": self.severity.label,
            "line": self.line,
            "end_line": self.span[1],
            "message": self.message,
        }
        if self.hint:
            payload["hint"] = self.hint
        if self.details:
            payload["details"] = dict(self.details)
        return payload

    def render(self, source: str = "<schedule>") -> str:
        """Linter-style one-line rendering, e.g.

        ``softmax:12: error V101 [raw-dependence] ... (hint: ...)``
        """
        start, end = self.span
        location = f"{source}:{start}" if start == end else f"{source}:{start}-{end}"
        text = f"{location}: {self.severity.label} {self.rule} [{self.name}] {self.message}"
        if self.hint:
            text += f" (hint: {self.hint})"
        return text


def make_diagnostic(
    rule: str,
    message: str,
    *,
    line: int,
    end_line: int | None = None,
    hint: str | None = None,
    details: dict[str, Any] | None = None,
) -> Diagnostic:
    """Build a :class:`Diagnostic`, validating the rule code."""
    if rule not in RULES:
        raise KeyError(f"unknown diagnostic rule {rule!r}")
    return Diagnostic(
        rule=rule,
        message=message,
        line=line,
        end_line=end_line,
        hint=hint,
        details=details or {},
    )


def worst_severity(diagnostics: tuple[Diagnostic, ...] | list[Diagnostic]) -> Severity | None:
    """The highest severity present, or ``None`` when there are no findings."""
    if not diagnostics:
        return None
    return max(diag.severity for diag in diagnostics)
