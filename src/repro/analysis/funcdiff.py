"""The output check and the control-code round-trip audit (the V7xx rules).

The timing verifier (:mod:`repro.analysis.verify`) proves a candidate is a
dependence-preserving permutation of the seed — but its dependence model is
static, so a schedule that defeats the model (or a bug in the model itself)
can slip through with wrong semantics.  :class:`OutputCheck` executes the
candidate instead.  Per trial it draws randomized inputs once and runs the
candidate on a fresh copy of them:

* the outputs must match the numpy reference within the fp16 tolerance of
  :func:`repro.sim.functional.compare_outputs` — the paper's probabilistic
  testing (§4.1); a miss is rule ``V703``;
* given the seed schedule, they must also be **bit-identical** to the
  seed's outputs on the same inputs — rule ``V701``.  The tolerance by design
  forgives small numeric drift, exactly the kind a semantics-breaking reorder
  of same-address accesses produces.

The paranoid splice audit adds :func:`audit_control_roundtrip`: every control
code in the spliced listing must survive ``render`` → ``parse`` unchanged (rule
``V702``), catching encode/decode disagreements before a schedule is
persisted.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

import numpy as np

from repro.analysis.diagnostics import Diagnostic, make_diagnostic
from repro.errors import SassParseError
from repro.sass.control import ControlCode
from repro.sass.instruction import Instruction
from repro.sass.kernel import SassKernel
from repro.sim.functional import compare_outputs
from repro.sim.gpu import GPUSimulator
from repro.sim.launch import GridConfig

if TYPE_CHECKING:
    from repro.triton.compiler import CompiledKernel

Tensors = dict[str, np.ndarray]


@dataclass(frozen=True)
class OutputCheckResult:
    """Outcome of one output check: passed iff it found nothing."""

    diagnostics: tuple[Diagnostic, ...] = ()

    @property
    def passed(self) -> bool:
        return not self.diagnostics

    @property
    def message(self) -> str:
        return self.diagnostics[0].message if self.diagnostics else ""

    @property
    def mismatched_outputs(self) -> tuple[str, ...]:
        return tuple(dict.fromkeys(str(d.details["output"]) for d in self.diagnostics))

    @property
    def max_abs_error(self) -> float:
        return max((float(d.details["max_abs_error"]) for d in self.diagnostics), default=0.0)


def _bit_identical(candidate: np.ndarray, reference: np.ndarray) -> bool:
    cand = np.asarray(candidate)
    ref = np.asarray(reference)
    return (
        cand.shape == ref.shape
        and cand.dtype == ref.dtype
        and cand.tobytes() == ref.tobytes()
    )


#: Message template and hint of each rule the output check emits.
_FINDINGS = {
    "V703": (
        "output {output!r} misses the numpy reference (max abs err {error:.4g}, trial {trial})",
        "the schedule computes wrong values; reject it",
    ),
    "V701": (
        "output {output!r} differs from the seed schedule (max abs err {error:.4g}, trial {trial})",
        "the schedule changes observable behaviour; reject it",
    ),
}


def _finding(rule: str, output: str, trial: int, error: float) -> Diagnostic:
    message, hint = _FINDINGS[rule]
    return make_diagnostic(
        rule,
        message.format(output=output, error=error, trial=trial),
        line=0,
        hint=hint,
        details={"output": output, "trial": trial, "max_abs_error": error},
    )


@dataclass(frozen=True)
class OutputCheck:
    """Runs a schedule on randomized inputs and checks what it writes.

    ``input_factory(rng)`` draws the inputs of one trial (zeroed outputs
    included) and ``reference(inputs)`` is the numpy oracle of the outputs.
    """

    simulator: GPUSimulator
    input_factory: Callable[[np.random.Generator], Tensors]
    reference: Callable[[Tensors], Tensors]
    grid: GridConfig
    param_order: list[str]
    output_names: list[str]

    @classmethod
    def from_compiled(
        cls, compiled: CompiledKernel, simulator: GPUSimulator | None = None
    ) -> OutputCheck:
        """The check of a :class:`~repro.triton.compiler.CompiledKernel`."""
        return cls(
            simulator=simulator or GPUSimulator(),
            input_factory=compiled.make_inputs,
            reference=compiled.reference,
            grid=compiled.grid,
            param_order=compiled.param_order,
            output_names=list(compiled.spec.output_names),
        )

    def _outputs(self, kernel: SassKernel, inputs: Tensors) -> Tensors:
        # A fresh copy per run, so in-place output writes cannot leak across.
        copies = {name: np.array(array, copy=True) for name, array in inputs.items()}
        run = self.simulator.run(
            kernel, self.grid, copies, self.param_order, output_names=self.output_names
        )
        return run.outputs

    def run(
        self,
        candidate: SassKernel,
        *,
        seed_kernel: SassKernel | None = None,
        trials: int = 1,
        seed: int = 0,
    ) -> OutputCheckResult:
        """Check ``candidate`` on ``trials`` random inputs drawn from ``seed``.

        Against the numpy reference always (``V703``); bit-exactly against
        ``seed_kernel``'s outputs too when one is given (``V701``).  The first
        failing trial is conclusive; later trials add no signal.
        """
        rng = np.random.default_rng(seed)
        for trial in range(max(trials, 1)):
            inputs = self.input_factory(rng)
            expected = self.reference(inputs)
            actual = self._outputs(candidate, inputs)
            found: list[Diagnostic] = []
            for name, reference in expected.items():
                ok, error = False, float("inf")  # a missing output misses too
                if name in actual:
                    ok, error, _ = compare_outputs(actual[name], reference)
                if not ok:
                    found.append(_finding("V703", name, trial, error))
            if not found and seed_kernel is not None:
                for name, reference in self._outputs(seed_kernel, inputs).items():
                    if _bit_identical(actual[name], reference):
                        continue
                    delta = np.abs(
                        np.asarray(actual[name], dtype=np.float64)
                        - np.asarray(reference, dtype=np.float64)
                    )
                    found.append(_finding("V701", name, trial, float(delta.max(initial=0.0))))
            if found:
                return OutputCheckResult(tuple(found))
        return OutputCheckResult()


def audit_control_roundtrip(kernel: SassKernel) -> list[Diagnostic]:
    """Paranoid splice audit: ``parse(render(control)) == control`` per line.

    The serializer and parser of :mod:`repro.sass.control` are independent
    code paths; a respliced listing whose control codes do not survive the
    round-trip would persist differently than it verified.  Every violation
    is an error-severity ``V702`` finding.
    """
    diagnostics: list[Diagnostic] = []
    for index, line in enumerate(kernel.lines):
        if not isinstance(line, Instruction):
            continue
        rendered = line.control.render()
        try:
            recovered = ControlCode.parse(rendered)
        except SassParseError as exc:
            diagnostics.append(
                make_diagnostic(
                    "V702",
                    f"control code {rendered!r} failed to re-parse: {exc}",
                    line=index,
                    hint="encoder and parser disagree; do not persist this listing",
                )
            )
            continue
        if recovered != line.control:
            diagnostics.append(
                make_diagnostic(
                    "V702",
                    f"control code {rendered!r} re-parsed as {recovered.render()!r}",
                    line=index,
                    hint="encoder and parser disagree; do not persist this listing",
                    details={"rendered": rendered, "reparsed": recovered.render()},
                )
            )
    return diagnostics
