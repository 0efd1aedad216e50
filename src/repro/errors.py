"""Exception hierarchy for the CuAsmRL reproduction.

All library errors derive from :class:`ReproError` so callers can catch a
single base class.  Sub-hierarchies mirror the subsystems: SASS parsing and
assembling, the mini-Triton compiler, the GPU simulator and the RL stack.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by this library."""


# --------------------------------------------------------------------------
# SASS substrate
# --------------------------------------------------------------------------
class SassError(ReproError):
    """Base class for errors in the SASS substrate."""


class SassParseError(SassError):
    """A SASS text line could not be parsed.

    Attributes
    ----------
    line:
        The offending source line (may be ``None`` when unavailable).
    lineno:
        1-based line number in the source listing, or ``None``.
    """

    def __init__(self, message: str, line: str | None = None, lineno: int | None = None):
        self.line = line
        self.lineno = lineno
        if lineno is not None:
            message = f"line {lineno}: {message}"
        if line is not None:
            message = f"{message}\n  >> {line.rstrip()}"
        super().__init__(message)


class CubinError(SassError):
    """A cubin container is malformed or cannot be (dis)assembled."""


class AssemblerError(SassError):
    """The SASS assembler rejected a kernel."""


class DisassemblerError(SassError):
    """The disassembler could not decode a cubin kernel section."""


# --------------------------------------------------------------------------
# Mini-Triton compiler
# --------------------------------------------------------------------------
class CompilerError(ReproError):
    """Base class for errors in the mini-Triton compiler."""


class LoweringError(CompilerError):
    """The tile-level IR could not be lowered."""


class PtxasError(CompilerError):
    """The ptxas-like backend failed (register allocation, scheduling...)."""


class AutotuneError(CompilerError):
    """The autotuner could not find a valid configuration."""


# --------------------------------------------------------------------------
# Simulator
# --------------------------------------------------------------------------
class SimulatorError(ReproError):
    """Base class for errors in the GPU simulator."""


class LaunchError(SimulatorError):
    """A kernel launch was invalid (bad grid/block configuration...)."""


class ExecutionError(SimulatorError):
    """The functional interpreter hit an illegal instruction or state."""


# --------------------------------------------------------------------------
# Analysis / RL / optimizer
# --------------------------------------------------------------------------
class RLError(ReproError):
    """Base class for errors in the RL stack."""


class EnvironmentError_(RLError):
    """The assembly-game environment was used incorrectly."""


class OptimizationError(ReproError):
    """The high-level CuAsmRL optimizer failed."""


class AdmissionError(OptimizationError):
    """A submission was rejected by admission control (overloaded queue).

    Carries the structured rejection so front doors can surface it without
    parsing the message: ``reason`` (``"pending-queue-full"`` /
    ``"tenant-quota"``), the rejected ``job_id`` (when a rejected job record
    was minted) and ``tenant``.
    """

    def __init__(
        self,
        message: str,
        *,
        reason: str = "rejected",
        job_id: str | None = None,
        tenant: str | None = None,
    ):
        super().__init__(message)
        self.reason = reason
        self.job_id = job_id
        self.tenant = tenant


class QuotaExceeded(AdmissionError):
    """A tenant ran out of submission tokens (see ``repro.remote.admission``)."""

    def __init__(self, message: str, *, job_id: str | None = None, tenant: str | None = None):
        super().__init__(message, reason="tenant-quota", job_id=job_id, tenant=tenant)


class RemoteError(ReproError):
    """An HTTP remote-serving call failed.

    ``status`` is the HTTP status code and ``payload`` the structured JSON
    error body (when the server sent one).
    """

    def __init__(self, message: str, *, status: int = 0, payload: "dict | None" = None):
        super().__init__(message)
        self.status = status
        self.payload = payload or {}


class JobCancelled(ReproError):
    """A serving job was cancelled before it produced a result.

    Raised by the cooperative cancellation checkpoints the serve layer
    installs into the measurement service (see :mod:`repro.serve`): a
    strategy mid-search observes it as an ordinary exception unwinding the
    run, and :meth:`repro.serve.JobHandle.result` re-raises it to the caller.
    """


# --------------------------------------------------------------------------
# Infrastructure failures (retryable)
# --------------------------------------------------------------------------
class InfrastructureError(OptimizationError):
    """The serving substrate (worker, executor, session) failed — not the job.

    Errors in this sub-hierarchy mean the *machinery* running a job broke, not
    that the job itself was invalid: the same job re-run on a healthy worker
    is expected to succeed.  The serve-layer :class:`repro.api.RetryPolicy`
    only ever retries these (plus broken stdlib executors); verifier
    rejections and user errors are never retried.
    """


class WorkerCrash(InfrastructureError):
    """A pool worker died mid-job (raised by fault injection or supervision)."""


class SessionClosed(InfrastructureError):
    """An operation was attempted on a closed :class:`repro.api.Session`."""


def is_infrastructure_failure(exc: BaseException) -> bool:
    """True when ``exc`` indicates broken serving machinery, not a bad job.

    This is the retry/supervision classifier used by the serve queue: worker
    crashes (including injected ones) and closed sessions are infrastructure;
    everything else — compile errors, verifier rejections, bad shapes — is
    the job's own fault and must not be retried.
    """
    return isinstance(exc, InfrastructureError)
