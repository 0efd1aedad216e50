"""Measurement-regime registry: named :class:`MeasurementPolicy` presets.

The paper measures with one fixed CUDA-events protocol (§3.6); the harness
wants to sweep *regimes* — deterministic vs. noisy measurement, full-length
vs. quick smoke protocols — without every consumer hand-building
:class:`~repro.api.config.MeasurementPolicy` objects.  Regimes live in
:data:`REGIMES`, a :class:`repro.utils.registry.Registry`: canonical names,
case-insensitive aliases, tag-filtered enumeration.  The scenario layer
(:mod:`repro.scenarios`) references regimes by name.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.api.config import MeasurementPolicy
from repro.utils.registry import Registry


@dataclass(frozen=True, slots=True)
class RegimeSpec:
    """One registered measurement regime."""

    name: str
    description: str
    policy: MeasurementPolicy
    aliases: tuple[str, ...] = ()
    tags: tuple[str, ...] = ()


REGIMES: Registry[RegimeSpec] = Registry("measurement regime")


def register_regime(
    name: str,
    policy: MeasurementPolicy,
    *,
    aliases: tuple[str, ...] = (),
    description: str = "",
    tags: tuple[str, ...] = (),
) -> RegimeSpec:
    """Register a measurement policy under ``name`` (and its aliases)."""
    spec = RegimeSpec(
        name=name, description=description, policy=policy,
        aliases=tuple(aliases), tags=tuple(tags),
    )
    return REGIMES.add(name, spec, aliases=spec.aliases)


available_regimes = REGIMES.names
regime_spec = REGIMES.get


# ---------------------------------------------------------------------------
# Built-in regimes
# ---------------------------------------------------------------------------
register_regime(
    "default",
    MeasurementPolicy(),
    aliases=("deterministic",),
    description="The §3.6 protocol: 100 warm-up + 100 timed launches, no noise.",
    tags=("deterministic",),
)

register_regime(
    "noisy",
    MeasurementPolicy(noise_std=0.01),
    aliases=("noise-1pct",),
    description="Measurement noise at the paper's reported run-to-run std (1%); "
    "stresses search robustness against misleading rewards.",
    tags=("adversarial",),
)

register_regime(
    "quick",
    MeasurementPolicy(warmup_iterations=10, measure_iterations=10),
    aliases=("smoke",),
    description="Shortened deterministic protocol for smoke runs and CI.",
    tags=("deterministic", "smoke"),
)

register_regime(
    "chaos",
    MeasurementPolicy(noise_std=0.02, warmup_iterations=25, measure_iterations=25),
    aliases=("fault-injection",),
    description="Shortened noisy protocol for fault-injection runs: enough "
    "measurements per job to land mid-flight crashes and checkpoints, 2% "
    "noise so retried/resumed searches cannot rely on bit-identical timings.",
    tags=("chaos",),
)
