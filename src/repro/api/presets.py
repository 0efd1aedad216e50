"""Optimization-preset registry: named :class:`OptimizationConfig` presets.

Completes the registry quartet (kernels, backends, regimes, optimization
presets) the scenario layer composes.  Presets live in :data:`PRESETS`, a
:class:`repro.utils.registry.Registry`: canonical names, case-insensitive
aliases, tag-filtered enumeration.  Scenarios reference presets by name and
may layer field overrides on top (``OptimizationConfig.replace``).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.api.config import OptimizationConfig
from repro.utils.registry import Registry


@dataclass(frozen=True, slots=True)
class PresetSpec:
    """One registered optimization preset."""

    name: str
    description: str
    config: OptimizationConfig
    aliases: tuple[str, ...] = ()
    tags: tuple[str, ...] = ()


PRESETS: Registry[PresetSpec] = Registry("optimization preset")


def register_preset(
    name: str,
    config: OptimizationConfig,
    *,
    aliases: tuple[str, ...] = (),
    description: str = "",
    tags: tuple[str, ...] = (),
) -> PresetSpec:
    """Register an optimization config under ``name`` (and its aliases)."""
    spec = PresetSpec(
        name=name, description=description, config=config,
        aliases=tuple(aliases), tags=tuple(tags),
    )
    return PRESETS.add(name, spec, aliases=spec.aliases)


available_presets = PRESETS.names
preset_spec = PRESETS.get


# ---------------------------------------------------------------------------
# Built-in presets
# ---------------------------------------------------------------------------
register_preset(
    "default",
    OptimizationConfig(),
    aliases=("ppo",),
    description="The paper's §3 configuration: PPO over the assembly game, "
    "stage-1 autotuning, final verification.",
)

register_preset(
    "smoke",
    OptimizationConfig(
        strategy="greedy",
        search_budget=8,
        episode_length=8,
        autotune=False,
        verify="final",
    ),
    aliases=("greedy-smoke",),
    description="Cheapest useful search: short greedy walk, no autotuning; "
    "the scenario suite runner's default.",
    tags=("smoke",),
)

register_preset(
    "ppo-short",
    OptimizationConfig(
        strategy="ppo",
        episode_length=8,
        train_timesteps=64,
    ),
    description="Abbreviated PPO run for quick end-to-end RL coverage.",
    tags=("smoke",),
)

register_preset(
    "thorough",
    OptimizationConfig(
        strategy="evolutionary",
        population=8,
        generations=8,
        search_budget=128,
        verify="paranoid",
    ),
    aliases=("evolutionary",),
    description="Widest training-free search with paranoid verification.",
)
