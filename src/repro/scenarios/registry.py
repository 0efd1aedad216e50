"""The declarative scenario registry: one id per (kernel × backend × scale ×
regime × optimization preset) point of the evaluation matrix.

A :class:`Scenario` is a frozen value object that *references* the four
underlying registries by name — kernels (:mod:`repro.triton.spec`), GPU
backends (:mod:`repro.api.backends`), measurement regimes
(:mod:`repro.api.regimes`) and optimization presets
(:mod:`repro.api.presets`) — plus optional shape and config-field overrides
for adversarial variants.  Registration canonicalizes every axis (aliases
resolve, unknown names fail fast) and assigns the stable string id
``kernel/backend/scale/regime[/variant]``, e.g. ``softmax/A100/test/noisy``.

Scenarios live in :data:`SCENARIOS`, a :class:`repro.utils.registry.Registry`
keyed by id.  Consumers enumerate with :func:`all_scenarios` or
:func:`scenarios_matching`; nothing in tests, benchmarks or examples should
hard-code workload lists anymore.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from fnmatch import fnmatchcase
from typing import Any, Iterable

from repro.api.backends import BackendSpec, backend_spec
from repro.api.config import MeasurementPolicy, OptimizationConfig
from repro.api.presets import PresetSpec, preset_spec
from repro.api.regimes import RegimeSpec, regime_spec
from repro.triton.spec import SCALES, KernelSpec, get_spec
from repro.utils.registry import Registry


@dataclass(frozen=True, slots=True)
class Scenario:
    """One point of the evaluation matrix, by reference to the axis registries."""

    #: Kernel name (canonicalized against :func:`repro.triton.spec.get_spec`).
    kernel: str
    #: GPU backend name (canonicalized against the backend registry).
    backend: str
    #: Shape scale: ``test`` / ``bench`` / ``paper``.
    scale: str = "test"
    #: Measurement regime name (:mod:`repro.api.regimes`).
    regime: str = "default"
    #: Optimization preset name (:mod:`repro.api.presets`).
    preset: str = "smoke"
    #: Shape overrides layered over ``kernel_spec().shapes(scale)``.
    shape_overrides: tuple[tuple[str, int], ...] = ()
    #: :class:`OptimizationConfig` field overrides layered over the preset.
    config_overrides: tuple[tuple[str, Any], ...] = ()
    #: Id suffix distinguishing variants that share the four main axes
    #: (required when ``shape_overrides``/``config_overrides`` would
    #: otherwise collide with the plain scenario).
    variant: str = ""
    description: str = ""
    tags: tuple[str, ...] = ()

    @property
    def id(self) -> str:
        """Stable string id: ``kernel/backend/scale/regime[/variant]``."""
        parts = [self.kernel, backend_spec(self.backend).short_name, self.scale, self.regime]
        if self.variant:
            parts.append(self.variant)
        return "/".join(parts)

    # -- axis resolution ------------------------------------------------
    def kernel_spec(self) -> KernelSpec:
        return get_spec(self.kernel)

    def backend_spec(self) -> BackendSpec:
        return backend_spec(self.backend)

    def regime_spec(self) -> RegimeSpec:
        return regime_spec(self.regime)

    def preset_spec(self) -> PresetSpec:
        return preset_spec(self.preset)

    def shapes(self) -> dict:
        """The scale's shape set with this scenario's overrides applied."""
        shapes = dict(self.kernel_spec().shapes(self.scale))
        shapes.update(self.shape_overrides)
        return shapes

    def measurement_policy(self) -> MeasurementPolicy:
        return self.regime_spec().policy

    def optimization_config(self) -> OptimizationConfig:
        """The preset's config at this scenario's scale, overrides applied."""
        return self.preset_spec().config.replace(
            scale=self.scale, **dict(self.config_overrides)
        )

    def summary(self) -> dict:
        """JSON-able projection (the header of ``BENCH_<scenario>.json``)."""
        return {
            "id": self.id,
            "kernel": self.kernel,
            "backend": self.backend,
            "scale": self.scale,
            "regime": self.regime,
            "preset": self.preset,
            "shapes": self.shapes(),
            "config_overrides": dict(self.config_overrides),
            "variant": self.variant,
            "description": self.description,
            "tags": list(self.tags),
        }


SCENARIOS: Registry[Scenario] = Registry("scenario")


def register_scenario(scenario: Scenario) -> Scenario:
    """Canonicalize, validate and register one scenario; returns it.

    Every axis must already exist in its registry (unknown kernel / backend /
    regime / preset names raise ``KeyError`` here, not at run time), the
    scale must be one of ``test``/``bench``/``paper``, and the resulting id
    must be unique.
    """
    if scenario.scale not in SCALES:
        raise ValueError(f"unknown scale {scenario.scale!r}; expected one of {SCALES}")
    canonical = dataclasses.replace(
        scenario,
        kernel=get_spec(scenario.kernel).name,
        backend=backend_spec(scenario.backend).name,
        regime=regime_spec(scenario.regime).name,
        preset=preset_spec(scenario.preset).name,
        shape_overrides=tuple(scenario.shape_overrides),
        config_overrides=tuple(scenario.config_overrides),
        tags=tuple(scenario.tags),
    )
    scenario_id = canonical.id
    if scenario_id in SCENARIOS and SCENARIOS.get(scenario_id) != canonical:
        raise ValueError(
            f"scenario id {scenario_id!r} already registered; "
            "use a distinct variant= suffix"
        )
    return SCENARIOS.add(scenario_id, canonical)


#: Every registered scenario, ordered by id.
all_scenarios = SCENARIOS.values
get_scenario = SCENARIOS.get


def scenarios_matching(
    pattern: str | None = None,
    *,
    tags: Iterable[str] | None = None,
    kernel: str | None = None,
    backend: str | None = None,
    scale: str | None = None,
    regime: str | None = None,
) -> tuple[Scenario, ...]:
    """Scenarios matching every given filter, ordered by id.

    ``pattern`` is matched against the id — as a glob when it contains
    wildcard characters (``softmax/*/test/*``), as a substring otherwise
    (``/H100/``).  ``tags`` keeps scenarios carrying *all* the given tags.
    ``kernel``/``backend``/``regime`` accept aliases.
    """
    kernel_name = get_spec(kernel).name if kernel is not None else None
    backend_name = backend_spec(backend).name if backend is not None else None
    regime_name = regime_spec(regime).name if regime is not None else None

    selected = []
    for scenario_id in SCENARIOS.names(tags=tags):
        scenario = SCENARIOS.get(scenario_id)
        if pattern is not None:
            if any(ch in pattern for ch in "*?["):
                if not fnmatchcase(scenario.id, pattern):
                    continue
            elif pattern not in scenario.id:
                continue
        if kernel_name is not None and scenario.kernel != kernel_name:
            continue
        if backend_name is not None and scenario.backend != backend_name:
            continue
        if scale is not None and scenario.scale != scale:
            continue
        if regime_name is not None and scenario.regime != regime_name:
            continue
        selected.append(scenario)
    return tuple(selected)
