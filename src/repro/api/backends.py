"""Backend registry: named GPU targets a :class:`~repro.api.session.Session` can own.

The paper evaluates on one physical A100; the reproduction simulates it.  The
registry generalizes that to a family of simulated parts keyed by GPU name,
so ``Session(gpu="A30-sim")`` is the only change needed to retarget an
optimization run — and so the §4.2 cache keys (which embed the GPU name)
naturally separate per-target cubins.  Ampere-class parts share the GA100
latency table; the Hopper-class ``H100-sim`` target carries its own
(:mod:`repro.arch.hopper`).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable

from repro.arch.ampere import A100, AmpereConfig
from repro.arch.hopper import H100
from repro.sim.gpu import GPUSimulator
from repro.utils.registry import Registry

BackendFactory = Callable[[], GPUSimulator]


@dataclass(frozen=True, slots=True)
class BackendSpec:
    """One registered simulator target."""

    name: str
    description: str
    factory: BackendFactory
    aliases: tuple[str, ...] = ()
    #: Free-form grouping labels (``"ampere"``, ``"hopper"``, ...) consumed by
    #: :func:`available_backends` and the scenario registry.
    tags: tuple[str, ...] = ()

    @property
    def short_name(self) -> str:
        """Compact display name (first alias, canonical name otherwise).

        Scenario ids (:mod:`repro.scenarios`) embed this so
        ``softmax/A100/test/default`` stays readable.
        """
        return self.aliases[0] if self.aliases else self.name


BACKENDS: Registry[BackendSpec] = Registry("GPU backend")


def register_backend(
    name: str,
    *,
    aliases: tuple[str, ...] = (),
    description: str = "",
    tags: tuple[str, ...] = (),
):
    """Decorator registering a ``() -> GPUSimulator`` factory under ``name``."""

    def decorator(factory: BackendFactory) -> BackendFactory:
        spec = BackendSpec(
            name=name,
            description=description,
            factory=factory,
            aliases=tuple(aliases),
            tags=tuple(tags),
        )
        BACKENDS.add(name, spec, aliases=spec.aliases)
        return factory

    return decorator


available_backends = BACKENDS.names
backend_spec = BACKENDS.get


def create_backend(name: str) -> GPUSimulator:
    """Instantiate a fresh simulator for the named backend."""
    return backend_spec(name).factory()


def resolve_backend(gpu: "str | GPUSimulator | AmpereConfig | None") -> GPUSimulator:
    """Coerce any accepted ``gpu=`` argument into a :class:`GPUSimulator`.

    Accepts a registered backend name (or alias), an already-constructed
    simulator (used as-is), a raw :class:`AmpereConfig` (or any subclass,
    e.g. :class:`~repro.arch.hopper.HopperConfig`), or ``None`` for the
    default A100 target.
    """
    if gpu is None:
        return GPUSimulator()
    if isinstance(gpu, GPUSimulator):
        return gpu
    if isinstance(gpu, AmpereConfig):
        return GPUSimulator(gpu)
    return create_backend(gpu)


# ---------------------------------------------------------------------------
# Built-in simulated targets
# ---------------------------------------------------------------------------
@register_backend(
    "A100-80GB-PCIe",
    aliases=("A100", "A100-sim", "A100-80GB"),
    description="Simulated A100 (GA100, 108 SMs @ 1410 MHz) — the paper's §5.1 target.",
    tags=("ampere", "datacenter"),
)
def _a100() -> GPUSimulator:
    return GPUSimulator(A100)


@register_backend(
    "A100-40GB-PCIe",
    aliases=("A100-40GB",),
    description="Simulated 40 GB A100; same GA100 SM array, distinct cache-key namespace.",
    tags=("ampere", "datacenter"),
)
def _a100_40gb() -> GPUSimulator:
    return GPUSimulator(dataclasses.replace(A100, name="A100-40GB-PCIe"))


@register_backend(
    "A30-24GB-PCIe",
    aliases=("A30", "A30-sim"),
    description="Simulated A30 (GA100 derivative: 56 SMs @ 1440 MHz).",
    tags=("ampere", "datacenter"),
)
def _a30() -> GPUSimulator:
    config = dataclasses.replace(A100, name="A30-24GB-PCIe", num_sms=56, clock_mhz=1440.0)
    return GPUSimulator(config)


@register_backend(
    "RTX3090-24GB",
    aliases=("RTX3090", "GA102"),
    description="Simulated GA102 consumer part (82 SMs @ 1695 MHz, 128 KB shared/SM, sm_86).",
    tags=("ampere", "consumer"),
)
def _ga102() -> GPUSimulator:
    config = dataclasses.replace(
        A100,
        name="RTX3090-24GB",
        compute_capability=86,
        num_sms=82,
        clock_mhz=1695.0,
        shared_memory_per_sm=128 * 1024,
    )
    return GPUSimulator(config)


@register_backend(
    "H100-80GB-SXM",
    aliases=("H100", "H100-sim", "H100-80GB"),
    description="Simulated H100 (GH100, 132 SMs @ 1755 MHz, 228 KB shared/SM, sm_90 "
    "latency table over the Ampere SASS subset).",
    tags=("hopper", "datacenter"),
)
def _h100() -> GPUSimulator:
    return GPUSimulator(H100)
