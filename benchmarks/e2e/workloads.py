"""The end-to-end benchmark's workloads and their committed key sets.

A *key* is one optimization request: a kernel name plus its shapes, which is
exactly what the serving cache is keyed on (GPU, kernel, shapes).  A
closed-loop workload commits the set of keys one run times, and a run
submits each of them once, in an order the seed picks.  So every seed offers
the server exactly the same work, in a different order, and no key repeats
within a run.  Drawing a different subset per seed would make the work
itself vary from seed to seed: keys of one kernel and loop trip count still
differ by up to 15% in cost through their launch grids.

Each closed-loop set is sized to take about BENCHMARK.json's ``run_seconds``
on a 2-vCPU Xeon VM, and is made of keys of similar cost, so that its median
rests on many jobs rather than on the one or two that happen to sit between
two groups of different cost.  The open-loop workload re-submits warm keys.

Why each workload exists is recorded in BENCHMARK.json and the README.
Warm-up keys, and the key of the other strategy's job, lie outside every
timed set.  The first warm-up key is the fixed job each cold boot runs
before it counts as ready (``setup_s``).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import product
from typing import NamedTuple

from repro.api.config import OptimizationConfig


class Key(NamedTuple):
    """One request: a kernel and its shapes (sorted, so keys hash and compare)."""

    kernel: str
    shapes: tuple[tuple[str, int], ...]

    @property
    def shape_dict(self) -> dict:
        return dict(self.shapes)

    def __str__(self) -> str:
        return f"{self.kernel}[{','.join(f'{k}={v}' for k, v in self.shapes)}]"


def key(kernel: str, **shapes: int) -> Key:
    return Key(kernel, tuple(sorted(shapes.items())))


@dataclass(frozen=True)
class Workload:
    """One traffic mix the benchmark offers a freshly booted server."""

    name: str
    #: Server-wide optimization defaults (every job of the run uses them).
    config: OptimizationConfig
    #: The closed loop's keys, each submitted once per run.
    keys: tuple[Key, ...]
    #: Untimed keys; ``warmup[0]`` is each cold boot's readiness job.
    warmup: tuple[Key, ...]
    #: Open loop: writes and reads per second.  Every write re-submits a
    #: warm key (``warmup[1:]``).
    open_loop: tuple[float, float] | None = None
    #: An untimed job of the other search strategy, ``(strategy, key)``, run
    #: after the warm-up, so that a traced run times both the greedy search
    #: and the PPO agent on every workload.
    other_strategy: tuple[str, Key] = ("ppo", key("rmsnorm", n_rows=8, hidden=256))

    @property
    def budget(self) -> int:
        """Most evaluations a fresh job may report, minus the baseline one."""
        if self.config.strategy == "ppo":
            return self.config.train_timesteps
        return self.config.search_budget

    def timed_keys(self, seed: int, count: int) -> list[Key]:
        """The first ``count`` keys of the seed's order of the timed set."""
        if count > len(self.keys):
            raise ValueError(f"{self.name}: the set holds {len(self.keys)} keys, not {count}")
        return random.Random(seed).sample(self.keys, len(self.keys))[:count]


def _gemm(kernel: str, k: int, m: int, n: int, b: int = 1) -> Key:
    return key(kernel, B=b, M=m, N=n, K=k)


def _gemm_variants(kernel: str, k: int, count: int) -> tuple[Key, ...]:
    """``count`` keys of one (kernel, K), differing in their launch grids."""
    if kernel == "bmm":
        grids = [(b, m, n) for b, m, n in product((1, 2, 3), (64, 128), (32, 64))]
    else:
        grids = [(1, m, n) for m, n in product((64, 128, 192), (32, 64, 96, 128))]
    return tuple(_gemm(kernel, k, m, n, b) for b, m, n in grids[:count])


def _rows(kernel: str, rows, **shapes: int) -> tuple[Key, ...]:
    return tuple(key(kernel, n_rows=r, **shapes) for r in rows)


# Each config also sets the other strategy's budget, which its own jobs
# ignore, for the job of ``Workload.other_strategy``.
GREEDY = OptimizationConfig(
    strategy="greedy", scale="test", search_budget=32, autotune=False, verify="final",
    train_timesteps=64,
)
PPO = OptimizationConfig(
    strategy="ppo", scale="test", episode_length=8, train_timesteps=64,
    autotune=False, verify="final", search_budget=32,
)
SERVE = OptimizationConfig(
    strategy="greedy", scale="test", search_budget=16, autotune=False, verify="final",
    train_timesteps=64,
)

#: The warm keys serve-mixed re-submits: 16 gemm keys at K=64 (no timed set
#: uses K=64).
_WARM_GEMMS = (
    tuple(_gemm(kernel, 64, m, n) for kernel, m, n in product(
        ("mmLeakyReLu", "fused_ff"), (64, 128), (32, 64, 96)
    ))
    + tuple(_gemm("bmm", 64, m, 32, b) for b, m in product((1, 2), (64, 128)))
)

WORKLOADS: tuple[Workload, ...] = (
    Workload(
        name="greedy-search",
        config=GREEDY,
        # The (kernel, K) pairs whose greedy jobs cost 0.5-0.65 s on the
        # reference host; K=128 bmm and mmLeakyReLu cost half that, K=384
        # fused_ff twice.
        keys=sum((_gemm_variants(kernel, k, 10) for kernel, k in (
            ("bmm", 256), ("bmm", 384), ("mmLeakyReLu", 256), ("fused_ff", 128)
        )), ()),
        warmup=(_gemm("mmLeakyReLu", 64, 64, 32), _gemm("bmm", 64, 64, 32),
                _gemm("fused_ff", 64, 64, 32)),
    ),
    Workload(
        name="ppo-train",
        config=PPO,
        # 0.2-0.3 s jobs; rmsnorm at hidden >= 768 costs up to twice that.
        keys=(
            _rows("rmsnorm", range(2, 58, 2), hidden=512)
            + _rows("layernorm-residual", range(2, 58, 2), hidden=512)
            + _rows("layernorm-residual", range(2, 58, 2), hidden=768)
        ),
        warmup=(key("rmsnorm", n_rows=8, hidden=256),
                key("layernorm-residual", n_rows=8, hidden=256)),
        other_strategy=("greedy", _gemm("mmLeakyReLu", 64, 64, 32)),
    ),
    Workload(
        name="serve-mixed",
        config=SERVE,
        # Store hits only: a fresh job holds the single worker for ~0.2 s, so
        # the share of hits queued behind one, and with it the hit median,
        # grew faster than the host slowed down (spread up to 71%).
        keys=(),
        warmup=(_gemm("mmLeakyReLu", 64, 64, 128),) + _WARM_GEMMS,
        open_loop=(20.0, 20.0),
    ),
)

BY_NAME: dict[str, Workload] = {workload.name: workload for workload in WORKLOADS}

#: An open-loop run whose p99 send lateness exceeds this is invalid: the
#: generator, not the server, set the arrival times.
GENERATOR_LATE_P99_LIMIT_MS = 100.0
