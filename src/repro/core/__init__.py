"""CuAsmRL core: the assembly game, the PPO trainer and the deploy cache.

The supported public surface is :mod:`repro.api` (``Session`` plus the
strategy/backend registries), which drives everything here.
"""

from repro.core.actions import ActionSpace, Direction, ReorderAction
from repro.core.embedding import StateEmbedder
from repro.core.env import AssemblyGame, EpisodeRecord
from repro.core.jit import CacheEntry, CubinCache, cache_key
from repro.core.masking import ActionMasker, check_stall_after_hoist
from repro.core.optimizer import OptimizedKernel
from repro.core.trainer import CuAsmRLTrainer, OptimizationMove, OptimizationResult

__all__ = [
    "StateEmbedder",
    "ActionSpace",
    "Direction",
    "ReorderAction",
    "ActionMasker",
    "check_stall_after_hoist",
    "AssemblyGame",
    "EpisodeRecord",
    "CuAsmRLTrainer",
    "OptimizationResult",
    "OptimizationMove",
    "OptimizedKernel",
    "CubinCache",
    "CacheEntry",
    "cache_key",
]
