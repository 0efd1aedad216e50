"""Time the program's layers from outside, at calls into their public callables.

:class:`Tracer` replaces each callable listed in :data:`TARGETS` with a
wrapper that records one span per call: its name, start, end, the span that
was open on the same thread when it began (its parent), the thread, and
optionally a value taken from the return value.  Spans stay in memory until
:meth:`Tracer.dump` writes them as JSON lines.  :meth:`Tracer.uninstall`
puts every original callable back.

A module-level function is replaced at every ``repro`` module global bound to
the same function object, because ``from x import f`` copies the binding.
A target with ``only_in`` is replaced in that one module alone.  Spans of
different threads are not linked; the root span of a job is its
``Session.optimize`` call.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable


@dataclass(frozen=True)
class Target:
    """One callable to time: ``attr`` is ``"function"`` or ``"Class.method"``."""

    span: str
    module: str
    attr: str
    #: Replace the module-level function only where this module binds it.
    only_in: str | None = None
    #: Keeps a JSON-able value from the return value on the span.
    note: Callable[[object], object] | None = None


TARGETS: tuple[Target, ...] = (
    Target("remote.submit", "repro.remote.app", "RemoteApp.submit"),
    Target("remote.result", "repro.remote.app", "RemoteApp.result"),
    *(
        Target("remote.journal_append", "repro.remote.journal", f"JobJournal.{method}")
        for method in ("record_submitted", "record_terminal", "record_store", "record_checkpoint")
    ),
    Target("remote.journal_compact", "repro.remote.journal", "JobJournal.compact"),
    Target("serve.store_audit", "repro.analysis.verify", "verify_schedule",
           only_in="repro.serve.queue"),
    Target("api.optimize", "repro.api.session", "Session.optimize"),
    Target("api.compile", "repro.api.session", "Session.compile"),
    Target("api.verify", "repro.api.session", "Session.verify_kernel"),
    Target("api.cache_store", "repro.core.jit", "CubinCache.store"),
    Target("triton.compile", "repro.triton.compiler", "compile_spec"),
    Target("triton.lower", "repro.triton.lowering", "lower_program"),
    Target("triton.ptxas", "repro.triton.ptxas", "compile_lowered"),
    Target("sass.splice", "repro.sass.assembler", "splice_kernel"),
    Target("analysis.verifier_build", "repro.analysis.verify", "ScheduleVerifier.__init__"),
    Target("analysis.verify", "repro.analysis.verify", "ScheduleVerifier.verify"),
    Target("analysis.is_legal", "repro.analysis.verify", "ScheduleVerifier.is_legal"),
    Target("analysis.pregame", "repro.analysis.passes", "run_pre_game_analysis"),
    Target("core.env_setup", "repro.core.env", "AssemblyGame.__init__"),
    Target("core.step", "repro.core.env", "AssemblyGame.step"),
    Target("core.mask", "repro.core.masking", "ActionMasker.mask"),
    Target("baselines.greedy", "repro.baselines.search", "run_greedy_search"),
    Target("rl.act", "repro.rl.policy", "ActorCritic.act"),
    Target("rl.train", "repro.rl.ppo", "PPOTrainer.train"),
    Target("sim.measure", "repro.sim.gpu", "GPUSimulator.measure_with_launch",
           note=lambda timing: timing.block_cycles),
    Target("sim.decode", "repro.sim.program", "decode_program"),
    Target("sim.functional_run", "repro.sim.gpu", "GPUSimulator.run"),
)


def _repro_globals():
    """``(module, name, value)`` of every global of every loaded repro module."""
    for module_name, module in list(sys.modules.items()):
        if module is not None and module_name.split(".")[0] == "repro":
            for attr, value in list(vars(module).items()):
                yield module, attr, value


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self) -> None:
        #: ``(id, name, start, end, parent, thread, value)``; times are
        #: ``time.monotonic()`` seconds, comparable across processes on Linux.
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        #: ``(owner, attribute, original)`` of every replaced binding.
        self._patches: list[tuple[object, str, object]] = []
        #: Original of every module-level function wrapper, so bindings a
        #: module imported while tracing are put back too.
        self._function_wrappers: dict[Callable, Callable] = {}

    def _wrap(self, original: Callable, target: Target) -> Callable:
        spans, ids, local = self.spans, self._ids, self._local

        @functools.wraps(original)
        def traced(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            span_id = next(ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            value = None
            start = time.monotonic()
            try:
                result = original(*args, **kwargs)
                if target.note is not None:
                    value = target.note(result)
                return result
            finally:
                end = time.monotonic()
                stack.pop()
                spans.append(
                    (span_id, target.span, start, end, parent, threading.get_ident(), value)
                )

        return traced

    def install(self, targets: tuple[Target, ...] = TARGETS) -> None:
        """Replace every target; raises before replacing anything twice."""
        if self._patches:
            raise RuntimeError("tracer wrappers are already installed")
        for target in targets:
            module = importlib.import_module(target.module)
            owner_name, _, name = target.attr.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                original = owner.__dict__[name]
                self._patch(owner, name, original, self._wrap(original, target))
                continue
            original = getattr(module, name)
            wrapper = self._wrap(original, target)
            self._function_wrappers[wrapper] = original
            if target.only_in is not None:
                only_in = importlib.import_module(target.only_in)
                self._patch(only_in, name, original, wrapper)
                continue
            for loaded, attr, value in _repro_globals():
                if value is original:
                    self._patch(loaded, attr, original, wrapper)

    def _patch(self, owner, attr: str, original, wrapper) -> None:
        if getattr(owner, attr) is not original:
            raise RuntimeError(f"{owner!r}.{attr} is not the callable to trace")
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        """Put every original callable back, newest replacement first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        for loaded, attr, value in _repro_globals():
            for wrapper, original in self._function_wrappers.items():
                if value is wrapper:
                    setattr(loaded, attr, original)
        self._function_wrappers.clear()

    def dump(self, path: Path) -> None:
        """Write the recorded spans as JSON lines."""
        with Path(path).open("w", encoding="utf8") as fh:
            for span_id, name, start, end, parent, thread, value in self.spans:
                fh.write(json.dumps({
                    "id": span_id, "name": name, "start": start, "end": end,
                    "parent": parent, "thread": thread, "value": value,
                }) + "\n")
