"""Checks of the benchmark itself: its key grids, its tracer and its output.

    python3 benchmarks/e2e/selfcheck.py [grids] [tracer] [smoke]

* ``grids``: BENCHMARK.json names the workloads of ``workloads.py``; every
  key compiles under its workload's config; keys are distinct within each
  workload and disjoint from its untimed keys (warm-up and the other
  strategy's job); every key a greedy search runs on, timed or the other
  strategy's, has at least one masker-valid move (at test scale softmax,
  layernorm-residual, seg-scan and flash-attention have none, so a greedy
  "search" there would be free).
* ``tracer``: with the wrappers installed, one key's ``RunReport.summary()``
  equals the unwrapped run's, and afterwards every binding is the original.
* ``smoke``: ``run.py --quick`` untraced and traced, through the real server;
  every BENCHMARK.json metric is printed with its unit for every workload.

Exits non-zero, listing the failures, when any check fails.
"""

from __future__ import annotations

import importlib
import json
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "src"))

from repro.api import Session  # noqa: E402
from repro.api.config import CacheConfig  # noqa: E402
from repro.core.env import AssemblyGame  # noqa: E402
from tracer import TARGETS, Tracer  # noqa: E402
from workloads import GREEDY, WORKLOADS, key  # noqa: E402


def check_grids() -> list[str]:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]
    failures = []
    if [w["name"] for w in declared] != [w.name for w in WORKLOADS]:
        failures.append("BENCHMARK.json and workloads.py name different workloads")
    for workload in WORKLOADS:
        session = Session(config=workload.config, cache=CacheConfig(enabled=False))
        timed = list(workload.keys)
        other_strategy, other = workload.other_strategy
        untimed = list(workload.warmup) + [other]
        if len(set(timed)) != len(timed):
            failures.append(f"{workload.name}: repeated timed keys")
        if len(set(untimed)) != len(untimed):
            failures.append(f"{workload.name}: repeated warm-up keys")
        if set(timed) & set(untimed):
            failures.append(f"{workload.name}: warm-up keys overlap the timed keys")
        searched = set(timed if workload.config.strategy == "greedy" else ())
        searched |= {other} if other_strategy == "greedy" else set()
        for k in timed + untimed:
            try:
                compiled = session.compile(k.kernel, shapes=k.shape_dict)
            except Exception as exc:  # noqa: BLE001 - report every broken key
                failures.append(f"{workload.name}: {k} does not compile: {exc}")
                continue
            if k in searched:
                game = AssemblyGame(compiled, session.simulator)
                try:
                    if not game.masker.mask(game.initial_kernel).any():
                        failures.append(f"{workload.name}: {k} has no masker-valid move")
                finally:
                    game.close()
    return failures


def _bindings() -> dict:
    """Identity of every callable repro module global and traced class attribute."""
    for target in TARGETS:
        importlib.import_module(target.only_in or target.module)
    found = {
        (name, attr): id(value)
        for name, module in list(sys.modules.items())
        if module is not None and name.split(".")[0] == "repro"
        for attr, value in vars(module).items()
        if callable(value)
    }
    for target in TARGETS:
        owner, _, method = target.attr.rpartition(".")
        if owner:
            cls = getattr(sys.modules[target.module], owner)
            found[(target.module, target.attr)] = id(cls.__dict__[method])
    return found


def check_tracer() -> list[str]:
    probe = key("mmLeakyReLu", B=1, M=64, N=32, K=128)

    def optimize() -> dict:
        session = Session(config=GREEDY, cache=CacheConfig(enabled=False))
        return session.optimize(probe.kernel, shapes=probe.shape_dict).summary()

    plain = optimize()
    before = _bindings()
    tracer = Tracer()
    tracer.install()
    try:
        traced = optimize()
    finally:
        tracer.uninstall()
    after = _bindings()
    failures = []
    if traced != plain:
        failures.append("tracing changed the run's summary")
    changed = [site for site, identity in before.items() if after.get(site) != identity]
    if changed:
        failures.append(f"bindings not restored: {changed[:5]}")
    names = {span[1] for span in tracer.spans}
    if not {"api.optimize", "sim.measure", "triton.compile"} <= names:
        failures.append(f"expected spans missing; recorded {sorted(names)}")
    return failures


def check_smoke() -> list[str]:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = []
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        done = subprocess.run(
            [sys.executable, str(Path(__file__).with_name("run.py")), "--quick",
             "--trace", str(trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=600,
        )
        if done.returncode != 0:
            failures.append(f"run.py --quick --trace {trace} exited {done.returncode}:\n"
                            f"{done.stderr[-2000:]}")
            continue
        lines = done.stdout.splitlines()
        result = json.loads(lines[-1])
        if set(result) != {"correct", "attempted", "failed", "metrics"}:
            failures.append(f"--trace {trace}: last line has keys {sorted(result)}")
        for workload in WORKLOADS:
            rows = [line for line in lines[:-1] if line.startswith(f"{workload.name}:")]
            for metric in declared[section]:
                name = f"{workload.name}.{metric['name']}"
                entry = result["metrics"].get(name)
                if entry is None or entry["unit"] != metric["unit"]:
                    failures.append(f"--trace {trace}: {name} missing or wrong unit")
                printed = re.compile(
                    rf"(^|\s){re.escape(metric['name'])} ?= ?\S+ {re.escape(metric['unit'])}(\s|$)"
                )
                if not any(printed.search(row) for row in rows):
                    failures.append(f"--trace {trace}: row for {name} not printed")
    return failures


CHECKS = {"grids": check_grids, "tracer": check_tracer, "smoke": check_smoke}


def main(argv: list[str]) -> int:
    failures = []
    for name in argv or list(CHECKS):
        found = CHECKS[name]()
        print(f"{name}: {'ok' if not found else f'{len(found)} failure(s)'}")
        failures.extend(f"{name}: {failure}" for failure in found)
    for failure in failures:
        print(failure, file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
