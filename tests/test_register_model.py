"""Pin the register model: handlers touch only what the def/use sets name.

Dependence analysis, the masker, stall inference, liveness, ptxas and the
bank model read an instruction's registers through
``Instruction.read_registers`` / ``written_registers`` (and their predicate
and uniform counterparts), which widen ``.64``, ``.128`` and ``.WIDE``
operands to aligned groups.  The simulator's handlers read and write only the
named register.  The analyses are sound only while every register a handler
touches lies inside those sets; these tests observe the handlers through an
instrumented register file while one thread block runs.
"""

import pytest

import repro.sim.sm as sm
import repro.triton.kernels  # noqa: F401 - registers the workload specs
from repro.sim import GPUSimulator, RegisterFile, WarpExecutor
from repro.triton.compiler import compile_spec
from repro.triton.spec import available_kernels, get_spec


class _Recorded(list):
    """A register list recording the indices read from or written to it."""

    def __init__(self, values, seen: set, *, on_read: bool):
        super().__init__(values)
        self.seen = seen
        self.on_read = on_read

    def __getitem__(self, index):
        if self.on_read:
            self.seen.add(index)
        return super().__getitem__(index)

    def __setitem__(self, index, value):
        if not self.on_read:
            self.seen.add(index)
        super().__setitem__(index, value)


class _RecordingRegisterFile(RegisterFile):
    """Every read checks a ready cycle first; every write sets a value."""

    def __init__(self, *counts):
        super().__init__(*counts)
        self.seen = {key: set() for key in ("r", "w", "pr", "pw", "ur", "uw")}
        for space, prefix in (("reg", ""), ("pred", "p"), ("ureg", "u")):
            for attr, key, on_read in (("ready_at", "r", True), ("value", "w", False)):
                name = f"{space}_{attr}"
                setattr(self, name, _Recorded(getattr(self, name), self.seen[prefix + key], on_read=on_read))

    def take(self) -> dict:
        taken = {key: set(seen) for key, seen in self.seen.items()}
        for seen in self.seen.values():
            seen.clear()
        return taken


@pytest.mark.parametrize("name", available_kernels())
@pytest.mark.parametrize("driver", ["functional", "timing"])
def test_handlers_touch_only_the_def_use_sets(name, driver, monkeypatch):
    compiled = compile_spec(get_spec(name), scale="test")
    checked = []
    step = WarpExecutor.step

    def recording_step(self, warp, rec, issue_cycle):
        regs = warp.registers
        regs.take()
        outcome = step(self, warp, rec, issue_cycle)
        seen = regs.take()
        instr = rec.instr
        assert seen["r"] <= instr.read_registers(), instr.render()
        assert seen["w"] <= instr.written_registers(), instr.render()
        assert seen["pr"] <= instr.read_predicates(), instr.render()
        assert seen["pw"] <= instr.written_predicates(), instr.render()
        assert seen["ur"] <= instr.read_uniform_registers(), instr.render()
        assert seen["uw"] <= instr.written_uniform_registers(), instr.render()
        checked.append(seen)
        return outcome

    monkeypatch.setattr(sm, "RegisterFile", _RecordingRegisterFile)
    monkeypatch.setattr(WarpExecutor, "step", recording_step)
    simulator = GPUSimulator()
    if driver == "functional":
        launch, _ = simulator._build_launch(
            compiled.kernel, compiled.grid, compiled.make_inputs(0), compiled.param_order
        )
        sm.FunctionalRunner(compiled.kernel, launch).run_block((0, 0, 0))
    else:
        simulator.time_block(
            compiled.kernel, compiled.grid, compiled.make_inputs(0), compiled.param_order
        )
    # Not vacuous: the block ran, and its handlers read and wrote registers.
    assert any(seen["r"] for seen in checked) and any(seen["w"] for seen in checked)
