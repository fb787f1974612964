"""Block tier of the x86 executor: traps and fuel are exact.

Each program runs a loop long enough for its blocks to be compiled
(more than ``HOT_BLOCK`` iterations) and then traps, or runs out of
fuel, inside a compiled block.  The fuse tier must end in exactly the
state of the per-instruction loop at ``--tier off``: the same exception
and message, counters, i-cache statistics, registers and flags.
"""

import struct
import time

import pytest

from repro import obs
from repro.errors import FuelExhausted, TrapError
from repro.ir import verify
from repro.obs.hwc import HwcModel
from repro.obs.profile import MachineProfile
from repro.tier import HOT_BLOCK
from repro.x86 import Imm, Instr, Label, Mem, Reg, X86Machine, X86Program
from repro.x86.registers import RAX, RBX, RCX, RDX, RSI, XMM0

_I = Instr
#: Iteration at which each loop below traps: past the compile point.
TRAP_AT = 3 * HOT_BLOCK
#: nops after each loop body, so the block spans several i-cache lines
#: and a trap site sees only a prefix of them.
PAD = 48


@pytest.fixture(autouse=True)
def _metrics():
    yield
    obs.disable_metrics()


def _program(body, name="f"):
    """``body`` and PAD nops inside a loop over rcx = 0 .. 4*TRAP_AT."""
    program = X86Program("t", 1 << 16)
    func = program.new_function(name)
    func.emit(_I("mov", Reg(RCX), Imm(0)))
    func.label("loop")
    for ins in body + [_I("nop") for _ in range(PAD)]:
        func.emit(ins)
    func.emit(_I("add", Reg(RCX), Imm(1)))
    func.emit(_I("cmp", Reg(RCX), Imm(4 * TRAP_AT)))
    func.emit(_I("jcc", Label("loop"), cond="l"))
    func.emit(_I("ret"))
    program.layout()
    return program


def _run(program, tier, setup=None, **kwargs):
    """Final machine state after ``f`` returns or traps."""
    registry = obs.enable_metrics()
    machine = X86Machine(program, tier=tier, **kwargs)
    if setup is not None:
        setup(machine)
    try:
        machine.call("f", setup_regs=False)
        outcome = None
    except Exception as exc:            # compared across tiers below
        outcome = (type(exc), str(exc))
    promotions = registry.as_dict()["counters"].get("tier.promotions", 0)
    return {
        "outcome": outcome,
        "perf": machine.perf.as_dict(),
        "icache": (machine.icache.accesses, machine.icache.misses),
        "regs": list(machine.regs),
        "xmm": [struct.pack("<d", x) for x in machine.xmm],
        "flags": (machine.zf, machine.sf, machine.cf, machine.of),
    }, promotions


def _assert_exact(program, setup=None, expect=TrapError, **kwargs):
    off, off_promotions = _run(program, "off", setup, **kwargs)
    fuse, promotions = _run(program, "fuse", setup, **kwargs)
    assert off_promotions == 0
    assert promotions > 0, "no block was compiled"
    assert off["outcome"] is not None and off["outcome"][0] is expect
    assert fuse == off
    return off


def _tail_base(machine, stride):
    """rbx such that [rbx + rcx*stride] leaves memory at TRAP_AT."""
    machine.regs[RBX] = len(machine.memory) - stride * TRAP_AT


def test_out_of_bounds_load_mid_block():
    program = _program([
        _I("add", Reg(RDX), Imm(3)),
        _I("mov", Reg(RAX), Mem(base=RBX, index=RCX, scale=8, size=8)),
        _I("sub", Reg(RDX), Reg(RAX)),
    ])
    state = _assert_exact(program, lambda m: _tail_base(m, 8))
    assert "out-of-bounds load" in state["outcome"][1]
    assert "[in f at #2:" in state["outcome"][1]


def test_out_of_bounds_store_mid_block():
    program = _program([
        _I("imul", Reg(RDX), Reg(RCX)),
        _I("add", Reg(RDX, 4), Imm(7), size=4),
        _I("mov", Mem(base=RBX, index=RCX, scale=4, size=4), Reg(RDX, 4),
           size=4),
        _I("xor", Reg(RSI), Reg(RDX)),
    ])
    state = _assert_exact(program, lambda m: _tail_base(m, 4))
    assert "out-of-bounds store" in state["outcome"][1]


def test_idiv_by_zero_mid_block():
    # rsi counts down to zero at iteration TRAP_AT.
    def setup(m):
        m.regs[RSI] = TRAP_AT
    program = _program([
        _I("mov", Reg(RAX), Reg(RCX)),
        _I("cmp", Reg(RAX), Imm(5)),
        _I("setcc", Reg(RBX), cond="g"),
        _I("cqo"),
        _I("idiv", Reg(RSI)),
        _I("sub", Reg(RSI), Imm(1)),
    ])
    state = _assert_exact(program, setup)
    assert "integer divide by zero" in state["outcome"][1]


def test_cvttsd2si_overflow_mid_block():
    # xmm0 grows by 2^31 / TRAP_AT per iteration and overflows int32.
    def setup(m):
        m.xmm[1] = float(1 << 31) / TRAP_AT
    program = _program([
        _I("addsd", Reg(XMM0), Reg(XMM0 + 1)),
        _I("test", Reg(RCX), Reg(RCX)),
        _I("cvttsd2si", Reg(RAX, 4), Reg(XMM0), size=4),
        _I("add", Reg(RDX), Reg(RAX)),
    ])
    state = _assert_exact(program, setup)
    assert "integer overflow in float->int conversion" in state["outcome"][1]


@pytest.mark.parametrize("extra", [0, 1, 2, 30, 51])
def test_fuel_budget_lands_mid_block(extra):
    # One instruction before the loop, then `per_iter` per iteration: a
    # budget of 1 + per_iter*TRAP_AT + extra runs out on in-block index
    # `extra`.
    program = _program([
        _I("add", Reg(RDX), Reg(RCX)),
        _I("mov", Mem(disp=0x100, size=8), Reg(RDX)),
    ])
    per_iter = 2 + PAD + 3
    budget = 1 + per_iter * TRAP_AT + extra
    state = _assert_exact(program, expect=FuelExhausted,
                          max_instructions=budget)
    assert state["perf"]["instructions"] == budget + 1


def test_blocks_run_to_completion_identically():
    program = _program([
        _I("lea", Reg(RAX), Mem(base=RCX, index=RCX, scale=2, disp=-3)),
        _I("movsx", Reg(RBX, 8), Reg(RAX, 1), size=8),
        _I("sar", Reg(RBX), Imm(1)),
        _I("push", Reg(RBX)),
        _I("pop", Reg(RSI)),
        _I("neg", Reg(RSI, 4), size=4),
        _I("cvtsi2sd", Reg(XMM0), Reg(RSI, 4), size=4),
        _I("mulsd", Reg(XMM0), Reg(XMM0)),
        _I("ucomisd", Reg(XMM0), Reg(XMM0 + 1)),
        _I("setcc", Reg(RDX), cond="a"),
    ])
    off, _ = _run(program, "off")
    fuse, promotions = _run(program, "fuse")
    assert promotions > 0
    assert off["outcome"] is None
    assert fuse == off


@pytest.mark.parametrize("hook", ["hwc", "opcodes", "blocks",
                                  "check_ranges"])
def test_per_instruction_hooks_keep_plain_dispatch(hook, monkeypatch):
    program = _program([_I("add", Reg(RDX), Reg(RCX))])
    if hook == "check_ranges":
        monkeypatch.setattr(verify, "_CHECK_RANGES", True)
    def hooks():
        if hook == "hwc":
            return {"hwc": HwcModel()}
        if hook == "check_ranges":
            return {}
        return {"profile": MachineProfile(**{hook: True})}
    off, _ = _run(program, "off", **hooks())
    fuse, promotions = _run(program, "fuse", **hooks())
    assert promotions == 0
    assert fuse == off


def test_function_profile_keeps_blocks_and_stays_exact():
    program = _program([_I("add", Reg(RDX), Reg(RCX))])
    profiles = {tier: MachineProfile() for tier in ("off", "fuse")}
    off, _ = _run(program, "off", profile=profiles["off"])
    fuse, promotions = _run(program, "fuse", profile=profiles["fuse"])
    assert promotions > 0
    assert fuse == off
    buckets = {tier: {name: (b.as_dict(), b.icache_misses)
                      for name, b in profile.functions.items()}
               for tier, profile in profiles.items()}
    assert buckets["fuse"] == buckets["off"]


def test_memory_operands_run_to_completion_identically():
    program = _program([
        _I("add", Mem(disp=0x200, size=8), Reg(RCX)),
        _I("shl", Mem(base=RBX, disp=0x208, size=4), Imm(1), size=4),
        _I("cmp", Mem(disp=0x200, size=8), Reg(RDX)),
        _I("setcc", Reg(RDX), cond="be"),
        _I("movzx", Reg(RAX, 4), Mem(disp=0x209, size=1), size=4),
        _I("imul", Reg(RAX, 4), Imm(-7), size=4),
        _I("cdq"),
        _I("mov", Reg(RSI, 4), Imm(3), size=4),
        _I("idiv", Reg(RSI, 4), size=4),
        _I("cvtsi2sd", Reg(XMM0 + 2), Reg(RDX, 4), size=4),
        _I("movsd", Mem(base=RBX, disp=0x300), Reg(XMM0 + 2)),
        _I("sqrtsd", Reg(XMM0 + 3), Mem(base=RBX, disp=0x300)),
        _I("xorpd", Reg(XMM0 + 3), Reg(XMM0 + 2)),
    ])

    def setup(m):
        m.memory[0x208] = 1
    off, _ = _run(program, "off", setup)
    fuse, promotions = _run(program, "fuse", setup)
    assert promotions > 0
    assert off["outcome"] is None
    assert fuse == off


def test_read_modify_write_store_traps_identically():
    program = _program([
        _I("sub", Reg(RDX), Imm(1)),
        _I("add", Mem(base=RBX, index=RCX, scale=8, size=8), Reg(RDX)),
    ])
    state = _assert_exact(program, lambda m: _tail_base(m, 8))
    assert "out-of-bounds load" in state["outcome"][1]


def test_deadline_checkpoints_split_blocks_identically(monkeypatch):
    # A polling stride of about two loop bodies puts a checkpoint inside
    # many blocks; those steps must fall back to plain dispatch without
    # changing anything.
    monkeypatch.setattr(X86Machine, "DEADLINE_STRIDE", 100)
    program = _program([
        _I("add", Reg(RDX), Reg(RCX)),
        _I("mov", Mem(disp=0x100, size=8), Reg(RDX)),
    ])
    deadline = time.monotonic() + 3600
    off, _ = _run(program, "off", deadline=deadline)
    fuse, promotions = _run(program, "fuse", deadline=deadline)
    assert promotions > 0
    assert off["outcome"] is None
    assert fuse == off
