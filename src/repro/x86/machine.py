"""The simulated x86-64 machine.

Executes assembled :class:`~repro.x86.program.X86Program` code against a
flat memory, counting retired-instruction events into
:class:`~repro.x86.perf.PerfCounters` and driving the L1 i-cache model.
This is the measurement substrate standing in for the paper's hardware +
``perf``: every load, store, branch, and instruction the backends emit is
actually executed and counted.
"""

from __future__ import annotations

import math
import struct
from time import monotonic as _monotonic

from ..errors import CellTimeout, FuelExhausted, TrapError
from ..tier import HOT_BLOCK, note_promotion, tier_level
from .icache import ICache
from .isa import Imm, Mem, Reg
from .perf import PerfCounters, add_counts
from .program import X86Program
from .registers import RAX, RCX, RDX, RSP, XMM0

_M64 = (1 << 64) - 1
_M32 = (1 << 32) - 1

def _signed(value: int, bits: int) -> int:
    sign = 1 << (bits - 1)
    return value - (1 << bits) if value & sign else value


# Decoded-instruction kinds.  Each assembled instruction is decoded once
# per machine into ``(kind, payload, icache-first, icache-last,
# single-line, instr, block)`` so the hot loop dispatches on a small int and
# touches pre-extracted operands instead of re-testing opcode strings
# and operand classes on every retired instruction.  Numbering roughly
# follows dynamic frequency in the generated code.
K_MOV_RR = 0        # reg <- reg (64-bit)
K_MOV_RR32 = 1      # reg <- reg (32-bit, zero-extends)
K_MOV_RI = 2        # reg <- immediate (pre-masked)
K_MOV_LOAD = 3
K_MOV_STORE_R = 4
K_MOV_STORE_I = 5
K_ALU = 6           # add/sub/and/or/xor/imul
K_CMP = 7
K_TEST = 8
K_JCC = 9
K_JMP = 10
K_LEA = 11
K_MOVX = 12         # movsx/movzx
K_SHIFT = 13        # shl/shr/sar
K_PUSH = 14
K_POP = 15
K_CALL = 16
K_CALLR = 17
K_RET = 18
K_HOSTCALL = 19
K_SETCC = 20
K_CDQ = 21
K_CQO = 22
K_IDIV = 23         # idiv/div
K_MOVSD_LOAD = 24
K_MOVSD_STORE = 25
K_MOVSD_RR = 26
K_SSE = 27          # addsd/subsd/mulsd/divsd/minsd/maxsd
K_UCOMISD = 28
K_CVTSI2SD = 29
K_CVTTSD2SI = 30
K_SQRTSD = 31
K_PD = 32           # xorpd/andpd
K_NEG = 33
K_TRAP = 34
K_NOP = 35
K_UNKNOWN = 36

_ALU_IDX = {"add": 0, "sub": 1, "and": 2, "or": 3, "xor": 4, "imul": 5}
_SHIFT_IDX = {"shl": 0, "shr": 1, "sar": 2}
_SSE_IDX = {"addsd": 0, "subsd": 1, "mulsd": 2, "divsd": 3,
            "minsd": 4, "maxsd": 5}
_COND_IDX = {"e": 0, "ne": 1, "l": 2, "le": 3, "g": 4, "ge": 5,
             "b": 6, "be": 7, "a": 8, "ae": 9, "s": 10, "ns": 11}


def _operand_ref(opnd, size):
    """(kind, value) for a read-only operand: 0 reg, 1 imm, 2 mem."""
    if isinstance(opnd, Reg):
        return 0, opnd.reg
    if isinstance(opnd, Imm):
        return 1, int(opnd.value) & (_M32 if size == 4 else _M64)
    return 2, opnd


class X86Machine:
    """Executes one compiled program."""

    #: How often (in retired instructions) the wall-clock deadline is
    #: polled; a power of two so the checkpoint arithmetic stays cheap.
    DEADLINE_STRIDE = 1 << 20

    def __init__(self, program: X86Program, host=None, icache: ICache = None,
                 max_instructions: int = 2_000_000_000, profile=None,
                 deadline: float = None, tier=None, hwc=None):
        self.program = program
        self.memory = bytearray(program.machine_memory_size)
        for addr, blob in program.data_segments:
            self.memory[addr:addr + len(blob)] = blob
        for addr, blob in program.rodata_image():
            self.memory[addr:addr + len(blob)] = blob
        self.host = host
        self.regs = [0] * 16
        self.xmm = [0.0] * 16
        self.regs[RSP] = program.stack_top
        self.zf = self.sf = self.of = self.cf = 0
        self.perf = PerfCounters()
        self.icache = icache or ICache()
        self.max_instructions = max_instructions
        #: Absolute ``time.monotonic()`` watchdog; None disables it.
        self.deadline = deadline
        self._entry_map = program.entry_map()
        self._abi = getattr(program, "abi", None)
        self._decode_cache = {}
        #: Optional :class:`repro.obs.profile.MachineProfile`.  When
        #: None (the default) execution takes the exact pre-existing
        #: fast path; when set, retired events are additionally
        #: bucketed per function (and optionally per basic block and
        #: per mnemonic) with totals that match ``perf`` exactly.
        self.profile = profile
        self._leaders_cache = {}
        #: Optional :class:`repro.obs.hwc.HwcModel`.  It observes each
        #: retired instruction pre-dispatch (one hook call) and never
        #: mutates machine or counter state, so execution results and
        #: ``perf`` stay bit-identical with the model on or off.
        self.hwc = hwc
        if hwc is not None:
            hwc.attach(self)
        #: The ``--check-ranges`` soundness oracle: when on, every
        #: instruction carrying an ``assert_range`` fact has the
        #: committed register value validated right after it retires.
        from ..ir.verify import check_ranges_enabled
        self._oracle = check_ranges_enabled()
        #: Execution tier (0=off, 1=quicken, 2=fuse); ``None`` follows
        #: the process-wide setting from :mod:`repro.tier`.  The decode
        #: pass already quickens (pre-extracted operands), so tiers 0
        #: and 1 are identical here; tier 2 compiles hot basic blocks
        #: (:mod:`repro.x86.blocks`).  Per-instruction hooks (hwc, the
        #: range oracle, opcode/block profiles) need plain dispatch.
        self._blocks = (
            tier_level(tier) >= 2 and hwc is None and not self._oracle
            and not (profile is not None
                     and (profile.opcodes or profile.blocks)))

    # -- guest memory interface (Host-compatible) --------------------------------

    def read_mem(self, addr: int, length: int) -> bytes:
        if addr < 0 or addr + length > len(self.memory):
            raise TrapError(f"out-of-bounds read at {addr:#x}")
        return bytes(self.memory[addr:addr + length])

    def write_mem(self, addr: int, data: bytes) -> None:
        if addr < 0 or addr + len(data) > len(self.memory):
            raise TrapError(f"out-of-bounds write at {addr:#x}")
        self.memory[addr:addr + len(data)] = data

    # -- operand helpers -----------------------------------------------------------

    def _ea(self, mem: Mem) -> int:
        addr = mem.disp
        if mem.base is not None:
            addr += self.regs[mem.base]
        if mem.index is not None:
            addr += self.regs[mem.index] * mem.scale
        return addr & _M64

    def _load_int(self, addr: int, size: int, signed_load: bool = False) -> int:
        if addr + size > len(self.memory) or addr < 0:
            raise TrapError(f"out-of-bounds load at {addr:#x}")
        value = int.from_bytes(self.memory[addr:addr + size], "little",
                               signed=signed_load)
        return value

    def _store_int(self, addr: int, size: int, value: int) -> None:
        if addr + size > len(self.memory) or addr < 0:
            raise TrapError(f"out-of-bounds store at {addr:#x}")
        self.memory[addr:addr + size] = (value & ((1 << (size * 8)) - 1)) \
            .to_bytes(size, "little")

    def _value(self, op, size: int) -> int:
        if isinstance(op, Reg):
            value = self.regs[op.reg]
            return value & _M32 if size == 4 else value
        if isinstance(op, Imm):
            return int(op.value) & (_M32 if size == 4 else _M64)
        # Mem
        return self._load_int(self._ea(op), op.size)

    def _write_reg(self, reg: int, size: int, value: int) -> None:
        if size == 4:
            self.regs[reg] = value & _M32  # 32-bit writes zero-extend
        else:
            self.regs[reg] = value & _M64

    def _set_flags_sub(self, a: int, b: int, bits: int) -> None:
        mask = (1 << bits) - 1
        a &= mask
        b &= mask
        result = (a - b) & mask
        self.zf = 1 if result == 0 else 0
        self.sf = (result >> (bits - 1)) & 1
        self.cf = 1 if a < b else 0
        self.of = ((a ^ b) & (a ^ result)) >> (bits - 1) & 1

    def _cond(self, cond: str) -> bool:
        if cond == "e":
            return self.zf == 1
        if cond == "ne":
            return self.zf == 0
        if cond == "l":
            return self.sf != self.of
        if cond == "le":
            return self.zf == 1 or self.sf != self.of
        if cond == "g":
            return self.zf == 0 and self.sf == self.of
        if cond == "ge":
            return self.sf == self.of
        if cond == "b":
            return self.cf == 1
        if cond == "be":
            return self.cf == 1 or self.zf == 1
        if cond == "a":
            return self.cf == 0 and self.zf == 0
        if cond == "ae":
            return self.cf == 0
        if cond == "s":
            return self.sf == 1
        if cond == "ns":
            return self.sf == 0
        raise TrapError(f"unknown condition {cond}")

    # -- execution ----------------------------------------------------------------

    def call(self, func_name: str, int_args=(), setup_regs=True):
        """Run ``func_name`` to completion; returns (rax, xmm0)."""
        func = self.program.functions.get(func_name)
        if func is None:
            raise TrapError(f"no such function {func_name}")
        if setup_regs and self._abi is not None:
            for reg, value in zip(self._abi.int_args, int_args):
                self.regs[reg] = int(value) & _M64
        # The embedder "calls" the entry point: reserve the return-address
        # slot so the entry function's final ret rebalances rsp exactly.
        self.regs[RSP] = (self.regs[RSP] - 8) & _M64
        self._execute(func)
        return self.regs[RAX], self.xmm[0]

    def _decode_func(self, func):
        dcode = self._decode_cache.get(id(func))
        if dcode is None:
            dcode = self._decode_cache[id(func)] = self._build_decode(func)
            if self._blocks:
                from .blocks import plan_blocks
                for blk in plan_blocks(dcode, self._leaders(dcode),
                                       HOT_BLOCK):
                    dcode[blk.start] = dcode[blk.start][:6] + (blk,)
        return dcode

    def _build_decode(self, func):
        """Decode one function into (kind, payload, first, last, single,
        instr, None) tuples; every operand shape and counter decision
        that is static per instruction is resolved here, once.  The block
        tier puts a :class:`repro.x86.blocks.Block` in the last field of
        each block's first instruction."""
        functions = self.program.functions
        decoded = []
        for ins in func.instrs:
            op = ins.op
            a = ins.a
            b = ins.b
            size = ins.size
            bits = size * 8
            mask = (1 << bits) - 1
            if op == "mov":
                if isinstance(b, Mem):
                    kind = K_MOV_LOAD
                    wsize = size if b.size >= 4 else 8
                    pay = (a.reg, b.base, b.index, b.scale, b.disp,
                           b.size, _M32 if wsize == 4 else _M64)
                elif isinstance(a, Mem):
                    smask = (1 << (a.size * 8)) - 1
                    if isinstance(b, Reg):
                        kind = K_MOV_STORE_R
                        pay = (a.base, a.index, a.scale, a.disp, a.size,
                               smask, b.reg)
                    else:
                        kind = K_MOV_STORE_I
                        pay = (a.base, a.index, a.scale, a.disp, a.size,
                               (int(b.value) & smask)
                               .to_bytes(a.size, "little"))
                elif isinstance(b, Reg):
                    kind = K_MOV_RR32 if size == 4 else K_MOV_RR
                    pay = (a.reg, b.reg)
                else:
                    kind = K_MOV_RI
                    pay = (a.reg,
                           int(b.value) & (_M32 if size == 4 else _M64))
            elif op in _ALU_IDX:
                a_is_mem = isinstance(a, Mem)
                if isinstance(b, Mem):
                    b_kind, bb = 2, b
                elif isinstance(b, Imm):
                    b_kind, bb = 1, int(b.value) & mask
                else:
                    b_kind, bb = 0, b.reg
                kind = K_ALU
                pay = (_ALU_IDX[op], a if a_is_mem else a.reg, bb,
                       a_is_mem, b_kind, size, bits, mask, bits - 1,
                       1 << (bits - 1))
            elif op == "cmp":
                ak, av = _operand_ref(a, size)
                bk, bv = _operand_ref(b, size)
                nl = (1 if ak == 2 else 0) + (1 if bk == 2 else 0)
                kind = K_CMP
                pay = (ak, av, bk, bv, nl, size, mask, bits - 1)
            elif op == "test":
                ak, av = _operand_ref(a, size)
                bk, bv = _operand_ref(b, size)
                kind = K_TEST
                pay = (ak, av, bk, bv, 1 if ak == 2 else 0, size,
                       mask, bits - 1)
            elif op == "jcc":
                kind = K_JCC
                pay = (_COND_IDX.get(ins.cond, ins.cond), ins.b)
            elif op == "jmp":
                kind, pay = K_JMP, ins.b
            elif op == "lea":
                kind, pay = K_LEA, (a.reg, b, size)
            elif op in ("movsx", "movzx"):
                b_is_mem = isinstance(b, Mem)
                src_bits = b.size * 8
                kind = K_MOVX
                pay = (a.reg, b if b_is_mem else b.reg, b_is_mem,
                       op == "movsx", src_bits, (1 << src_bits) - 1, size)
            elif op in _SHIFT_IDX:
                count = (int(b.value) & (bits - 1)) \
                    if isinstance(b, Imm) else None
                kind = K_SHIFT
                pay = (_SHIFT_IDX[op], a, isinstance(a, Mem), count,
                       size, bits)
            elif op == "push":
                if isinstance(a, Reg):
                    kind, pay = K_PUSH, (a.reg, 0)
                else:
                    kind, pay = K_PUSH, (None, int(a.value))
            elif op == "pop":
                kind, pay = K_POP, a.reg
            elif op == "call":
                kind, pay = K_CALL, (functions.get(a.name), a.name)
            elif op == "callr":
                a_is_mem = isinstance(a, Mem)
                kind, pay = K_CALLR, (a if a_is_mem else a.reg, a_is_mem)
            elif op == "ret":
                kind, pay = K_RET, None
            elif op == "hostcall":
                kind, pay = K_HOSTCALL, a
            elif op == "setcc":
                kind, pay = K_SETCC, (a.reg, ins.cond)
            elif op == "cdq":
                kind, pay = K_CDQ, None
            elif op == "cqo":
                kind, pay = K_CQO, None
            elif op in ("idiv", "div"):
                kind = K_IDIV
                pay = (a, 1 if isinstance(a, Mem) else 0, size, bits,
                       op == "idiv")
            elif op == "movsd":
                if isinstance(b, Mem):
                    kind, pay = K_MOVSD_LOAD, (a.reg - XMM0, b)
                elif isinstance(a, Mem):
                    kind, pay = K_MOVSD_STORE, (a, b.reg - XMM0)
                else:
                    kind, pay = K_MOVSD_RR, (a.reg - XMM0, b.reg - XMM0)
            elif op in _SSE_IDX:
                b_is_mem = isinstance(b, Mem)
                kind = K_SSE
                pay = (_SSE_IDX[op], a.reg - XMM0, b_is_mem,
                       b if b_is_mem else b.reg - XMM0)
            elif op == "ucomisd":
                b_is_mem = isinstance(b, Mem)
                kind = K_UCOMISD
                pay = (a.reg - XMM0, b_is_mem,
                       b if b_is_mem else b.reg - XMM0)
            elif op == "cvtsi2sd":
                kind, pay = K_CVTSI2SD, (a.reg - XMM0, b, size, bits)
            elif op == "cvttsd2si":
                kind = K_CVTTSD2SI
                pay = (a.reg, b.reg - XMM0, size,
                       -(1 << (bits - 1)), (1 << (bits - 1)) - 1)
            elif op == "sqrtsd":
                b_is_mem = isinstance(b, Mem)
                kind = K_SQRTSD
                pay = (a.reg - XMM0, b_is_mem,
                       b if b_is_mem else b.reg - XMM0)
            elif op in ("xorpd", "andpd"):
                b_is_mem = isinstance(b, Mem)
                kind = K_PD
                pay = (op == "xorpd", a.reg - XMM0, b_is_mem,
                       b if b_is_mem else b.reg - XMM0)
            elif op == "neg":
                kind, pay = K_NEG, (a.reg, size, bits)
            elif op == "trap":
                kind, pay = K_TRAP, str(a)
            elif op == "nop":
                kind, pay = K_NOP, None
            else:
                kind, pay = K_UNKNOWN, op
            addr = ins.addr
            first = addr >> 6
            last = (addr + ins.enc_size - 1) >> 6
            decoded.append((kind, pay, first, last, first == last, ins,
                            None))
        return decoded

    def _leaders(self, dcode) -> set:
        """Basic-block leader indices of one decoded function (block
        profiles and the block tier): branch targets plus the
        instruction after every branch or call."""
        key = id(dcode)
        cached = self._leaders_cache.get(key)
        if cached is None:
            leaders = {0}
            for idx, entry in enumerate(dcode):
                kind = entry[0]
                if kind == K_JCC:
                    leaders.add(entry[1][1])
                    leaders.add(idx + 1)
                elif kind == K_JMP:
                    leaders.add(entry[1])
                    leaders.add(idx + 1)
                elif kind in (K_CALL, K_CALLR, K_HOSTCALL):
                    leaders.add(idx + 1)
            # The tuple pins dcode so its id stays valid as a key.
            cached = (dcode, leaders)
            self._leaders_cache[key] = cached
        return cached[1]

    def _execute(self, func) -> None:
        regs = self.regs
        xmm = self.xmm
        memory = self.memory
        memlen = len(memory)
        from_bytes = int.from_bytes
        perf = self.perf
        icache = self.icache
        access_line = icache._access_line
        access_lines = icache.access_lines
        hwc = self.hwc
        hwc_retire = None
        if hwc is not None:
            hwc.enter(func.name)
            hwc_retire = hwc.retire
        budget = self.max_instructions
        deadline = self.deadline
        # With no deadline the checkpoint IS the budget: one compare per
        # instruction, exactly as before.  With one, execution pauses
        # every DEADLINE_STRIDE instructions to poll the clock.
        checkpoint = budget if deadline is None \
            else min(budget, self.DEADLINE_STRIDE)

        call_stack = []  # (function, decoded code, return index)
        dcode = self._decode_func(func)
        # Block tier: executed blocks whose counts still need folding
        # into the counters (see repro.x86.blocks).
        touched = []
        if self._blocks:
            from .blocks import BlockTrap, fold, install, unwind
        n = len(dcode)
        i = 0
        n_instr = 0
        # Local mirrors of hot counters (folded back at the end).
        c_instr = c_loads = c_stores = c_branches = c_cond = 0
        c_calls = c_muls = c_divs = c_fdivs = c_fpu = 0
        last_line = -1

        # Profiling support.  With profile=None (the default) the hot
        # loop is untouched except for one ``if profile is not None``
        # test at call/ret boundaries and one ``if prof_detail`` test
        # per retired instruction; counters and results are exactly
        # those of the unprofiled path.
        profile = self.profile
        prof_detail = False
        prof_ops = prof_blocks = False
        cur_ops = cur_blocks = cur_leaders = None
        cur_block = 0
        prof_miss_base = 0
        if profile is not None:
            prof_miss_base = icache.misses
            prof_ops = profile.opcodes
            prof_blocks = profile.blocks
            prof_detail = prof_ops or prof_blocks
            if prof_ops:
                cur_ops = profile.opcode_bucket(func.name)
            if prof_blocks:
                cur_leaders = self._leaders(dcode)
                cur_blocks = profile.block_bucket(func.name)

            def _prof_flush(fname):
                """Fold the counter mirrors into fname's bucket *and*
                the whole-program counters, then reset the mirrors, so
                every event lands in each exactly once."""
                nonlocal c_instr, c_loads, c_stores, c_branches, c_cond
                nonlocal c_calls, c_muls, c_divs, c_fdivs, c_fpu
                nonlocal prof_miss_base
                bucket = profile.bucket(fname)
                if touched:
                    fold(touched, (bucket, perf))
                add_counts((bucket, perf),
                           (c_instr, c_loads, c_stores, c_branches, c_cond,
                            c_calls, c_muls, c_divs, c_fdivs, c_fpu))
                bucket.icache_misses += icache.misses - prof_miss_base
                prof_miss_base = icache.misses
                c_instr = c_loads = c_stores = c_branches = c_cond = 0
                c_calls = c_muls = c_divs = c_fdivs = c_fpu = 0

        ins = None
        # --check-ranges: a def proved to lie in an interval is validated
        # one fetch later, after its write committed.  Asserted
        # instructions never branch (the lowering guarantees it), so the
        # next fetched instruction always runs after the asserted one.
        oracle = self._oracle
        pending = None
        try:
            while True:
                if i >= n:
                    raise TrapError(
                        f"fell off the end of {getattr(func, 'name', '?')}")
                kind, pay, first, last, single, ins, blk = dcode[i]
                if blk is not None:
                    if blk.fn is None:
                        blk.heat -= 1
                        if not blk.heat:
                            install(blk, dcode, memlen)
                            note_promotion(blk.length)
                    elif n_instr + blk.length <= checkpoint:
                        try:
                            i = blk.fn(regs, xmm, memory, self)
                        except BlockTrap as trap:
                            k, exc = unwind(
                                blk, trap, self, last_line,
                                (perf,) if profile is None else
                                (perf, profile.bucket(func.name)))
                            n_instr += k + 1
                            i = blk.start + k + 1
                            ins = dcode[i - 1][5]
                            raise exc from None
                        n_instr += blk.length
                        if not blk.count:
                            touched.append(blk)
                        blk.count += 1
                        if blk.line0 != last_line:
                            access_lines(blk.lines)
                        elif blk.rest:
                            access_lines(blk.rest)
                        last_line = blk.last if i == blk.fall else -1
                        continue
                i += 1
                n_instr += 1
                c_instr += 1
                if oracle:
                    if pending is not None:
                        preg, fact, pins, pfunc = pending
                        pattern = regs[preg] & ((1 << fact.bits) - 1)
                        if not fact.contains(pattern):
                            from ..ir.verify import RangeOracleError
                            raise RangeOracleError(
                                f"observed value {pattern:#x} escaped the "
                                f"proved interval {fact!r} after "
                                f"`{pins!r}` in {pfunc}",
                                function=pfunc)
                        pending = None
                    ar = getattr(ins, "assert_range", None)
                    if ar is not None:
                        pending = (ar[0], ar[1], ins,
                                   getattr(func, "name", "?"))
                if n_instr > checkpoint:
                    if n_instr > budget:
                        raise FuelExhausted(
                            "fuel exhausted: instruction budget exceeded")
                    if _monotonic() > deadline:
                        raise CellTimeout(
                            f"wall-clock deadline exceeded after "
                            f"{n_instr} instructions")
                    checkpoint = min(budget,
                                     n_instr + self.DEADLINE_STRIDE)

                # I-cache fetch (fast path: same line).
                if single:
                    if first != last_line:
                        access_line(first)
                        last_line = first
                else:
                    line = first
                    while True:
                        if line != last_line:
                            access_line(line)
                        if line >= last:
                            break
                        line += 1
                    last_line = last

                if prof_detail:
                    if prof_ops:
                        op = ins.op
                        cur_ops[op] = cur_ops.get(op, 0) + 1
                    if prof_blocks:
                        j = i - 1
                        if j in cur_leaders:
                            cur_block = j
                        cur_blocks[cur_block] = \
                            cur_blocks.get(cur_block, 0) + 1

                if hwc_retire is not None:
                    hwc_retire(ins, self)

                if kind == 0:                         # K_MOV_RR
                    regs[pay[0]] = regs[pay[1]]
                elif kind == 1:                       # K_MOV_RR32
                    regs[pay[0]] = regs[pay[1]] & _M32
                elif kind == 2:                       # K_MOV_RI
                    regs[pay[0]] = pay[1]
                elif kind == 3:                       # K_MOV_LOAD
                    c_loads += 1
                    dst, base, index, scale, disp, msize, wmask = pay
                    addr = disp
                    if base is not None:
                        addr += regs[base]
                    if index is not None:
                        addr += regs[index] * scale
                    addr &= _M64
                    if addr + msize > memlen:
                        raise TrapError(
                            f"out-of-bounds load at {addr:#x}")
                    regs[dst] = from_bytes(memory[addr:addr + msize],
                                           "little") & wmask
                elif kind == 4:                       # K_MOV_STORE_R
                    c_stores += 1
                    base, index, scale, disp, msize, smask, src = pay
                    addr = disp
                    if base is not None:
                        addr += regs[base]
                    if index is not None:
                        addr += regs[index] * scale
                    addr &= _M64
                    if addr + msize > memlen:
                        raise TrapError(
                            f"out-of-bounds store at {addr:#x}")
                    memory[addr:addr + msize] = \
                        (regs[src] & smask).to_bytes(msize, "little")
                elif kind == 5:                       # K_MOV_STORE_I
                    c_stores += 1
                    base, index, scale, disp, msize, vbytes = pay
                    addr = disp
                    if base is not None:
                        addr += regs[base]
                    if index is not None:
                        addr += regs[index] * scale
                    addr &= _M64
                    if addr + msize > memlen:
                        raise TrapError(
                            f"out-of-bounds store at {addr:#x}")
                    memory[addr:addr + msize] = vbytes
                elif kind == 6:                       # K_ALU
                    alu, aa, bb, a_is_mem, b_kind, size, bits, mask, \
                        shift, sbit = pay
                    if a_is_mem:
                        c_loads += 1
                        ea = self._ea(aa)
                        x = self._load_int(ea, aa.size) & mask
                    else:
                        x = regs[aa]
                        if size == 4:
                            x &= _M32
                    if b_kind == 0:
                        y = regs[bb]
                        if size == 4:
                            y &= _M32
                    elif b_kind == 1:
                        y = bb
                    else:
                        c_loads += 1
                        y = self._load_int(self._ea(bb), bb.size) & mask
                    # Operands are pre-masked; flags are computed inline
                    # (same math as _set_flags_add/_sub/_logic).
                    if alu == 0:                      # add
                        full = x + y
                        result = full & mask
                        self.zf = 1 if result == 0 else 0
                        self.sf = (result >> shift) & 1
                        self.cf = 1 if full > mask else 0
                        self.of = (~(x ^ y) & (x ^ result)) >> shift & 1
                    elif alu == 1:                    # sub
                        result = (x - y) & mask
                        self.zf = 1 if result == 0 else 0
                        self.sf = (result >> shift) & 1
                        self.cf = 1 if x < y else 0
                        self.of = ((x ^ y) & (x ^ result)) >> shift & 1
                    elif alu == 5:                    # imul
                        c_muls += 1
                        sx = x - (sbit << 1) if x & sbit else x
                        sy = y - (sbit << 1) if y & sbit else y
                        result = (sx * sy) & mask
                        self.zf = 1 if result == 0 else 0
                        self.sf = (result >> shift) & 1
                        self.of = self.cf = 0
                    else:                             # and/or/xor
                        if alu == 2:
                            result = x & y
                        elif alu == 3:
                            result = x | y
                        else:
                            result = x ^ y
                        self.zf = 1 if result == 0 else 0
                        self.sf = (result >> shift) & 1
                        self.of = self.cf = 0
                    if a_is_mem:
                        c_stores += 1
                        self._store_int(ea, aa.size, result)
                    else:
                        regs[aa] = result if size == 4 else result & _M64
                elif kind == 7:                       # K_CMP
                    ak, av, bk, bv, nl, size, mask, shift = pay
                    c_loads += nl
                    if ak == 0:
                        x = regs[av]
                        if size == 4:
                            x &= _M32
                    elif ak == 1:
                        x = av
                    else:
                        x = self._load_int(self._ea(av), av.size) & mask
                    if bk == 0:
                        y = regs[bv]
                        if size == 4:
                            y &= _M32
                    elif bk == 1:
                        y = bv
                    else:
                        y = self._load_int(self._ea(bv), bv.size) & mask
                    result = (x - y) & mask
                    self.zf = 1 if result == 0 else 0
                    self.sf = (result >> shift) & 1
                    self.cf = 1 if x < y else 0
                    self.of = ((x ^ y) & (x ^ result)) >> shift & 1
                elif kind == 8:                       # K_TEST
                    ak, av, bk, bv, nl, size, mask, shift = pay
                    c_loads += nl
                    if ak == 0:
                        x = regs[av]
                        if size == 4:
                            x &= _M32
                    elif ak == 1:
                        x = av
                    else:
                        x = self._load_int(self._ea(av), av.size) & mask
                    if bk == 0:
                        y = regs[bv]
                        if size == 4:
                            y &= _M32
                    elif bk == 1:
                        y = bv
                    else:
                        y = self._load_int(self._ea(bv), bv.size) & mask
                    result = (x & y) & mask
                    self.zf = 1 if result == 0 else 0
                    self.sf = (result >> shift) & 1
                    self.of = self.cf = 0
                elif kind == 9:                       # K_JCC
                    c_branches += 1
                    c_cond += 1
                    c = pay[0]
                    if c == 0:
                        taken = self.zf == 1
                    elif c == 1:
                        taken = self.zf == 0
                    elif c == 2:
                        taken = self.sf != self.of
                    elif c == 3:
                        taken = self.zf == 1 or self.sf != self.of
                    elif c == 4:
                        taken = self.zf == 0 and self.sf == self.of
                    elif c == 5:
                        taken = self.sf == self.of
                    elif c == 6:
                        taken = self.cf == 1
                    elif c == 7:
                        taken = self.cf == 1 or self.zf == 1
                    elif c == 8:
                        taken = self.cf == 0 and self.zf == 0
                    elif c == 9:
                        taken = self.cf == 0
                    elif c == 10:
                        taken = self.sf == 1
                    elif c == 11:
                        taken = self.sf == 0
                    else:
                        taken = self._cond(c)
                    if taken:
                        i = pay[1]
                        last_line = -1
                elif kind == 10:                      # K_JMP
                    c_branches += 1
                    i = pay
                    last_line = -1
                elif kind == 11:                      # K_LEA
                    dst, mem, size = pay
                    self._write_reg(dst, size, self._ea(mem))
                elif kind == 12:                      # K_MOVX
                    dst, src, b_is_mem, sign, src_bits, smask, size = pay
                    if b_is_mem:
                        c_loads += 1
                        raw = self._load_int(self._ea(src), src.size)
                    else:
                        raw = regs[src] & smask
                    self._write_reg(dst, size,
                                    _signed(raw, src_bits) if sign else raw)
                elif kind == 13:                      # K_SHIFT
                    sh, a, a_is_mem, count, size, bits = pay
                    if count is None:
                        count = regs[RCX] & (bits - 1)
                    if a_is_mem:
                        c_loads += 1
                        c_stores += 1
                        ea = self._ea(a)
                        x = self._load_int(ea, a.size)
                    else:
                        x = regs[a.reg]
                        if size == 4:
                            x &= _M32
                    if sh == 0:
                        result = x << count
                    elif sh == 1:
                        result = x >> count
                    else:
                        result = _signed(x, bits) >> count
                    result &= (1 << bits) - 1
                    self.zf = 1 if result == 0 else 0
                    self.sf = (result >> (bits - 1)) & 1
                    if a_is_mem:
                        self._store_int(ea, a.size, result)
                    else:
                        self._write_reg(a.reg, size, result)
                elif kind == 14:                      # K_PUSH
                    c_stores += 1
                    src, imm = pay
                    regs[RSP] = (regs[RSP] - 8) & _M64
                    self._store_int(regs[RSP], 8,
                                    regs[src] if src is not None else imm)
                elif kind == 15:                      # K_POP
                    c_loads += 1
                    value = self._load_int(regs[RSP], 8)
                    regs[RSP] = (regs[RSP] + 8) & _M64
                    self._write_reg(pay, 8, value)
                elif kind == 16:                      # K_CALL
                    c_branches += 1
                    c_calls += 1
                    c_stores += 1
                    target, tname = pay
                    if target is None:
                        raise TrapError(f"call to unknown {tname}")
                    regs[RSP] = (regs[RSP] - 8) & _M64
                    self._store_int(regs[RSP], 8, 0)
                    call_stack.append((func, dcode, i))
                    if profile is not None:
                        _prof_flush(func.name)
                    func = target
                    dcode = self._decode_func(target)
                    n = len(dcode)
                    i = 0
                    last_line = -1
                    if profile is not None:
                        if prof_ops:
                            cur_ops = profile.opcode_bucket(func.name)
                        if prof_blocks:
                            cur_leaders = self._leaders(dcode)
                            cur_blocks = \
                                profile.block_bucket(func.name)
                            cur_block = 0
                elif kind == 17:                      # K_CALLR
                    c_branches += 1
                    c_calls += 1
                    c_stores += 1
                    aa, a_is_mem = pay
                    if a_is_mem:
                        c_loads += 1
                        code_addr = self._load_int(self._ea(aa), 8)
                    else:
                        code_addr = regs[aa]
                    target = self._entry_map.get(code_addr)
                    if target is None:
                        raise TrapError(
                            f"indirect call to bad address {code_addr:#x}")
                    regs[RSP] = (regs[RSP] - 8) & _M64
                    self._store_int(regs[RSP], 8, 0)
                    call_stack.append((func, dcode, i))
                    if profile is not None:
                        _prof_flush(func.name)
                    func = target
                    dcode = self._decode_func(target)
                    n = len(dcode)
                    i = 0
                    last_line = -1
                    if profile is not None:
                        if prof_ops:
                            cur_ops = profile.opcode_bucket(func.name)
                        if prof_blocks:
                            cur_leaders = self._leaders(dcode)
                            cur_blocks = \
                                profile.block_bucket(func.name)
                            cur_block = 0
                elif kind == 18:                      # K_RET
                    c_branches += 1
                    c_loads += 1
                    regs[RSP] = (regs[RSP] + 8) & _M64
                    if profile is not None:
                        _prof_flush(func.name)
                    if not call_stack:
                        return
                    func, dcode, i = call_stack.pop()
                    n = len(dcode)
                    last_line = -1
                    if profile is not None:
                        if prof_ops:
                            cur_ops = profile.opcode_bucket(func.name)
                        if prof_blocks:
                            cur_leaders = self._leaders(dcode)
                            cur_blocks = \
                                profile.block_bucket(func.name)
                            cur_block = 0
                elif kind == 19:                      # K_HOSTCALL
                    c_branches += 1
                    c_calls += 1
                    self._do_hostcall(pay)
                elif kind == 20:                      # K_SETCC
                    self._write_reg(pay[0], 8,
                                    1 if self._cond(pay[1]) else 0)
                elif kind == 21:                      # K_CDQ
                    regs[RDX] = _M32 if regs[RAX] & 0x80000000 else 0
                elif kind == 22:                      # K_CQO
                    regs[RDX] = _M64 if regs[RAX] >> 63 else 0
                elif kind == 23:                      # K_IDIV
                    c_divs += 1
                    a, nl, size, bits, is_signed = pay
                    c_loads += nl
                    divisor = self._value(a, size)
                    if size == 4:
                        dividend = ((regs[RDX] & _M32) << 32) | \
                            (regs[RAX] & _M32)
                        total_bits = 64
                    else:
                        dividend = (regs[RDX] << 64) | regs[RAX]
                        total_bits = 128
                    if is_signed:
                        sd = _signed(dividend, total_bits)
                        sv = _signed(divisor, bits)
                        if sv == 0:
                            raise TrapError("integer divide by zero")
                        q = abs(sd) // abs(sv)
                        if (sd < 0) != (sv < 0):
                            q = -q
                        r = sd - q * sv
                    else:
                        if divisor == 0:
                            raise TrapError("integer divide by zero")
                        q = dividend // divisor
                        r = dividend % divisor
                    self._write_reg(RAX, size, q)
                    self._write_reg(RDX, size, r)
                elif kind == 24:                      # K_MOVSD_LOAD
                    c_loads += 1
                    dst, mem = pay
                    xmm[dst] = struct.unpack(
                        "<d", self.read_mem(self._ea(mem), 8))[0]
                elif kind == 25:                      # K_MOVSD_STORE
                    c_stores += 1
                    mem, src = pay
                    self.write_mem(self._ea(mem),
                                   struct.pack("<d", xmm[src]))
                elif kind == 26:                      # K_MOVSD_RR
                    xmm[pay[0]] = xmm[pay[1]]
                elif kind == 27:                      # K_SSE
                    c_fpu += 1
                    sse, a, b_is_mem, bb = pay
                    if b_is_mem:
                        c_loads += 1
                        y = struct.unpack(
                            "<d", self.read_mem(self._ea(bb), 8))[0]
                    else:
                        y = xmm[bb]
                    x = xmm[a]
                    if sse == 0:
                        xmm[a] = x + y
                    elif sse == 1:
                        xmm[a] = x - y
                    elif sse == 2:
                        xmm[a] = x * y
                    elif sse == 3:
                        c_fdivs += 1
                        if y == 0.0:
                            xmm[a] = (float("inf") if x > 0 else
                                      float("-inf") if x < 0
                                      else float("nan"))
                        else:
                            xmm[a] = x / y
                    elif sse == 4:
                        xmm[a] = min(x, y)
                    else:
                        xmm[a] = max(x, y)
                elif kind == 28:                      # K_UCOMISD
                    c_fpu += 1
                    a, b_is_mem, bb = pay
                    x = xmm[a]
                    if b_is_mem:
                        c_loads += 1
                        y = struct.unpack(
                            "<d", self.read_mem(self._ea(bb), 8))[0]
                    else:
                        y = xmm[bb]
                    if x != x or y != y:      # unordered
                        self.zf = self.cf = 1
                    elif x == y:
                        self.zf, self.cf = 1, 0
                    elif x < y:
                        self.zf, self.cf = 0, 1
                    else:
                        self.zf = self.cf = 0
                    self.sf = self.of = 0
                elif kind == 29:                      # K_CVTSI2SD
                    c_fpu += 1
                    dst, b, size, bits = pay
                    xmm[dst] = float(_signed(self._value(b, size), bits))
                elif kind == 30:                      # K_CVTTSD2SI
                    c_fpu += 1
                    dst, src, size, lo, hi = pay
                    x = xmm[src]
                    if x != x:
                        raise TrapError(
                            "invalid conversion: NaN to integer")
                    truncated = int(x)
                    if not lo <= truncated <= hi:
                        raise TrapError(
                            "integer overflow in float->int conversion")
                    self._write_reg(dst, size, truncated)
                elif kind == 31:                      # K_SQRTSD
                    c_fpu += 1
                    dst, b_is_mem, bb = pay
                    if b_is_mem:
                        c_loads += 1
                        y = struct.unpack(
                            "<d", self.read_mem(self._ea(bb), 8))[0]
                    else:
                        y = xmm[bb]
                    xmm[dst] = math.sqrt(y) if y >= 0 else float("nan")
                elif kind == 32:                      # K_PD
                    c_fpu += 1
                    is_xor, a, b_is_mem, bb = pay
                    if b_is_mem:
                        c_loads += 1
                        mask_bits = self._load_int(self._ea(bb), 8)
                    else:
                        mask_bits = struct.unpack(
                            "<Q", struct.pack("<d", xmm[bb]))[0]
                    x_bits = struct.unpack("<Q",
                                           struct.pack("<d", xmm[a]))[0]
                    out = x_bits ^ mask_bits if is_xor \
                        else x_bits & mask_bits
                    xmm[a] = struct.unpack("<d", struct.pack("<Q", out))[0]
                elif kind == 33:                      # K_NEG
                    reg, size, bits = pay
                    x = regs[reg]
                    if size == 4:
                        x &= _M32
                    self._set_flags_sub(0, x, bits)
                    self._write_reg(reg, size, -x)
                elif kind == 34:                      # K_TRAP
                    raise TrapError(pay)
                elif kind == 35:                      # K_NOP
                    pass
                else:
                    raise TrapError(f"unknown opcode {pay}")
        except TrapError as exc:
            # Append context in place: the subclass (FuelExhausted,
            # SyscallError, ...) and its taxonomy attributes survive.
            name = getattr(func, "name", "?")
            exc.args = (f"{exc} [in {name} at #{i - 1}: {ins!r}]",)
            raise
        finally:
            # Fold whatever accrued since the last call boundary (trap
            # unwinds included) into the current function's bucket.
            targets = (perf,) if profile is None else \
                (perf, profile.bucket(getattr(func, "name", "?")))
            if touched:
                fold(touched, targets)
            add_counts(targets, (c_instr, c_loads, c_stores, c_branches,
                                 c_cond, c_calls, c_muls, c_divs, c_fdivs,
                                 c_fpu))
            if profile is not None:
                targets[1].icache_misses += icache.misses - prof_miss_base
            if hwc is not None:
                hwc.finish()

    def _do_hostcall(self, name: str) -> None:
        if self.host is None:
            raise TrapError(f"hostcall {name} with no host attached")
        abi = self._abi
        sig = self.program.extern_sigs.get(name)
        if sig is None:
            raise TrapError(f"hostcall to undeclared extern {name}")
        args = []
        int_idx = 0
        float_idx = 0
        from ..ir.types import Type
        for ty in sig.params:
            if ty is Type.F64:
                args.append(self.xmm[abi.float_args[float_idx] - XMM0])
                float_idx += 1
            else:
                value = self.regs[abi.int_args[int_idx]]
                if ty is Type.I32:
                    value &= _M32
                args.append(value)
                int_idx += 1
        result = self.host.call(self, name, args)
        if sig.result is not None:
            if sig.result is Type.F64:
                self.xmm[0] = float(result)
            else:
                self.regs[RAX] = int(result) & _M64
