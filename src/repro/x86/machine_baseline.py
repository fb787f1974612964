"""Chain-dispatch x86 machine (pre-optimization baseline).

:class:`X86MachineBaseline` keeps the original ``_execute`` loop — an
if/elif chain over opcode strings with ``isinstance`` operand tests and
per-fetch i-cache line arithmetic — exactly as it was before the
table-dispatch rewrite in :mod:`repro.x86.machine`.  ``bench/`` measures
the decoded machine's speedup against it, and it doubles as an
independent semantic reference for the executor.
"""

from __future__ import annotations

import struct

from ..errors import FuelExhausted, TrapError
from .isa import Imm, Mem, Reg
from .machine import X86Machine, _M32, _M64, _signed
from .registers import RAX, RCX, RDX, RSP, XMM0


class X86MachineBaseline(X86Machine):
    """An :class:`X86Machine` executing via the original opcode chain."""

    def _set_flags_logic(self, result: int, bits: int) -> None:
        result &= (1 << bits) - 1
        self.zf = 1 if result == 0 else 0
        self.sf = (result >> (bits - 1)) & 1
        self.of = 0
        self.cf = 0

    def _set_flags_add(self, a: int, b: int, bits: int) -> None:
        mask = (1 << bits) - 1
        a &= mask
        b &= mask
        result = (a + b) & mask
        self.zf = 1 if result == 0 else 0
        self.sf = (result >> (bits - 1)) & 1
        self.cf = 1 if a + b > mask else 0
        self.of = (~(a ^ b) & (a ^ result)) >> (bits - 1) & 1

    def _execute(self, func) -> None:
        regs = self.regs
        xmm = self.xmm
        memory = self.memory
        perf = self.perf
        icache = self.icache
        budget = self.max_instructions
        hwc = self.hwc
        hwc_retire = None
        if hwc is not None:
            hwc.enter(func.name)
            hwc_retire = hwc.retire

        call_stack = []  # (function, return index)
        code = func.instrs
        i = 0
        n_instr = 0
        # Local mirrors of hot counters (folded back at the end).
        c_instr = c_loads = c_stores = c_branches = c_cond = 0
        c_calls = c_muls = c_divs = c_fdivs = c_fpu = 0
        last_line = -1

        ins = None
        try:
            while True:
                if i >= len(code):
                    raise TrapError(
                        f"fell off the end of {getattr(func, 'name', '?')}")
                ins = code[i]
                i += 1
                n_instr += 1
                c_instr += 1
                if n_instr > budget:
                    raise FuelExhausted(
                        "fuel exhausted: instruction budget exceeded")

                # I-cache fetch (fast path: same line).
                addr = ins.addr
                first = addr >> 6
                last = (addr + ins.enc_size - 1) >> 6
                if first != last_line or last != first:
                    line = first
                    while True:
                        if line != last_line:
                            icache._access_line(line)
                        if line >= last:
                            break
                        line += 1
                    last_line = last

                if hwc_retire is not None:
                    hwc_retire(ins, self)

                op = ins.op
                size = ins.size

                if op == "mov":
                    a, b = ins.a, ins.b
                    if isinstance(b, Mem):
                        c_loads += 1
                        value = self._load_int(self._ea(b), b.size)
                        if b.size == 4 and size == 4:
                            pass
                        self._write_reg(a.reg, size if b.size >= 4 else 8,
                                        value)
                    elif isinstance(a, Mem):
                        c_stores += 1
                        value = regs[b.reg] if isinstance(b, Reg) \
                            else int(b.value)
                        self._store_int(self._ea(a), a.size, value)
                    else:
                        value = regs[b.reg] if isinstance(b, Reg) \
                            else int(b.value)
                        self._write_reg(a.reg, size, value)
                elif op in ("add", "sub", "and", "or", "xor", "imul"):
                    a, b = ins.a, ins.b
                    dst_is_mem = isinstance(a, Mem)
                    if dst_is_mem:
                        c_loads += 1
                        ea = self._ea(a)
                        x = self._load_int(ea, a.size)
                    else:
                        x = regs[a.reg]
                        if size == 4:
                            x &= _M32
                    if isinstance(b, Mem):
                        c_loads += 1
                        y = self._load_int(self._ea(b), b.size)
                    elif isinstance(b, Imm):
                        y = int(b.value)
                    else:
                        y = regs[b.reg]
                        if size == 4:
                            y &= _M32
                    bits = size * 8
                    if op == "add":
                        self._set_flags_add(x, y, bits)
                        result = x + y
                    elif op == "sub":
                        self._set_flags_sub(x, y, bits)
                        result = x - y
                    elif op == "and":
                        result = x & y
                        self._set_flags_logic(result, bits)
                    elif op == "or":
                        result = x | y
                        self._set_flags_logic(result, bits)
                    elif op == "xor":
                        result = x ^ y
                        self._set_flags_logic(result, bits)
                    else:  # imul
                        c_muls += 1
                        result = _signed(x, bits) * _signed(y, bits)
                        self._set_flags_logic(result & ((1 << bits) - 1),
                                              bits)
                    if dst_is_mem:
                        c_stores += 1
                        self._store_int(ea, a.size, result)
                    else:
                        self._write_reg(a.reg, size, result)
                elif op == "cmp":
                    a, b = ins.a, ins.b
                    if isinstance(a, Mem):
                        c_loads += 1
                    if isinstance(b, Mem):
                        c_loads += 1
                    x = self._value(a, size)
                    y = self._value(b, size)
                    self._set_flags_sub(x, y, size * 8)
                elif op == "test":
                    a, b = ins.a, ins.b
                    if isinstance(a, Mem):
                        c_loads += 1
                    x = self._value(a, size)
                    y = self._value(b, size)
                    self._set_flags_logic(x & y, size * 8)
                elif op == "jcc":
                    c_branches += 1
                    c_cond += 1
                    if self._cond(ins.cond):
                        i = ins.b
                        last_line = -1
                elif op == "jmp":
                    c_branches += 1
                    i = ins.b
                    last_line = -1
                elif op == "lea":
                    self._write_reg(ins.a.reg, size, self._ea(ins.b))
                elif op in ("movsx", "movzx"):
                    b = ins.b
                    if isinstance(b, Mem):
                        c_loads += 1
                        raw = self._load_int(self._ea(b), b.size)
                        src_bits = b.size * 8
                    else:
                        raw = regs[b.reg] & ((1 << (b.size * 8)) - 1)
                        src_bits = b.size * 8
                    if op == "movsx":
                        value = _signed(raw, src_bits)
                    else:
                        value = raw
                    self._write_reg(ins.a.reg, size, value)
                elif op in ("shl", "shr", "sar"):
                    a = ins.a
                    count = (int(ins.b.value) if isinstance(ins.b, Imm)
                             else regs[RCX]) & (size * 8 - 1)
                    if isinstance(a, Mem):
                        c_loads += 1
                        c_stores += 1
                        ea = self._ea(a)
                        x = self._load_int(ea, a.size)
                    else:
                        x = regs[a.reg]
                        if size == 4:
                            x &= _M32
                    bits = size * 8
                    if op == "shl":
                        result = x << count
                    elif op == "shr":
                        result = x >> count
                    else:
                        result = _signed(x, bits) >> count
                    result &= (1 << bits) - 1
                    self.zf = 1 if result == 0 else 0
                    self.sf = (result >> (bits - 1)) & 1
                    if isinstance(a, Mem):
                        self._store_int(ea, a.size, result)
                    else:
                        self._write_reg(a.reg, size, result)
                elif op == "push":
                    c_stores += 1
                    value = regs[ins.a.reg] if isinstance(ins.a, Reg) \
                        else int(ins.a.value)
                    regs[RSP] = (regs[RSP] - 8) & _M64
                    self._store_int(regs[RSP], 8, value)
                elif op == "pop":
                    c_loads += 1
                    value = self._load_int(regs[RSP], 8)
                    regs[RSP] = (regs[RSP] + 8) & _M64
                    self._write_reg(ins.a.reg, 8, value)
                elif op == "call":
                    c_branches += 1
                    c_calls += 1
                    c_stores += 1
                    target = self.program.functions.get(ins.a.name)
                    if target is None:
                        raise TrapError(f"call to unknown {ins.a.name}")
                    regs[RSP] = (regs[RSP] - 8) & _M64
                    self._store_int(regs[RSP], 8, 0)
                    call_stack.append((func, code, i))
                    func, code, i = target, target.instrs, 0
                    last_line = -1
                elif op == "callr":
                    c_branches += 1
                    c_calls += 1
                    c_stores += 1
                    if isinstance(ins.a, Mem):
                        c_loads += 1
                        code_addr = self._load_int(self._ea(ins.a), 8)
                    else:
                        code_addr = regs[ins.a.reg]
                    target = self._entry_map.get(code_addr)
                    if target is None:
                        raise TrapError(
                            f"indirect call to bad address {code_addr:#x}")
                    regs[RSP] = (regs[RSP] - 8) & _M64
                    self._store_int(regs[RSP], 8, 0)
                    call_stack.append((func, code, i))
                    func, code, i = target, target.instrs, 0
                    last_line = -1
                elif op == "ret":
                    c_branches += 1
                    c_loads += 1
                    regs[RSP] = (regs[RSP] + 8) & _M64
                    if not call_stack:
                        return
                    func, code, i = call_stack.pop()
                    last_line = -1
                elif op == "hostcall":
                    c_branches += 1
                    c_calls += 1
                    self._do_hostcall(ins.a)
                elif op == "setcc":
                    self._write_reg(ins.a.reg, 8,
                                    1 if self._cond(ins.cond) else 0)
                elif op == "cdq":
                    regs[RDX] = _M32 if regs[RAX] & 0x80000000 else 0
                elif op == "cqo":
                    regs[RDX] = _M64 if regs[RAX] >> 63 else 0
                elif op in ("idiv", "div"):
                    c_divs += 1
                    if isinstance(ins.a, Mem):
                        c_loads += 1
                    divisor = self._value(ins.a, size)
                    bits = size * 8
                    if size == 4:
                        dividend = ((regs[RDX] & _M32) << 32) | \
                            (regs[RAX] & _M32)
                        total_bits = 64
                    else:
                        dividend = (regs[RDX] << 64) | regs[RAX]
                        total_bits = 128
                    if op == "idiv":
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
                elif op == "movsd":
                    a, b = ins.a, ins.b
                    if isinstance(b, Mem):
                        c_loads += 1
                        raw = self.read_mem(self._ea(b), 8)
                        xmm[a.reg - XMM0] = struct.unpack("<d", raw)[0]
                    elif isinstance(a, Mem):
                        c_stores += 1
                        self.write_mem(self._ea(a),
                                       struct.pack("<d", xmm[b.reg - XMM0]))
                    else:
                        xmm[a.reg - XMM0] = xmm[b.reg - XMM0]
                elif op in ("addsd", "subsd", "mulsd", "divsd",
                            "minsd", "maxsd"):
                    c_fpu += 1
                    a = ins.a.reg - XMM0
                    if isinstance(ins.b, Mem):
                        c_loads += 1
                        y = struct.unpack("<d",
                                          self.read_mem(self._ea(ins.b), 8))[0]
                    else:
                        y = xmm[ins.b.reg - XMM0]
                    x = xmm[a]
                    if op == "addsd":
                        xmm[a] = x + y
                    elif op == "subsd":
                        xmm[a] = x - y
                    elif op == "mulsd":
                        xmm[a] = x * y
                    elif op == "divsd":
                        c_fdivs += 1
                        if y == 0.0:
                            xmm[a] = (float("inf") if x > 0 else
                                      float("-inf") if x < 0 else float("nan"))
                        else:
                            xmm[a] = x / y
                    elif op == "minsd":
                        xmm[a] = min(x, y)
                    else:
                        xmm[a] = max(x, y)
                elif op == "ucomisd":
                    c_fpu += 1
                    x = xmm[ins.a.reg - XMM0]
                    if isinstance(ins.b, Mem):
                        c_loads += 1
                        y = struct.unpack("<d",
                                          self.read_mem(self._ea(ins.b), 8))[0]
                    else:
                        y = xmm[ins.b.reg - XMM0]
                    if x != x or y != y:      # unordered
                        self.zf = self.cf = 1
                    elif x == y:
                        self.zf, self.cf = 1, 0
                    elif x < y:
                        self.zf, self.cf = 0, 1
                    else:
                        self.zf = self.cf = 0
                    self.sf = self.of = 0
                elif op == "cvtsi2sd":
                    c_fpu += 1
                    value = self._value(ins.b, size)
                    xmm[ins.a.reg - XMM0] = float(_signed(value, size * 8))
                elif op == "cvttsd2si":
                    c_fpu += 1
                    x = xmm[ins.b.reg - XMM0]
                    if x != x:
                        raise TrapError("invalid conversion: NaN to integer")
                    truncated = int(x)
                    bits = size * 8
                    lo, hi = -(1 << (bits - 1)), (1 << (bits - 1)) - 1
                    if not lo <= truncated <= hi:
                        raise TrapError(
                            "integer overflow in float->int conversion")
                    self._write_reg(ins.a.reg, size, truncated)
                elif op == "sqrtsd":
                    c_fpu += 1
                    import math
                    if isinstance(ins.b, Mem):
                        c_loads += 1
                        y = struct.unpack("<d",
                                          self.read_mem(self._ea(ins.b), 8))[0]
                    else:
                        y = xmm[ins.b.reg - XMM0]
                    xmm[ins.a.reg - XMM0] = math.sqrt(y) if y >= 0 \
                        else float("nan")
                elif op in ("xorpd", "andpd"):
                    c_fpu += 1
                    a = ins.a.reg - XMM0
                    if isinstance(ins.b, Mem):
                        c_loads += 1
                        mask_bits = self._load_int(self._ea(ins.b), 8)
                    else:
                        mask_bits = struct.unpack(
                            "<Q", struct.pack("<d", xmm[ins.b.reg - XMM0]))[0]
                    x_bits = struct.unpack("<Q",
                                           struct.pack("<d", xmm[a]))[0]
                    if op == "xorpd":
                        out = x_bits ^ mask_bits
                    else:
                        out = x_bits & mask_bits
                    xmm[a] = struct.unpack("<d", struct.pack("<Q", out))[0]
                elif op == "neg":
                    a = ins.a
                    x = regs[a.reg]
                    if size == 4:
                        x &= _M32
                    result = -x
                    self._set_flags_sub(0, x, size * 8)
                    self._write_reg(a.reg, size, result)
                elif op == "trap":
                    raise TrapError(str(ins.a))
                elif op == "nop":
                    pass
                else:
                    raise TrapError(f"unknown opcode {op}")
        except TrapError as exc:
            # In-place context, preserving the subclass (see machine.py).
            name = getattr(func, "name", "?")
            exc.args = (f"{exc} [in {name} at #{i - 1}: {ins!r}]",)
            raise
        finally:
            perf.instructions += c_instr
            perf.loads += c_loads
            perf.stores += c_stores
            perf.branches += c_branches
            perf.cond_branches += c_cond
            perf.calls += c_calls
            perf.muls += c_muls
            perf.divs += c_divs
            perf.fdivs += c_fdivs
            perf.fpu_ops += c_fpu
            if hwc is not None:
                hwc.finish()
