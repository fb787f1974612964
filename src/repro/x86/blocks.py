"""Block tier of the x86 executor: hot basic blocks as straight-line Python.

At ``--tier fuse`` :class:`~repro.x86.machine.X86Machine` compiles each
basic block entered ``HOT_BLOCK`` times into one generated function, with
operands, masks, addresses and the memory bound inlined as constants.  A
flag is computed only where a ``jcc``/``setcc``, a trap or the block exit
reads it.  Results stay bit-identical to per-instruction dispatch: a
block's counter deltas and i-cache lines are static (the executor folds
``runs x deltas`` and replays the lines); a block runs only if all of it
fits under the fuel checkpoint; and each trap site records its in-block
index, partial counters and pending flags for :func:`unwind`.
"""

from __future__ import annotations

import math
import struct

from ..errors import TrapError
from .isa import Imm, Reg
from .machine import (
    K_ALU, K_CDQ, K_CMP, K_CQO, K_CVTSI2SD, K_CVTTSD2SI, K_IDIV, K_JCC,
    K_JMP, K_LEA, K_MOV_LOAD, K_MOV_RI, K_MOV_RR, K_MOV_RR32, K_MOV_STORE_I,
    K_MOV_STORE_R, K_MOVSD_LOAD, K_MOVSD_RR, K_MOVSD_STORE, K_MOVX, K_NEG,
    K_NOP, K_PD, K_POP, K_PUSH, K_SETCC, K_SHIFT, K_SQRTSD, K_SSE, K_TEST,
    K_UCOMISD, _COND_IDX,
)
from .perf import PerfCounters, add_counts
from .registers import RAX, RCX, RDX, RSP

_M32 = 0xFFFFFFFF
_M64 = (1 << 64) - 1

#: Counter order of block deltas and trap-site partials.
FIELDS = PerfCounters.__slots__
INSTR, LOADS, STORES, BRANCHES, COND, CALLS, MULS, DIVS, FDIVS, FPU = \
    range(len(FIELDS))

#: Smallest block worth a generated function.
MIN_LENGTH = 2

_UNPACK = {1: "_U8", 2: "_U16", 4: "_U32", 8: "_U64"}
_PACK = {1: "_P8", 2: "_P16", 4: "_P32", 8: "_P64"}
_F64, _Q64 = struct.Struct("<d"), struct.Struct("<Q")
_GLOBALS = {
    "TrapError": TrapError, "_sqrt": math.sqrt,
    "_UD": _F64.unpack_from, "_PD": _F64.pack_into,
    "_dbits": lambda v: _Q64.unpack(_F64.pack(v))[0],
    "_bitsd": lambda q: _F64.unpack(_Q64.pack(q))[0],
}
for _size, _fmt in ((1, "B"), (2, "H"), (4, "I"), (8, "Q")):
    _GLOBALS[_UNPACK[_size]] = struct.Struct("<" + _fmt).unpack_from
    _GLOBALS[_PACK[_size]] = struct.Struct("<" + _fmt).pack_into

#: Condition codes in ``_COND_IDX`` order, over flag sources.
_CONDS = ("{z}", "not {z}", "{s} != {o}", "{z} or {s} != {o}",
          "not {z} and {s} == {o}", "{s} == {o}", "{c}", "{c} or {z}",
          "not {c} and not {z}", "not {c}", "{s}", "not {s}")


class BlockTrap(Exception):
    """Raised by generated code at trap site ``site``; ``scope`` holds the
    block's locals, from which :func:`unwind` rebuilds flags and the guest
    exception (so trap branches stay short to compile)."""

    def __init__(self, site, scope):
        super().__init__(site)
        self.site = site
        self.scope = scope


_GLOBALS["BlockTrap"] = BlockTrap


class Block:
    """One basic block of a decoded function, on one machine: ``fn`` is
    None while it warms up (``heat`` counts down); ``count`` is the number
    of runs not yet folded into the counters."""

    __slots__ = ("start", "length", "fall", "heat", "fn", "count", "deltas",
                 "sites", "line0", "lines", "rest", "rest_upto", "last")

    def __init__(self, start, length, fall, heat):
        self.start, self.length, self.fall = start, length, fall
        self.heat, self.fn, self.count = heat, None, 0


def plan_blocks(dcode, leaders, heat):
    """The :class:`Block` of every leader of a decoded function that
    starts a compilable block."""
    n = len(dcode)
    blocks = []
    addrs = [entry[5].addr for entry in dcode]
    if any(a >= b for a, b in zip(addrs, addrs[1:])):
        return blocks     # the i-cache replay relies on rising addresses
    for start in leaders:
        j, fall, exits = start, None, []
        while j < n:
            kind, pay = dcode[j][0], dcode[j][1]
            if (j != start and j in leaders) or not _in_block(kind, pay):
                break
            # A jcc to the next slot stays out: its taken and not-taken
            # exits differ only in the i-cache filter.
            if kind == K_JCC and pay[1] == j + 1:
                break
            j += 1
            if kind == K_JCC:
                exits.append(pay[1])
                break
            if kind == K_JMP:
                exits.append(pay)
                fall = -1          # never a fallthrough exit
                break
        if fall is None:
            fall = j
            exits.append(j)
        # Falling off the function's end keeps the plain loop's trap.
        if j - start >= MIN_LENGTH and max(exits) < n:
            blocks.append(Block(start, j - start, fall, heat))
    return blocks


def _in_block(kind, pay):
    if kind == K_JCC:
        return pay[0] in range(len(_CONDS))
    if kind == K_SETCC:
        return pay[1] in _COND_IDX
    return kind in _KINDS


def install(block, dcode, memlen) -> None:
    """Compile ``block`` and attach its code and static tables."""
    (block.fn, block.deltas, block.sites, block.line0, block.rest,
     block.rest_upto, block.last) = _compile(dcode, block, memlen)
    block.lines = (block.line0,) + block.rest


def fold(touched, targets) -> None:
    """Add ``count x deltas`` of every run block to each target (perf
    counters or a profile bucket) and reset the counts."""
    for block in touched:
        add_counts(targets, [block.count * d for d in block.deltas])
        block.count = 0
    touched.clear()


def unwind(block, trap, machine, last_line, targets):
    """Leave the machine as plain dispatch would at a trapped block's trap:
    store pending flags, charge partial counters and i-cache fetches.
    Returns (in-block index, exception to raise)."""
    k, partial, message, flags = block.sites[trap.site]
    scope = trap.scope
    for name, src in flags.items():
        setattr(machine, name, eval(src, _GLOBALS, scope))
    add_counts(targets, partial)
    fetched = block.rest[:block.rest_upto[k]]
    if block.line0 != last_line:
        fetched = (block.line0,) + fetched
    machine.icache.access_lines(fetched)
    if message is None:
        return k, scope["exc"]
    return k, TrapError(message.format_map(scope))


def _compile(dcode, block, memlen):
    entries = dcode[block.start:block.start + block.length]
    em = _Emitter(memlen, block.start)
    for em.k, (kind, pay, *_) in enumerate(entries):
        em.count(INSTR)
        _emit(em, kind, pay)
    if not em.exited:
        em.exit()
        em.out(f"return {block.start + block.length}")
    src = "def _block(regs, xmm, memory, m):\n" + "\n".join(em.lines)
    namespace = {}
    exec(compile(src, f"<x86 block @{block.start}>", "exec"), _GLOBALS,
         namespace)
    # I-cache replay.  Lines after the first of instruction 0 always
    # differ from the incoming last line: that is -1 after a branch, or
    # the last line of the lower-addressed instruction falling through.
    first = prev = entries[0][2]
    rest, upto = [], []
    for entry in entries:
        rest.extend(line for line in range(entry[2], entry[3] + 1)
                    if line != prev)
        prev = entry[3]
        upto.append(len(rest))
    return (namespace["_block"], tuple(em.counts), tuple(em.sites), first,
            tuple(rest), tuple(upto), prev)


class _Emitter:
    """One block's source lines, counters, flag sources and trap sites.

    Instruction ``k`` binds its operands and result to locals suffixed
    with ``k`` (``x3``, ``r3``, ``e3``); those a flag source reads are never
    rebound, so the source stays valid for the rest of the block."""

    def __init__(self, memlen, start):
        self.memlen = memlen
        self.start = start
        self.lines = []
        self.counts = [0] * len(FIELDS)
        self.flags = {}       # flag -> source of its current value
        self.sites = []       # (index, partial counters, message, flags)
        self.exited = False
        self.k = 0

    def out(self, src):
        self.lines.append("    " + src)

    def count(self, *fields):
        for field in fields:
            self.counts[field] += 1

    def local(self, name):
        return f"{name}{self.k}"

    def _site(self, message):
        self.sites.append((self.k, tuple(self.counts), message,
                           dict(self.flags)))
        return len(self.sites) - 1

    def trap(self, cond, message):
        """Trap with ``TrapError(message.format_map(block locals))``."""
        self.out(f"if {cond}: raise BlockTrap({self._site(message)}, "
                 f"locals())")

    def trap_exc(self, stmt, exc_type):
        """``stmt`` may raise ``exc_type``, which propagates unchanged."""
        self.out(f"try: {stmt}")
        self.out(f"except {exc_type} as exc: "
                 f"raise BlockTrap({self._site(None)}, locals())")

    def cond(self, key):
        z, s, o, c = (f"({self.flags[f]})" if f in self.flags else f"m.{f}"
                      for f in ("zf", "sf", "of", "cf"))
        return _CONDS[key if isinstance(key, int) else _COND_IDX[key]] \
            .format(z=z, s=s, o=o, c=c)

    def exit(self):
        """Store the flags this block wrote, binding each to a local of
        its name for a terminating jcc; the caller emits the returns."""
        for name, src in list(self.flags.items()):
            if src == "0":
                self.out(f"m.{name} = 0")
            else:
                self.out(f"m.{name} = {name} = {src}")
                self.flags[name] = name
        self.exited = True

    @staticmethod
    def reg(r, size=8):
        return f"regs[{r}] & {_M32}" if size == 4 else f"regs[{r}]"

    @staticmethod
    def ea(base, index, scale, disp):
        terms = [f"regs[{base}]"] if base is not None else []
        if index is not None:
            terms.append(f"regs[{index}]" + ("" if scale == 1
                                             else f" * {scale}"))
        if not terms:
            return str(disp & _M64)
        if len(terms) == 1 and not disp and scale == 1:
            return terms[0]
        return f"({' + '.join(terms + [str(disp)] * bool(disp))}) & {_M64}"

    def addr(self, src, size, what, suffix=""):
        """Bind and bounds-check an effective address; returns its name."""
        e = self.local("e") + suffix
        self.trap(f"({e} := {src}) > {self.memlen - size}",
                  f"out-of-bounds {what} at {{{e}:#x}}")
        return e

    def mem_ea(self, mem):
        return self.ea(mem.base, mem.index, mem.scale, mem.disp)

    def load(self, mem, suffix="", size=None):
        size = mem.size if size is None else size
        e = self.addr(self.mem_ea(mem), size, "load", suffix)
        return f"{_UNPACK[size]}(memory, {e})[0]"

    def xmm_src(self, b_is_mem, bb):
        """An xmm operand; a memory one is loaded (and counted) into y<k>."""
        if not b_is_mem:
            return f"xmm[{bb}]"
        self.count(LOADS)
        y = self.local("y")
        e = self.addr(self.mem_ea(bb), 8, "read")
        self.out(f"{y} = _UD(memory, {e})[0]")
        return y

    def value(self, op, size):
        """``X86Machine._value``: a register, immediate or raw load."""
        if isinstance(op, Reg):
            return self.reg(op.reg, size)
        if isinstance(op, Imm):
            return str(int(op.value) & (_M32 if size == 4 else _M64))
        return self.load(op)

    def operand(self, kind, val, size, mask, name):
        """Bind a cmp/test/alu operand (0 reg, 1 imm, 2 mem) to a local."""
        if kind == 1:
            return str(val)
        local = self.local(name)
        if kind == 0:
            self.out(f"{local} = {self.reg(val, size)}")
        else:
            src = self.load(val, suffix=name)
            self.out(f"{local} = {src}" if val.size * 8 <= mask.bit_length()
                     else f"{local} = {src} & {mask}")
        return local

    def arith_flags(self, op, x, y, r, mask, shift):
        zf, sf = f"1 if {r} == 0 else 0", f"{r} >> {shift} & 1"
        if op == 0:                                    # add
            cf = f"1 if {x} + {y} > {mask} else 0"
            of = f"(~({x} ^ {y}) & ({x} ^ {r})) >> {shift} & 1"
        elif op == 1:                                  # sub / cmp
            cf = f"1 if {x} < {y} else 0"
            of = f"(({x} ^ {y}) & ({x} ^ {r})) >> {shift} & 1"
        else:                                          # logic / imul
            cf = of = "0"
        self.flags.update(zf=zf, sf=sf, cf=cf, of=of)


def _emit(em, kind, pay):
    """Emit one instruction, mirroring its handler in X86Machine._execute:
    the same counters before the same trap checks, the same results."""
    k = em.k
    if kind == K_MOV_RR:
        em.out(f"regs[{pay[0]}] = regs[{pay[1]}]")
    elif kind == K_MOV_RR32:
        em.out(f"regs[{pay[0]}] = regs[{pay[1]}] & {_M32}")
    elif kind == K_MOV_RI:
        em.out(f"regs[{pay[0]}] = {pay[1]}")
    elif kind == K_MOV_LOAD:
        dst, base, index, scale, disp, msize, wmask = pay
        em.count(LOADS)
        e = em.addr(em.ea(base, index, scale, disp), msize, "load")
        em.out(f"regs[{dst}] = {_UNPACK[msize]}(memory, {e})[0]" +
               (f" & {wmask}" if msize * 8 > wmask.bit_length() else ""))
    elif kind in (K_MOV_STORE_R, K_MOV_STORE_I):
        base, index, scale, disp, msize = pay[:5]
        em.count(STORES)
        e = em.addr(em.ea(base, index, scale, disp), msize, "store")
        if kind == K_MOV_STORE_I:
            em.out(f"memory[{e}:{e} + {msize}] = {pay[5]!r}")
        else:
            em.out(f"{_PACK[msize]}(memory, {e}, regs[{pay[6]}]" +
                   ("" if msize == 8 else f" & {pay[5]}") + ")")
    elif kind == K_ALU:
        op, aa, bb, a_is_mem, b_kind, size, _bits, mask, shift, sbit = pay
        em.counts[LOADS] += a_is_mem
        x = em.operand(2 if a_is_mem else 0, aa, size, mask, "x")
        em.counts[LOADS] += b_kind == 2
        y = em.operand(b_kind, bb, size, mask, "y")
        if op == 5:                                    # imul
            em.count(MULS)
            sx, sy = (str(int(v) - (sbit << 1) if int(v) & sbit else v)
                      if v.isdigit() else
                      f"({v} - {sbit << 1} if {v} & {sbit} else {v})"
                      for v in (x, y))
            src = f"({sx} * {sy}) & {mask}"
        elif op < 2:                                   # add / sub
            src = f"({x} {'+-'[op]} {y}) & {mask}"
        else:                                          # and / or / xor
            src = f"{x} {'&|^'[op - 2]} {y}"
        em.arith_flags(op, x, y, f"r{k}", mask, shift)
        if a_is_mem:
            em.count(STORES)
            em.out(f"r{k} = {src}")
            em.out(f"{_PACK[aa.size]}(memory, e{k}x, r{k}" +
                   ("" if aa.size >= size
                    else f" & {(1 << aa.size * 8) - 1}") + ")")
        else:
            em.out(f"regs[{aa}] = r{k} = {src}")
    elif kind in (K_CMP, K_TEST):
        ak, av, bk, bv, nl, size, mask, shift = pay
        em.counts[LOADS] += nl
        x = em.operand(ak, av, size, mask, "x")
        y = em.operand(bk, bv, size, mask, "y")
        em.out(f"r{k} = ({x} - {y}) & {mask}" if kind == K_CMP
               else f"r{k} = {x} & {y}")
        em.arith_flags(1 if kind == K_CMP else 2, x, y, f"r{k}", mask, shift)
    elif kind == K_JCC:
        em.count(BRANCHES, COND)
        em.exit()
        em.out(f"if {em.cond(pay[0])}: return {pay[1]}")
        em.out(f"return {em.start + k + 1}")
    elif kind == K_JMP:
        em.count(BRANCHES)
        em.exit()
        em.out(f"return {pay}")
    elif kind == K_LEA:
        src = em.mem_ea(pay[1])
        em.out(f"regs[{pay[0]}] = ({src}) & {_M32}" if pay[2] == 4
               else f"regs[{pay[0]}] = {src}")
    elif kind == K_MOVX:
        dst, src, b_is_mem, sign, src_bits, smask, size = pay
        em.counts[LOADS] += b_is_mem
        em.out(f"v{k} = {em.load(src)}" if b_is_mem
               else f"v{k} = regs[{src}] & {smask}")
        if sign:
            sb = 1 << (src_bits - 1)
            em.out(f"v{k} = v{k} - {sb << 1} if v{k} & {sb} else v{k}")
        em.out(f"regs[{dst}] = v{k} & {_M32 if size == 4 else _M64}")
    elif kind == K_SHIFT:
        sh, a, a_is_mem, count, size, bits = pay
        c = count
        if count is None:
            c = f"c{k}"
            em.out(f"c{k} = regs[{RCX}] & {bits - 1}")
        if a_is_mem:
            em.count(LOADS, STORES)
        em.out(f"x{k} = {em.load(a) if a_is_mem else em.reg(a.reg, size)}")
        sb = 1 << (bits - 1)
        src = (f"x{k} << {c}", f"x{k} >> {c}",
               f"(x{k} - {sb << 1} if x{k} & {sb} else x{k}) >> {c}")[sh]
        em.out(f"{'' if a_is_mem else f'regs[{a.reg}] = '}"
               f"r{k} = ({src}) & {(1 << bits) - 1}")
        em.flags.update(zf=f"1 if r{k} == 0 else 0",
                        sf=f"r{k} >> {bits - 1} & 1")
        if a_is_mem:
            em.out(f"{_PACK[a.size]}(memory, e{k}, r{k} & "
                   f"{(1 << a.size * 8) - 1})")
    elif kind == K_PUSH:
        em.count(STORES)
        em.out(f"regs[{RSP}] = (regs[{RSP}] - 8) & {_M64}")
        e = em.addr(f"regs[{RSP}]", 8, "store")
        val = f"regs[{pay[0]}]" if pay[0] is not None else pay[1] & _M64
        em.out(f"_P64(memory, {e}, {val})")
    elif kind == K_POP:
        em.count(LOADS)
        e = em.addr(f"regs[{RSP}]", 8, "load")
        em.out(f"v{k} = _U64(memory, {e})[0]")
        em.out(f"regs[{RSP}] = (regs[{RSP}] + 8) & {_M64}")
        em.out(f"regs[{pay}] = v{k}")
    elif kind == K_SETCC:
        em.out(f"regs[{pay[0]}] = 1 if {em.cond(pay[1])} else 0")
    elif kind == K_CDQ:
        em.out(f"regs[{RDX}] = {_M32} if regs[{RAX}] & {1 << 31} else 0")
    elif kind == K_CQO:
        em.out(f"regs[{RDX}] = {_M64} if regs[{RAX}] >> 63 else 0")
    elif kind == K_IDIV:
        a, nl, size, bits, is_signed = pay
        em.count(DIVS)
        em.counts[LOADS] += nl
        mask = _M32 if size == 4 else _M64
        em.out(f"d{k} = {em.value(a, size)}")
        em.out(f"n{k} = ((regs[{RDX}] & {_M32}) << 32) | "
               f"(regs[{RAX}] & {_M32})" if size == 4
               else f"n{k} = (regs[{RDX}] << 64) | regs[{RAX}]")
        if is_signed:
            nb, db = 1 << (size * 16 - 1), 1 << (bits - 1)
            em.out(f"n{k} = n{k} - {nb << 1} if n{k} & {nb} else n{k}")
            em.out(f"d{k} = d{k} - {db << 1} if d{k} & {db} else d{k}")
        em.trap(f"d{k} == 0", "integer divide by zero")
        if is_signed:
            em.out(f"q{k} = abs(n{k}) // abs(d{k})")
            em.out(f"if (n{k} < 0) != (d{k} < 0): q{k} = -q{k}")
            em.out(f"regs[{RDX}] = (n{k} - q{k} * d{k}) & {mask}")
        else:
            em.out(f"q{k} = n{k} // d{k}")
            em.out(f"regs[{RDX}] = (n{k} % d{k}) & {mask}")
        em.out(f"regs[{RAX}] = q{k} & {mask}")
    elif kind == K_MOVSD_LOAD:
        em.count(LOADS)
        e = em.addr(em.mem_ea(pay[1]), 8, "read")
        em.out(f"xmm[{pay[0]}] = _UD(memory, {e})[0]")
    elif kind == K_MOVSD_STORE:
        em.count(STORES)
        e = em.addr(em.mem_ea(pay[0]), 8, "write")
        em.out(f"_PD(memory, {e}, xmm[{pay[1]}])")
    elif kind == K_MOVSD_RR:
        em.out(f"xmm[{pay[0]}] = xmm[{pay[1]}]")
    elif kind == K_SSE:
        op, a, b_is_mem, bb = pay
        em.count(FPU)
        y, x = em.xmm_src(b_is_mem, bb), f"xmm[{a}]"
        if op == 3:                                    # divsd
            em.count(FDIVS)
            em.out(f"w{k} = {y}")
            em.out(f"{x} = {x} / w{k} if w{k} != 0.0 else (float('inf') if "
                   f"{x} > 0 else float('-inf') if {x} < 0 else float('nan'))")
        elif op > 3:
            em.out(f"{x} = {('min', 'max')[op - 4]}({x}, {y})")
        else:
            em.out(f"{x} = {x} {'+-*'[op]} {y}")
    elif kind == K_UCOMISD:
        a, b_is_mem, bb = pay
        em.count(FPU)
        em.out(f"x{k} = xmm[{a}]")
        src = em.xmm_src(b_is_mem, bb)             # binds y<k> from memory
        if not b_is_mem:
            em.out(f"y{k} = {src}")
        nan = f"x{k} != x{k} or y{k} != y{k}"
        em.flags.update(zf=f"1 if {nan} or x{k} == y{k} else 0",
                        cf=f"1 if {nan} or x{k} < y{k} else 0", sf="0", of="0")
    elif kind == K_CVTSI2SD:
        dst, b, size, bits = pay
        em.count(FPU)
        sb = 1 << (bits - 1)
        em.out(f"v{k} = {em.value(b, size)}")
        em.out(f"xmm[{dst}] = "
               f"float(v{k} - {sb << 1} if v{k} & {sb} else v{k})")
    elif kind == K_CVTTSD2SI:
        dst, src, size, lo, hi = pay
        em.count(FPU)
        em.out(f"x{k} = xmm[{src}]")
        em.trap(f"x{k} != x{k}", "invalid conversion: NaN to integer")
        em.trap_exc(f"t{k} = int(x{k})", "OverflowError")
        em.trap(f"not {lo} <= t{k} <= {hi}",
                "integer overflow in float->int conversion")
        em.out(f"regs[{dst}] = t{k} & {_M32 if size == 4 else _M64}")
    elif kind == K_SQRTSD:
        dst, b_is_mem, bb = pay
        em.count(FPU)
        em.out(f"w{k} = {em.xmm_src(b_is_mem, bb)}")
        em.out(f"xmm[{dst}] = _sqrt(w{k}) if w{k} >= 0 else float('nan')")
    elif kind == K_PD:
        is_xor, a, b_is_mem, bb = pay
        em.count(FPU)
        em.counts[LOADS] += b_is_mem
        bits = em.load(bb, size=8) if b_is_mem else f"_dbits(xmm[{bb}])"
        em.out(f"xmm[{a}] = _bitsd(_dbits(xmm[{a}]) {'^&'[not is_xor]} "
               f"{bits})")
    elif kind == K_NEG:
        reg, size, bits = pay
        em.out(f"x{k} = {em.reg(reg, size)}")
        em.out(f"regs[{reg}] = r{k} = -x{k} & {(1 << bits) - 1}")
        em.flags.update(zf=f"1 if r{k} == 0 else 0",
                        sf=f"r{k} >> {bits - 1} & 1",
                        cf=f"1 if 0 < x{k} else 0",
                        of=f"(x{k} & r{k}) >> {bits - 1} & 1")


_KINDS = frozenset((
    K_MOV_RR, K_MOV_RR32, K_MOV_RI, K_MOV_LOAD, K_MOV_STORE_R, K_MOV_STORE_I,
    K_ALU, K_CMP, K_TEST, K_JCC, K_JMP, K_LEA, K_MOVX, K_SHIFT, K_PUSH,
    K_POP, K_SETCC, K_CDQ, K_CQO, K_IDIV, K_MOVSD_LOAD, K_MOVSD_STORE,
    K_MOVSD_RR, K_SSE, K_UCOMISD, K_CVTSI2SD, K_CVTTSD2SI, K_SQRTSD, K_PD,
    K_NEG, K_NOP))
