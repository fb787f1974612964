"""IR -> simulated x86-64 lowering, parameterized by a TargetConfig.

One lowering engine serves all backends; the TargetConfig decides which
registers exist, which allocator runs, whether memory operands and scaled
addressing are used, and which safety checks are emitted.  Every
difference the paper measures between native and WebAssembly code is a
config flag here, which is what makes the ablation benchmarks possible.
"""

from __future__ import annotations

from ..errors import CompileError
from ..ir.function import Function
from ..ir.instructions import (
    BinOp, Call, CallIndirect, CondBr, GetGlobal, Jump, Lea, Load,
    MemBinOp, Move, Return, SetGlobal, Store, Trap, UnOp, CMP_OPS,
    COMMUTATIVE_OPS,
)
from ..ir.loops import natural_loops
from ..ir.module import Module
from ..ir.types import Type
from ..ir.values import Const, VReg
from ..ir.verify import check_ranges_enabled, verify_ir_enabled
from ..obs import get_registry, span
from ..regalloc.check import check_assignment
from ..regalloc.graph_coloring import graph_coloring
from ..regalloc.linear_scan import linear_scan
from ..regalloc.liveness import LivenessInfo
from ..x86.isa import BRANCH_OPS, Imm, Instr, Label, Mem, Reg
from ..x86.program import X86Program
from ..x86.registers import RAX, RBP, RCX, RDX, RSP, XMM0
from .target import TargetConfig

_INT_CC = {"eq": "e", "ne": "ne", "lt_s": "l", "le_s": "le", "gt_s": "g",
           "ge_s": "ge", "lt_u": "b", "le_u": "be", "gt_u": "a",
           "ge_u": "ae"}
_FLOAT_CC = {"eq": "e", "ne": "ne", "lt": "b", "le": "be", "gt": "a",
             "ge": "ae"}
_ALU = {"add": "add", "sub": "sub", "mul": "imul", "and": "and",
        "or": "or", "xor": "xor"}
_FALU = {"add": "addsd", "sub": "subsd", "mul": "mulsd", "div": "divsd",
         "min": "minsd", "max": "maxsd"}
_SHIFTS = {"shl": "shl", "shr_u": "shr", "shr_s": "sar"}

#: Sign-bit and abs masks for xorpd/andpd float negation.
_SIGN_MASK = 0x8000000000000000
_ABS_MASK = 0x7FFFFFFFFFFFFFFF


class ModuleLowering:
    """Lowers an IR module to an X86Program under one TargetConfig."""

    def __init__(self, module: Module, config: TargetConfig,
                 program_name: str = None):
        self.module = module
        self.config = config
        self.program = X86Program(program_name or
                                  f"{module.name}.{config.name}",
                                  module.memory_size)
        self.program.abi = config.abi
        self.program.code_alignment = config.code_alignment
        self.program.extern_sigs = dict(module.externs)
        self.sig_ids: dict = {}
        self.table_addr_base = 0
        self.table_sig_base = 0
        self.table_len = 0
        #: §6.4 range-driven check elision: only eliding targets
        #: (tiered engines) under the optimizing tier, revertable with
        #: ``REPRO_RANGES=0``.  The oracle flag makes the lowering
        #: attach ``--check-ranges`` assertions to committed defs.
        from ..ir.passes.ranges import ranges_enabled
        from ..tier import get_tier
        self.elide = (getattr(config, "elide_checks", False)
                      and ranges_enabled() and get_tier() == "fuse")
        self.oracle = check_ranges_enabled()
        self.check_stats = {
            "stack_total": 0, "stack_elided": 0,
            "indirect_total": 0, "indirect_elided": 0,
        }

    def compile(self) -> X86Program:
        program = self.program
        for name, gvar in self.module.wasm_globals.items():
            program.add_instance_global(name, int(gvar.init))
        if self.config.stack_check:
            program.add_instance_global(
                "__stack_limit", self.module.memory_size + 4096)

        self._build_tables()

        with span("codegen.lower", target=self.config.name,
                  module=self.module.name):
            # Two-phase lowering: ``prepare`` runs regalloc for every
            # function first, so the stack-elision planner can see
            # every frame size and call site before any code is
            # emitted; ``emit_body`` then lowers under the plan.
            lowerings = [FunctionLowering(self, func)
                         for func in self.module.functions.values()]
            for fl in lowerings:
                fl.prepare()
            self._plan_stack_elision(lowerings)
            for fl in lowerings:
                fl.emit_body()
        if self.config.stack_check or self.config.indirect_check:
            program.compile_stats["checks"] = dict(self.check_stats)
            registry = get_registry()
            for key, value in self.check_stats.items():
                if value:
                    registry.counter(f"codegen.checks.{key}").inc(value)
        program.layout()
        program.data_segments = tuple((seg.addr, bytes(seg.data))
                                      for seg in self.module.data)
        program.heap_base = self.module.heap_base
        return program

    # -- §6.4: stack-check elision planning -----------------------------------
    #
    # The stack check guards a 4096-byte redzone below ``__stack_limit``
    # (the limit sits that far above the end of guest linear memory).  A
    # function's check may be dropped when every call chain rooted at it
    # provably writes less than the redzone before reaching either a
    # leaf or the next *checked* function's own check — then any true
    # overflow is still caught by a check downstream (or cannot happen
    # at all), just like the paper's §6.4 "spend more time on hot code"
    # engines.  Recursion (an SCC in the unchecked call graph) has
    # unbounded depth and always keeps its checks.

    _STACK_BUDGET = 4096 - 64

    def _stack_arg_bytes(self, args) -> int:
        abi = self.config.abi
        int_idx = float_idx = stack = 0
        for arg in args:
            if arg.ty.is_float:
                if float_idx < len(abi.float_args):
                    float_idx += 1
                else:
                    stack += 8
            else:
                if int_idx < len(abi.int_args):
                    int_idx += 1
                else:
                    stack += 8
        return stack

    def _call_sites(self, func):
        """(kind, callees, stack_arg_bytes) per call site: ``kind`` is
        'extern' (hostcall — runs in the host, no machine-stack
        descent) or 'call'; ``callees`` the possible machine callees."""
        sites = []
        externs = self.module.externs
        for block in func.blocks.values():
            for instr in block.instrs:
                if isinstance(instr, Call):
                    kind = "extern" if instr.callee in externs else "call"
                    sites.append((kind, (instr.callee,),
                                  self._stack_arg_bytes(instr.args)))
                elif isinstance(instr, CallIndirect):
                    names = self._possible_targets(instr)
                    sites.append(("call", names,
                                  self._stack_arg_bytes(instr.args)))
        return sites

    def _possible_targets(self, instr: CallIndirect):
        """Table entries a ``call_indirect`` can reach, narrowed by the
        proved index interval when there is one."""
        entries = list(self.module.table)
        fact = getattr(instr, "target_fact", None)
        if fact is not None and 0 <= fact.lo and fact.hi < len(entries):
            entries = entries[fact.lo:fact.hi + 1]
        return tuple(n for n in entries if n)

    def _plan_stack_elision(self, lowerings) -> None:
        if not (self.config.stack_check and self.elide):
            return
        budget = self._STACK_BUDGET
        by_name = {fl.func.name: fl for fl in lowerings}
        sites = {name: self._call_sites(fl.func)
                 for name, fl in by_name.items()}
        # Frame bytes a function may write below its entry RSP: the rbp
        # push, callee-saved pushes, and the spill area.
        depth = {name: 8 + 8 * len(fl.pushed) + fl._frame_bytes()
                 for name, fl in by_name.items()}
        # What a *checked* callee writes before its own check runs.
        prewrite = {name: 8 + 8 * len(fl.pushed)
                    for name, fl in by_name.items()}
        checked: set = set()
        INF = float("inf")

        def reach(name, state):
            """Max bytes written below ``name``'s entry while no check
            runs, assuming ``name`` itself is unchecked."""
            cached = state.get(name)
            if cached is not None:
                return cached
            state[name] = INF        # recursion -> unbounded
            worst = 0
            for kind, callees, arg_bytes in sites[name]:
                if kind == "extern":
                    worst = max(worst, arg_bytes)
                    continue
                for callee in callees:
                    fl = by_name.get(callee)
                    if fl is None:
                        worst = INF
                        continue
                    down = prewrite[callee] if callee in checked \
                        else reach(callee, state)
                    worst = max(worst, arg_bytes + 8 + down)
            result = depth[name] + worst
            state[name] = result
            return result

        while True:
            state: dict = {}
            demoted = {name for name in by_name
                       if name not in checked
                       and reach(name, state) > budget}
            if not demoted:
                break
            checked |= demoted
        # Checked callers must not launder over-budget unchecked chains
        # below their verified point either.
        while True:
            state = {}
            demoted = set()
            for name in checked:
                for kind, callees, arg_bytes in sites[name]:
                    if kind == "extern":
                        continue
                    for callee in callees:
                        if callee in checked or callee not in by_name:
                            continue
                        if arg_bytes + 8 + reach(callee, state) > budget:
                            demoted.add(callee)
            if not demoted:
                break
            checked |= demoted
        for name, fl in by_name.items():
            fl.elide_stack = name not in checked

    def _build_tables(self) -> None:
        entries = []
        for name in self.module.table:
            if name:
                ftype = self.module.functions[name].ftype
                sig_id = self.sig_ids.setdefault(ftype,
                                                 len(self.sig_ids) + 1)
                entries.append((name, sig_id))
            else:
                entries.append((None, 0))
        self.table_len = len(entries)
        if not entries:
            return
        self.table_addr_base = self.program.add_call_table(
            [(n, 0) for n, _ in entries], with_sig=False)
        if self.config.indirect_check:
            import struct
            sig_blob = b"".join(struct.pack("<i", sig)
                                for _, sig in entries)
            self.table_sig_base = self.program.add_rodata(sig_blob, align=4)

    def sig_id_of(self, ftype) -> int:
        return self.sig_ids.setdefault(ftype, len(self.sig_ids) + 1)


class FunctionLowering:
    def __init__(self, ml: ModuleLowering, func: Function):
        self.ml = ml
        self.cfg = ml.config
        self.func = func
        self.out = ml.program.new_function(func.name)
        self.info = None
        self.assignment = None
        self.order = []
        self.use_counts = {}
        self.slot_base = 0
        self.pushed = []
        self._needs_ind_trap = False
        self._needs_stack_trap = False
        #: Set by the module-level planner when every call chain below
        #: this function provably fits the stack redzone.
        self.elide_stack = False

    # -- emission shorthands ------------------------------------------------------

    def emit(self, op, a=None, b=None, cond=None, size=8, comment=""):
        return self.out.emit(
            Instr(op, a, b, cond=cond, size=size, comment=comment))

    def label(self, name: str):
        self.out.label(name)

    # -- driver -------------------------------------------------------------------

    def run(self) -> None:
        self.prepare()
        self.emit_body()

    def prepare(self) -> None:
        """Phase 1: shape the CFG and allocate registers.  After this the
        frame layout (``pushed``, spill slots) is known, which is what
        the module's stack-elision planner needs before any body is
        emitted."""
        func = self.func
        cfg = self.cfg
        if cfg.loop_entry_jumps:
            _insert_loop_entry_jumps(func)

        self.use_counts = _use_counts(func)
        with span("regalloc", function=func.name,
                  allocator=cfg.allocator):
            self.info = LivenessInfo(func)
            if cfg.allocator == "graph":
                self.assignment = graph_coloring(
                    self.info, cfg.gprs, cfg.xmms, cfg.callee_saved)
            else:
                self.assignment = linear_scan(
                    self.info, cfg.gprs, cfg.xmms, cfg.callee_saved)
            if verify_ir_enabled():
                check_assignment(func, self.assignment, cfg.allocator)
        self.order = [b.label for b in func.block_order()]

        self.pushed = sorted(self.assignment.used_callee_saved)
        self.slot_base = 8 * len(self.pushed)

    def emit_body(self) -> None:
        """Phase 2: emit prologue, blocks, epilogue, and trap stubs."""
        func = self.func
        self._prologue()

        order = self.order
        for pos, block_label in enumerate(order):
            block = func.blocks[block_label]
            next_label = order[pos + 1] if pos + 1 < len(order) else None
            self.label(block_label)
            self._lower_block(block, next_label)

        self.label(".epilogue")
        self._epilogue()
        if self._needs_stack_trap:
            self.label(".stack_trap")
            self.emit("trap", "stack overflow")
        if self._needs_ind_trap:
            self.label(".ind_trap")
            self.emit("trap", "indirect call check failed")

    # -- frame ---------------------------------------------------------------------

    def _frame_bytes(self) -> int:
        size = 8 * self.assignment.num_slots
        return (size + 15) & ~15

    def _prologue(self) -> None:
        self.emit("push", Reg(RBP))
        self.emit("mov", Reg(RBP), Reg(RSP))
        for reg in self.pushed:
            self.emit("push", Reg(reg))
        frame = self._frame_bytes()
        if frame:
            self.emit("sub", Reg(RSP), Imm(frame))
        if self.cfg.stack_check:
            self.ml.check_stats["stack_total"] += 1
            if self.elide_stack:
                self.ml.check_stats["stack_elided"] += 1
            else:
                limit = self.ml.program.instance_globals["__stack_limit"]
                cmp = self.emit("cmp", Reg(RSP), Mem(disp=limit, size=8),
                                comment="stack overflow check")
                jcc = self.emit("jcc", Label(".stack_trap"), cond="be")
                cmp.check = jcc.check = "stack"
                self._needs_stack_trap = True

        # Bind incoming arguments.
        abi = self.cfg.abi
        moves = []   # (dst_loc, src_operand, is_float)
        int_idx = float_idx = 0
        stack_idx = 0
        for reg in self.func.params:
            is_float = reg.ty.is_float
            if is_float:
                if float_idx < len(abi.float_args):
                    src = Reg(abi.float_args[float_idx])
                    float_idx += 1
                else:
                    src = Mem(base=RBP, disp=16 + 8 * stack_idx, size=8)
                    stack_idx += 1
            else:
                if int_idx < len(abi.int_args):
                    src = Reg(abi.int_args[int_idx])
                    int_idx += 1
                else:
                    src = Mem(base=RBP, disp=16 + 8 * stack_idx, size=8)
                    stack_idx += 1
            moves.append((self._loc(reg), src, is_float))

        # Spill-slot destinations first (they only read ABI regs).
        for loc, src, is_float in moves:
            if loc[0] == "spill":
                dst_mem = self._slot_mem(loc[1])
                if is_float:
                    if isinstance(src, Mem):
                        self.emit("movsd", Reg(self._xscratch(0)), src)
                        self.emit("movsd", dst_mem, Reg(self._xscratch(0)))
                    else:
                        self.emit("movsd", dst_mem, src)
                else:
                    if isinstance(src, Mem):
                        self.emit("mov", Reg(self.cfg.scratch_gprs[0]), src)
                        self.emit("mov", dst_mem,
                                  Reg(self.cfg.scratch_gprs[0]))
                    else:
                        self.emit("mov", dst_mem, src)
        reg_moves = [(loc[1], src, is_float)
                     for loc, src, is_float in moves if loc[0] == "reg"]
        self._parallel_moves(reg_moves)

    def _epilogue(self) -> None:
        if self.pushed:
            self.emit("lea", Reg(RSP),
                      Mem(base=RBP, disp=-8 * len(self.pushed)))
            for reg in reversed(self.pushed):
                self.emit("pop", Reg(reg))
        elif self._frame_bytes():
            self.emit("mov", Reg(RSP), Reg(RBP))
        self.emit("pop", Reg(RBP))
        self.emit("ret")

    # -- locations -------------------------------------------------------------------

    def _loc(self, vreg: VReg):
        return self.assignment.location(vreg.id)

    def _slot_mem(self, slot: int, size: int = 8) -> Mem:
        return Mem(base=RBP, disp=-(self.slot_base + 8 * (slot + 1)),
                   size=size, spill=True)

    def _xscratch(self, idx: int) -> int:
        return self.cfg.scratch_xmms[idx]

    def _to_gpr(self, operand, scratch_idx: int = 0, size: int = 8) -> int:
        """Materialize an integer operand into a register; returns reg."""
        if isinstance(operand, Const):
            scratch = self.cfg.scratch_gprs[scratch_idx]
            self.emit("mov", Reg(scratch, size), Imm(int(operand.value)),
                      size=size)
            return scratch
        loc = self._loc(operand)
        if loc[0] == "reg":
            return loc[1]
        scratch = self.cfg.scratch_gprs[scratch_idx]
        self.emit("mov", Reg(scratch), self._slot_mem(loc[1]))
        return scratch

    def _gpr_src(self, operand, scratch_idx: int = 0, size: int = 8):
        """An ALU source operand: Imm, Reg, or (if folding) spill Mem."""
        if isinstance(operand, Const):
            value = int(operand.value)
            if -(1 << 31) <= value < (1 << 31):
                return Imm(value)
            return Reg(self._to_gpr(operand, scratch_idx, size), size)
        loc = self._loc(operand)
        if loc[0] == "reg":
            return Reg(loc[1], size)
        if self.cfg.fold_mem_ops:
            return self._slot_mem(loc[1])
        return Reg(self._to_gpr(operand, scratch_idx, size), size)

    def _to_xmm(self, operand, scratch_idx: int = 0) -> int:
        if isinstance(operand, Const):
            scratch = self._xscratch(scratch_idx)
            pool = self.ml.program.f64_constant(float(operand.value))
            self.emit("movsd", Reg(scratch), Mem(disp=pool, size=8))
            return scratch
        loc = self._loc(operand)
        if loc[0] == "reg":
            return loc[1]
        scratch = self._xscratch(scratch_idx)
        self.emit("movsd", Reg(scratch), self._slot_mem(loc[1]))
        return scratch

    def _xmm_src(self, operand, scratch_idx: int = 0):
        if isinstance(operand, Const):
            pool = self.ml.program.f64_constant(float(operand.value))
            return Mem(disp=pool, size=8)
        loc = self._loc(operand)
        if loc[0] == "reg":
            return Reg(loc[1])
        if self.cfg.fold_mem_ops:
            return self._slot_mem(loc[1])
        return Reg(self._to_xmm(operand, scratch_idx))

    def _int_target(self, dst: VReg) -> int:
        loc = self._loc(dst)
        return loc[1] if loc[0] == "reg" else self.cfg.scratch_gprs[0]

    def _xmm_target(self, dst: VReg) -> int:
        loc = self._loc(dst)
        return loc[1] if loc[0] == "reg" else self._xscratch(0)

    def _commit_int(self, dst: VReg, reg: int) -> None:
        loc = self._loc(dst)
        if loc[0] == "spill":
            self.emit("mov", self._slot_mem(loc[1]), Reg(reg))
        elif loc[1] != reg:
            self.emit("mov", Reg(loc[1]), Reg(reg))

    def _commit_xmm(self, dst: VReg, reg: int) -> None:
        loc = self._loc(dst)
        if loc[0] == "spill":
            self.emit("movsd", self._slot_mem(loc[1]), Reg(reg))
        elif loc[1] != reg:
            self.emit("movsd", Reg(loc[1]), Reg(reg))

    def _size_of(self, ty: Type) -> int:
        return 4 if ty is Type.I32 else 8

    # -- memory operands ----------------------------------------------------------------

    def _mem_operand(self, base, offset: int, index, scale: int,
                     size: int, scratch_idx: int = 0) -> Mem:
        """Build the x86 memory operand for a guest access."""
        cfg = self.cfg
        heap = cfg.heap_base
        idx_reg = None
        if index is not None:
            idx_reg = self._to_gpr(index, 1, 4)

        if isinstance(base, Const):
            disp = int(base.value) + offset
            if cfg.heap_mask and idx_reg is not None:
                idx_reg = self._masked_copy(idx_reg, scratch_idx)
            return Mem(base=heap, index=idx_reg, scale=scale, disp=disp,
                       size=size)

        base_reg = self._to_gpr(base, scratch_idx, 4)
        if cfg.heap_mask:
            base_reg = self._masked_copy(base_reg, scratch_idx)
        if heap is not None:
            # JIT form: [heap_base + ptr32 (+ nothing else)]; a scaled
            # index would need an lea first, but the wasm pipeline never
            # produces scaled IR accesses anyway.
            if idx_reg is not None:
                raise CompileError("scaled access reached a JIT backend")
            return Mem(base=heap, index=base_reg, scale=1, disp=offset,
                       size=size)
        return Mem(base=base_reg, index=idx_reg, scale=scale, disp=offset,
                   size=size)

    def _masked_copy(self, reg: int, scratch_idx: int) -> int:
        """asm.js heap masking: HEAP32[(addr & MASK) >> 2].

        The mask is the heap size (a power of two) minus one, so in-bounds
        addresses pass through unchanged — the cost is the two extra
        instructions per access, which is the point being modeled.
        """
        mask = _next_pow2(self.ml.module.memory_size) - 1
        scratch = self.cfg.scratch_gprs[scratch_idx]
        if scratch == reg:
            self.emit("and", Reg(scratch, 4), Imm(mask), size=4)
            return scratch
        self.emit("mov", Reg(scratch, 4), Reg(reg, 4), size=4)
        self.emit("and", Reg(scratch, 4), Imm(mask), size=4)
        return scratch

    # -- blocks ---------------------------------------------------------------------------

    def _lower_block(self, block, next_label) -> None:
        instrs = block.instrs
        term = block.term

        # Compare/branch fusion: the block ends with `c = cmp; br c` and c
        # is used nowhere else.
        fused = None
        if (self.cfg.fuse_cmp_branch and isinstance(term, CondBr)
                and instrs and isinstance(instrs[-1], BinOp)
                and instrs[-1].op in CMP_OPS
                and isinstance(term.cond, VReg)
                and instrs[-1].dst == term.cond
                and self.use_counts.get(term.cond.id, 0) == 1):
            fused = instrs[-1]
            instrs = instrs[:-1]

        oracle = self.ml.oracle
        for instr in instrs:
            mark = len(self.out.raw)
            self._lower_instr(instr)
            if oracle:
                self._attach_assert(instr, mark)

        if isinstance(term, Jump):
            forced = block.label.startswith("jentry_")
            if term.target != next_label or forced:
                self.emit("jmp", Label(term.target))
        elif isinstance(term, CondBr):
            if fused is not None:
                cc = self._emit_compare(fused)
            else:
                reg = self._to_gpr(term.cond, 0, 4)
                self.emit("test", Reg(reg, 4), Reg(reg, 4), size=4)
                cc = "ne"
            if term.if_false == next_label:
                self.emit("jcc", Label(term.if_true), cond=cc)
            elif term.if_true == next_label:
                self.emit("jcc", Label(term.if_false), cond=_invert(cc))
            else:
                self.emit("jcc", Label(term.if_true), cond=cc)
                self.emit("jmp", Label(term.if_false))
        elif isinstance(term, Return):
            if term.value is not None:
                if term.value.ty.is_float:
                    src = self._xmm_src(term.value)
                    self.emit("movsd", Reg(XMM0), src)
                else:
                    size = self._size_of(term.value.ty)
                    src = self._gpr_src(term.value, 0, size)
                    self.emit("mov", Reg(RAX, size), src, size=size)
            if next_label is not None:
                self.emit("jmp", Label(".epilogue"))
        elif isinstance(term, Trap):
            self.emit("trap", term.message)
        else:  # pragma: no cover
            raise CompileError(f"bad terminator {term!r}")

    def _attach_assert(self, instr, mark: int) -> None:
        """Pin the ``--check-ranges`` oracle fact onto the last x86
        instruction lowered for ``instr``, for the machine to assert the
        committed register value right after it retires.  Skipped when
        nothing was emitted (the value did not move) or the tail is a
        label/branch — an assertion there would fire on unrelated
        control-flow paths."""
        fact = getattr(instr, "range_fact", None)
        if fact is None:
            return
        defs = instr.defs()
        if not defs or defs[0].ty.is_float:
            return
        loc = self._loc(defs[0])
        if loc[0] != "reg":
            return
        raw = self.out.raw
        if len(raw) <= mark:
            return
        last = raw[-1]
        if last.op == "label" or last.op in BRANCH_OPS:
            return
        last.assert_range = (loc[1], fact)

    def _emit_compare(self, binop: BinOp) -> str:
        """Emit cmp/ucomisd for a comparison; returns the condition code."""
        operand_ty = (binop.lhs.ty if isinstance(binop.lhs, (VReg, Const))
                      else Type.I32)
        if operand_ty.is_float:
            a = self._to_xmm(binop.lhs, 0)
            b = self._xmm_src(binop.rhs, 1)
            self.emit("ucomisd", Reg(a), b)
            return _FLOAT_CC[binop.op]
        size = self._size_of(operand_ty)
        a = self._to_gpr(binop.lhs, 0, size)
        b = self._gpr_src(binop.rhs, 1, size)
        self.emit("cmp", Reg(a, size), b, size=size)
        return _INT_CC[binop.op]

    # -- instructions ----------------------------------------------------------------------

    def _lower_instr(self, instr) -> None:
        if isinstance(instr, Move):
            self._lower_move(instr)
        elif isinstance(instr, BinOp):
            self._lower_binop(instr)
        elif isinstance(instr, UnOp):
            self._lower_unop(instr)
        elif isinstance(instr, Load):
            self._lower_load(instr)
        elif isinstance(instr, Store):
            self._lower_store(instr)
        elif isinstance(instr, MemBinOp):
            self._lower_membinop(instr)
        elif isinstance(instr, Lea):
            self._lower_lea(instr)
        elif isinstance(instr, GetGlobal):
            self._lower_getglobal(instr)
        elif isinstance(instr, SetGlobal):
            self._lower_setglobal(instr)
        elif isinstance(instr, Call):
            self._lower_call(instr)
        elif isinstance(instr, CallIndirect):
            self._lower_call_indirect(instr)
        else:  # pragma: no cover
            raise CompileError(f"cannot lower {instr!r}")

    def _lower_move(self, instr: Move) -> None:
        dst = instr.dst
        if dst.ty.is_float:
            loc = self._loc(dst)
            src = self._xmm_src(instr.src, 0)
            if loc[0] == "reg":
                if not (isinstance(src, Reg) and src.reg == loc[1]):
                    self.emit("movsd", Reg(loc[1]), src)
            else:
                if isinstance(src, Mem):
                    scratch = self._xscratch(0)
                    self.emit("movsd", Reg(scratch), src)
                    src = Reg(scratch)
                self.emit("movsd", self._slot_mem(loc[1]), src)
            return
        size = self._size_of(dst.ty)
        loc = self._loc(dst)
        src = self._gpr_src(instr.src, 0, size)
        if loc[0] == "reg":
            if not (isinstance(src, Reg) and src.reg == loc[1]):
                self.emit("mov", Reg(loc[1], size), src, size=size)
        else:
            # Spill slots are always written as full zero-extended
            # 8-byte values so that reloads (which are 8 bytes wide)
            # never see stale upper bits.
            if isinstance(src, Mem):
                scratch = self.cfg.scratch_gprs[0]
                self.emit("mov", Reg(scratch), src)
                src = Reg(scratch)
            elif isinstance(src, Imm):
                src = Imm(int(src.value) & 0xFFFFFFFF) if size == 4 else src
            elif isinstance(src, Reg):
                src = Reg(src.reg)
            self.emit("mov", self._slot_mem(loc[1]), src)

    def _lower_binop(self, instr: BinOp) -> None:
        op = instr.op
        if instr.dst.ty.is_float and op not in CMP_OPS:
            self._lower_float_binop(instr)
            return
        operand_ty = (instr.lhs.ty if isinstance(instr.lhs, (VReg, Const))
                      else Type.I32)
        if op in CMP_OPS:
            if operand_ty.is_float:
                a = self._to_xmm(instr.lhs, 0)
                b = self._xmm_src(instr.rhs, 1)
                self.emit("ucomisd", Reg(a), b)
                cc = _FLOAT_CC[op]
            else:
                size = self._size_of(operand_ty)
                a = self._to_gpr(instr.lhs, 0, size)
                b = self._gpr_src(instr.rhs, 1, size)
                self.emit("cmp", Reg(a, size), b, size=size)
                cc = _INT_CC[op]
            target = self._int_target(instr.dst)
            self.emit("setcc", Reg(target), cond=cc)
            self._commit_int(instr.dst, target)
            return
        if op in ("div_s", "div_u", "rem_s", "rem_u"):
            self._lower_div(instr)
            return
        if op in _SHIFTS:
            self._lower_shift(instr)
            return
        if op in ("rotl", "rotr"):
            raise CompileError(f"{op} not supported by the lowering engine")

        size = self._size_of(instr.dst.ty)
        a, b = instr.lhs, instr.rhs
        target = self._int_target(instr.dst)

        b_in_target = (isinstance(b, VReg)
                       and self._loc(b) == ("reg", target))
        if b_in_target:
            if op in COMMUTATIVE_OPS:
                a, b = b, a
            else:
                scratch1 = self.cfg.scratch_gprs[1]
                self.emit("mov", Reg(scratch1, size), Reg(target, size),
                          size=size)
                b = _PhysReg(scratch1)
        a_in_target = (isinstance(a, VReg)
                       and self._loc(a) == ("reg", target))
        if not a_in_target:
            src = self._gpr_src(a, 0, size)
            self.emit("mov", Reg(target, size), src, size=size)
        if isinstance(b, _PhysReg):
            b_src = Reg(b.reg, size)
        else:
            b_src = self._gpr_src(b, 1, size)
        self.emit(_ALU[op], Reg(target, size), b_src, size=size)
        self._commit_int(instr.dst, target)

    def _lower_float_binop(self, instr: BinOp) -> None:
        op = instr.op
        if op == "copysign":
            raise CompileError("copysign not supported by the lowering "
                               "engine")
        a, b = instr.lhs, instr.rhs
        target = self._xmm_target(instr.dst)
        b_in_target = (isinstance(b, VReg)
                       and self._loc(b) == ("reg", target))
        if b_in_target:
            if op in COMMUTATIVE_OPS:
                a, b = b, a
            else:
                scratch = self._xscratch(1)
                self.emit("movsd", Reg(scratch), Reg(target))
                b = _PhysReg(scratch)
        a_in_target = (isinstance(a, VReg)
                       and self._loc(a) == ("reg", target))
        if not a_in_target:
            src = self._xmm_src(a, 0)
            self.emit("movsd", Reg(target), src)
        if isinstance(b, _PhysReg):
            b_src = Reg(b.reg)
        else:
            b_src = self._xmm_src(b, 1)
        self.emit(_FALU[op], Reg(target), b_src)
        self._commit_xmm(instr.dst, target)

    def _lower_div(self, instr: BinOp) -> None:
        size = self._size_of(instr.dst.ty)
        signed_op = instr.op.endswith("_s")
        a_src = self._gpr_src(instr.lhs, 0, size)
        self.emit("mov", Reg(RAX, size), a_src, size=size)
        if signed_op:
            self.emit("cdq" if size == 4 else "cqo")
        else:
            self.emit("xor", Reg(RDX, size), Reg(RDX, size), size=size)
        divisor = instr.rhs
        if isinstance(divisor, Const):
            d_reg = self._to_gpr(divisor, 1, size)
        else:
            loc = self._loc(divisor)
            d_reg = loc[1] if loc[0] == "reg" \
                else self._to_gpr(divisor, 1, size)
        self.emit("idiv" if signed_op else "div", Reg(d_reg, size),
                  size=size)
        result = RAX if instr.op.startswith("div") else RDX
        target = self._int_target(instr.dst)
        if target != result:
            self.emit("mov", Reg(target, size), Reg(result, size),
                      size=size)
            self._commit_int(instr.dst, target)
        else:
            self._commit_int(instr.dst, target)

    def _lower_shift(self, instr: BinOp) -> None:
        size = self._size_of(instr.dst.ty)
        target = self._int_target(instr.dst)
        a = instr.lhs
        a_in_target = (isinstance(a, VReg)
                       and self._loc(a) == ("reg", target))
        count = instr.rhs
        if isinstance(count, VReg):
            count_src = self._gpr_src(count, 1, 4)
            self.emit("mov", Reg(RCX, 4), count_src, size=4)
        if not a_in_target:
            self.emit("mov", Reg(target, size), self._gpr_src(a, 0, size),
                      size=size)
        if isinstance(count, Const):
            self.emit(_SHIFTS[instr.op], Reg(target, size),
                      Imm(int(count.value) & (size * 8 - 1)), size=size)
        else:
            self.emit(_SHIFTS[instr.op], Reg(target, size), Reg(RCX, 1),
                      size=size)
        self._commit_int(instr.dst, target)

    def _lower_unop(self, instr: UnOp) -> None:
        op = instr.op
        dst = instr.dst
        src = instr.src
        if op == "eqz":
            size = self._size_of(src.ty if isinstance(src, (VReg, Const))
                                 else Type.I32)
            reg = self._to_gpr(src, 0, size)
            self.emit("test", Reg(reg, size), Reg(reg, size), size=size)
            target = self._int_target(dst)
            self.emit("setcc", Reg(target), cond="e")
            self._commit_int(dst, target)
        elif op == "i64_extend_i32_s":
            reg = self._to_gpr(src, 0, 4)
            target = self._int_target(dst)
            self.emit("movsx", Reg(target, 8), Reg(reg, 4), size=8)
            self._commit_int(dst, target)
        elif op == "i64_extend_i32_u":
            reg = self._to_gpr(src, 0, 4)
            target = self._int_target(dst)
            self.emit("mov", Reg(target, 4), Reg(reg, 4), size=4)
            self._commit_int(dst, target)
        elif op == "i32_wrap_i64":
            reg = self._to_gpr(src, 0, 8)
            target = self._int_target(dst)
            self.emit("mov", Reg(target, 4), Reg(reg, 4), size=4)
            self._commit_int(dst, target)
        elif op in ("f64_convert_i32_s", "f64_convert_i64_s",
                    "f64_convert_i32_u", "f64_convert_i64_u"):
            size = 4 if "i32" in op else 8
            reg = self._to_gpr(src, 0, size)
            target = self._xmm_target(dst)
            self.emit("cvtsi2sd", Reg(target), Reg(reg, size), size=size)
            self._commit_xmm(dst, target)
        elif op in ("i32_trunc_f64_s", "i64_trunc_f64_s",
                    "i32_trunc_f64_u", "i64_trunc_f64_u"):
            size = 4 if op.startswith("i32") else 8
            xreg = self._to_xmm(src, 0)
            target = self._int_target(dst)
            self.emit("cvttsd2si", Reg(target, size), Reg(xreg), size=size)
            self._commit_int(dst, target)
        elif op == "neg":
            xreg = self._xmm_target(dst)
            src_x = self._xmm_src(src, 1)
            if not (isinstance(src_x, Reg) and src_x.reg == xreg):
                self.emit("movsd", Reg(xreg), src_x)
            mask = self.ml.program.add_rodata(
                _SIGN_MASK.to_bytes(8, "little"), align=16)
            self.emit("xorpd", Reg(xreg), Mem(disp=mask, size=8))
            self._commit_xmm(dst, xreg)
        elif op == "abs":
            xreg = self._xmm_target(dst)
            src_x = self._xmm_src(src, 1)
            if not (isinstance(src_x, Reg) and src_x.reg == xreg):
                self.emit("movsd", Reg(xreg), src_x)
            mask = self.ml.program.add_rodata(
                _ABS_MASK.to_bytes(8, "little"), align=16)
            self.emit("andpd", Reg(xreg), Mem(disp=mask, size=8))
            self._commit_xmm(dst, xreg)
        elif op == "sqrt":
            target = self._xmm_target(dst)
            self.emit("sqrtsd", Reg(target), self._xmm_src(src, 1))
            self._commit_xmm(dst, target)
        else:
            raise CompileError(f"unary op {op} not supported by the "
                               f"lowering engine")

    def _lower_load(self, instr: Load) -> None:
        dst = instr.dst
        mem = self._mem_operand(instr.base, instr.offset, instr.index,
                                instr.scale, instr.size)
        if dst.ty.is_float:
            target = self._xmm_target(dst)
            self.emit("movsd", Reg(target), mem)
            self._commit_xmm(dst, target)
            return
        size = self._size_of(dst.ty)
        target = self._int_target(dst)
        if instr.size == size:
            self.emit("mov", Reg(target, size), mem, size=size)
        elif instr.signed:
            self.emit("movsx", Reg(target, size), mem, size=size)
        else:
            self.emit("movzx", Reg(target, size), mem, size=size)
        self._commit_int(dst, target)

    def _value_reg_avoiding(self, operand, mem: Mem, size: int = 8) -> int:
        """Materialize an integer operand into a register that does not
        clobber the registers the memory operand reads.  Spilled base +
        spilled index can occupy both shuttle scratches, so ``rax`` (never
        allocated; free outside div/call sequences) is the third choice."""
        if isinstance(operand, VReg):
            loc = self._loc(operand)
            if loc[0] == "reg":
                return loc[1]
        used = {mem.base, mem.index}
        for candidate in (self.cfg.scratch_gprs[1],
                          self.cfg.scratch_gprs[0], RAX):
            if candidate not in used:
                break
        if isinstance(operand, Const):
            self.emit("mov", Reg(candidate), Imm(int(operand.value)))
        else:
            self.emit("mov", Reg(candidate),
                      self._slot_mem(self._loc(operand)[1]))
        return candidate

    def _lower_store(self, instr: Store) -> None:
        mem = self._mem_operand(instr.base, instr.offset, instr.index,
                                instr.scale, instr.size)
        src = instr.src
        if isinstance(src, (VReg, Const)) and src.ty.is_float:
            xreg = self._to_xmm(src, 1)
            self.emit("movsd", mem, Reg(xreg))
            return
        if isinstance(src, Const):
            value = int(src.value)
            if -(1 << 31) <= value < (1 << 31):
                self.emit("mov", mem, Imm(value), size=instr.size)
                return
        reg = self._value_reg_avoiding(src, mem)
        self.emit("mov", mem, Reg(reg, instr.size), size=instr.size)

    def _lower_membinop(self, instr: MemBinOp) -> None:
        mem = self._mem_operand(instr.base, instr.offset, instr.index,
                                instr.scale, instr.size)
        src = instr.src
        if isinstance(src, (VReg, Const)) and src.ty.is_float:
            raise CompileError("float MemBinOp is not a valid x86 form")
        size = instr.size
        if isinstance(src, Const):
            value = int(src.value)
            if -(1 << 31) <= value < (1 << 31):
                self.emit(_ALU[instr.op], mem, Imm(value), size=size)
                return
        reg = self._value_reg_avoiding(src, mem, size)
        self.emit(_ALU[instr.op], mem, Reg(reg, size), size=size)

    def _lower_lea(self, instr: Lea) -> None:
        target = self._int_target(instr.dst)
        disp = instr.disp
        base_reg = None
        if isinstance(instr.base, Const):
            disp += int(instr.base.value)
        else:
            base_reg = self._to_gpr(instr.base, 0, 4)
        idx_reg = None
        if instr.index is not None:
            idx_reg = self._to_gpr(instr.index, 1, 4)
        self.emit("lea", Reg(target, 4),
                  Mem(base=base_reg, index=idx_reg, scale=instr.scale,
                      disp=disp), size=4)
        self._commit_int(instr.dst, target)

    def _lower_getglobal(self, instr: GetGlobal) -> None:
        addr = self.ml.program.instance_globals[instr.name]
        dst = instr.dst
        if dst.ty.is_float:
            target = self._xmm_target(dst)
            self.emit("movsd", Reg(target), Mem(disp=addr, size=8))
            self._commit_xmm(dst, target)
            return
        size = self._size_of(dst.ty)
        target = self._int_target(dst)
        self.emit("mov", Reg(target, size), Mem(disp=addr, size=size),
                  size=size)
        self._commit_int(dst, target)

    def _lower_setglobal(self, instr: SetGlobal) -> None:
        addr = self.ml.program.instance_globals[instr.name]
        src = instr.src
        if isinstance(src, (VReg, Const)) and src.ty.is_float:
            xreg = self._to_xmm(src, 1)
            self.emit("movsd", Mem(disp=addr, size=8), Reg(xreg))
            return
        size = self._size_of(src.ty if isinstance(src, (VReg, Const))
                             else Type.I32)
        if isinstance(src, Const):
            self.emit("mov", Mem(disp=addr, size=size),
                      Imm(int(src.value)), size=size)
            return
        reg = self._to_gpr(src, 1, size)
        self.emit("mov", Mem(disp=addr, size=size), Reg(reg, size),
                  size=size)

    # -- calls -----------------------------------------------------------------------------

    def _arg_src(self, arg, is_float: bool):
        """A call-argument source operand that emits no code of its own:
        Imm, Reg, or a spill-slot/constant-pool Mem.  Deferring the reads
        keeps argument marshalling from clobbering the scratch registers
        while other arguments are still pending."""
        if isinstance(arg, Const):
            if is_float:
                pool = self.ml.program.f64_constant(float(arg.value))
                return Mem(disp=pool, size=8)
            value = int(arg.value)
            if arg.ty is Type.I32:
                value &= 0xFFFFFFFF  # keep i32 registers zero-extended
            return Imm(value)
        loc = self._loc(arg)
        if loc[0] == "reg":
            return Reg(loc[1])
        return self._slot_mem(loc[1])

    def _setup_args(self, args) -> int:
        """Marshal call arguments; returns bytes pushed for stack args."""
        abi = self.cfg.abi
        int_idx = float_idx = 0
        reg_moves = []
        stack_args = []
        for arg in args:
            is_float = arg.ty.is_float
            if is_float:
                if float_idx < len(abi.float_args):
                    reg_moves.append((abi.float_args[float_idx],
                                      self._arg_src(arg, True), True))
                    float_idx += 1
                else:
                    stack_args.append((arg, True))
            else:
                if int_idx < len(abi.int_args):
                    reg_moves.append((abi.int_args[int_idx],
                                      self._arg_src(arg, False), False))
                    int_idx += 1
                else:
                    stack_args.append((arg, False))

        pushed = 0
        for arg, is_float in reversed(stack_args):
            if is_float:
                xreg = self._to_xmm(arg, 1)
                self.emit("sub", Reg(RSP), Imm(8))
                self.emit("movsd", Mem(base=RSP, size=8), Reg(xreg))
            else:
                reg = self._to_gpr(arg, 1, 8)
                self.emit("push", Reg(reg))
            pushed += 8

        self._parallel_moves(reg_moves)
        return pushed

    def _parallel_moves(self, moves) -> None:
        """Emit register moves {dst <- src} that may overlap, using the
        second scratch register to break cycles."""
        pending = [(dst, src, is_float) for dst, src, is_float in moves
                   if not (isinstance(src, Reg) and src.reg == dst)]
        while pending:
            progressed = False
            for entry in list(pending):
                dst, src, is_float = entry
                blocked = any(
                    isinstance(other_src, Reg) and other_src.reg == dst
                    for _odst, other_src, _f in pending
                    if (_odst, other_src, _f) != entry)
                if not blocked:
                    self.emit("movsd" if is_float else "mov",
                              Reg(dst), src)
                    pending.remove(entry)
                    progressed = True
                    break
            if progressed:
                continue
            # Cycle: all pending are reg->reg.  Park one source in scratch.
            dst, src, is_float = pending[0]
            scratch = self._xscratch(1) if is_float \
                else self.cfg.scratch_gprs[1]
            self.emit("movsd" if is_float else "mov", Reg(scratch), src)
            pending[0] = (dst, Reg(scratch), is_float)
            for i, (odst, osrc, ofl) in enumerate(pending[1:], start=1):
                if isinstance(osrc, Reg) and osrc.reg == src.reg:
                    pending[i] = (odst, Reg(scratch), ofl)

    def _finish_call(self, instr, pushed: int) -> None:
        if pushed:
            self.emit("add", Reg(RSP), Imm(pushed))
        dst = instr.dst
        if dst is None:
            return
        if dst.ty.is_float:
            self._commit_xmm_from(dst, XMM0)
        else:
            size = self._size_of(dst.ty)
            loc = self._loc(dst)
            if loc[0] == "reg":
                self.emit("mov", Reg(loc[1], size), Reg(RAX, size),
                          size=size)
            else:
                self.emit("mov", self._slot_mem(loc[1]), Reg(RAX))
            if self.cfg.coerce_call_results and dst.ty is Type.I32 \
                    and loc[0] == "reg":
                # asm.js |0 coercion on every call result.
                self.emit("and", Reg(loc[1], 4), Imm(-1), size=4,
                          comment="asm.js coercion")

    def _commit_xmm_from(self, dst: VReg, src_xmm: int) -> None:
        loc = self._loc(dst)
        if loc[0] == "reg":
            if loc[1] != src_xmm:
                self.emit("movsd", Reg(loc[1]), Reg(src_xmm))
        else:
            self.emit("movsd", self._slot_mem(loc[1]), Reg(src_xmm))

    def _lower_call(self, instr: Call) -> None:
        pushed = self._setup_args(instr.args)
        if instr.callee in self.ml.module.externs:
            self.emit("hostcall", instr.callee)
        else:
            self.emit("call", Label(instr.callee))
        self._finish_call(instr, pushed)

    def _lower_call_indirect(self, instr: CallIndirect) -> None:
        scratch0 = self.cfg.scratch_gprs[0]
        # The table index must survive argument marshalling; park it in
        # scratch0 (argument moves only use scratch1).
        idx = self._to_gpr(instr.target, 0, 4)
        if idx != scratch0:
            self.emit("mov", Reg(scratch0, 4), Reg(idx, 4), size=4)
        pushed = self._setup_args(instr.args)

        ml = self.ml
        if self.cfg.indirect_check:
            elide_bounds, elide_sig = self._indirect_elision(instr)
            ml.check_stats["indirect_total"] += 2
            ml.check_stats["indirect_elided"] += elide_bounds + elide_sig
            if not elide_bounds:
                cmp = self.emit("cmp", Reg(scratch0, 4),
                                Imm(ml.table_len), size=4,
                                comment="table bounds check")
                jcc = self.emit("jcc", Label(".ind_trap"), cond="ae")
                cmp.check = jcc.check = "indirect"
                self._needs_ind_trap = True
            if not elide_sig:
                sig_id = ml.sig_id_of(instr.ftype)
                cmp = self.emit(
                    "cmp",
                    Mem(index=scratch0, scale=4, disp=ml.table_sig_base,
                        size=4),
                    Imm(sig_id), size=4, comment="signature check")
                jcc = self.emit("jcc", Label(".ind_trap"), cond="ne")
                cmp.check = jcc.check = "indirect"
                self._needs_ind_trap = True
        self.emit("callr",
                  Mem(index=scratch0, scale=8, disp=ml.table_addr_base,
                      size=8))
        self._finish_call(instr, pushed)

    def _indirect_elision(self, instr: CallIndirect):
        """(elide_bounds, elide_sig) for one ``call_indirect`` site.

        The bounds check goes when the proved index interval is inside
        ``[0, table_len)``.  The signature check goes when every table
        entry the index can still reach *after* whatever bounds check
        remains (the hardware one, or the proved interval) is a live
        function of the site's signature — then the check can never
        fail.  Nothing is elided outside an eliding target.
        """
        ml = self.ml
        if not ml.elide:
            return False, False
        table = ml.module.table
        n = ml.table_len
        fact = getattr(instr, "target_fact", None)
        elide_bounds = (fact is not None
                        and 0 <= fact.lo and fact.hi < n)
        if fact is not None:
            lo, hi = max(fact.lo, 0), min(fact.hi, n - 1)
        else:
            lo, hi = 0, n - 1
        if lo > hi:
            # The index can never pass the bounds check: the signature
            # check is unreachable.
            return elide_bounds, True
        sig_id = ml.sig_id_of(instr.ftype)
        elide_sig = all(
            bool(name)
            and ml.sig_ids.get(ml.module.functions[name].ftype) == sig_id
            for name in table[lo:hi + 1])
        return elide_bounds, elide_sig


class _PhysReg:
    """Marker wrapper: an operand already materialized in a physical reg."""

    __slots__ = ("reg",)

    def __init__(self, reg: int):
        self.reg = reg


def _next_pow2(value: int) -> int:
    return 1 << (value - 1).bit_length()


def _invert(cc: str) -> str:
    pairs = {"e": "ne", "ne": "e", "l": "ge", "ge": "l", "le": "g",
             "g": "le", "b": "ae", "ae": "b", "be": "a", "a": "be",
             "s": "ns", "ns": "s"}
    return pairs[cc]


def _use_counts(func: Function):
    counts = {}
    for block in func.blocks.values():
        for instr in block.all_instrs():
            for reg in instr.uses():
                counts[reg.id] = counts.get(reg.id, 0) + 1
    return counts


def _insert_loop_entry_jumps(func: Function) -> None:
    """Chrome's extra per-loop-entry jump (paper §5.1.3 / Fig. 7c line 5):
    every edge entering a loop from outside goes through a forwarding
    block that lowers to an unconditional jmp (never elided)."""
    from ..ir.function import BasicBlock

    for loop in natural_loops(func):
        preds = func.predecessors()
        header = loop.header
        outside = [p for p in preds.get(header, []) if p not in loop.body]
        if not outside:
            continue
        entry = BasicBlock(f"jentry_{header}_{len(func.blocks)}")
        entry.term = Jump(header)
        func.blocks[entry.label] = entry
        for pred_label in outside:
            term = func.blocks[pred_label].term
            if isinstance(term, Jump) and term.target == header:
                term.target = entry.label
            elif isinstance(term, CondBr):
                if term.if_true == header:
                    term.if_true = entry.label
                if term.if_false == header:
                    term.if_false = entry.label
        if func.entry == header:
            func.entry = entry.label


def lower_module(module: Module, config: TargetConfig,
                 name: str = None) -> X86Program:
    """Compile an IR module to a simulated x86 program for ``config``."""
    return ModuleLowering(module, config, name).compile()
