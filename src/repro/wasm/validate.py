"""WebAssembly validation (type checking).

Implements the spec's algorithmic validation: an operand type stack plus a
control-frame stack, with the bottom of the operand stack made polymorphic
after unreachable code.  This is the same algorithm V8 and SpiderMonkey run
before compiling a module, and it guarantees the JIT translator only ever
sees well-typed code.
"""

from __future__ import annotations

from ..errors import ValidationError
from .module import PAGE_SIZE, WasmModule
from .opcodes import WasmInstr

_BIN_NUM = {"add", "sub", "mul", "div_s", "div_u", "rem_s", "rem_u",
            "and", "or", "xor", "shl", "shr_s", "shr_u", "rotl", "rotr",
            "div", "min", "max", "copysign"}
_CMP = {"eq", "ne", "lt_s", "lt_u", "gt_s", "gt_u", "le_s", "le_u",
        "ge_s", "ge_u", "lt", "gt", "le", "ge"}
_UN_NUM = {"clz", "ctz", "popcnt", "abs", "neg", "ceil", "floor", "trunc",
           "nearest", "sqrt"}

_CONVERSIONS = {
    "i32.wrap_i64": ("i64", "i32"),
    "i32.trunc_f32_s": ("f32", "i32"), "i32.trunc_f32_u": ("f32", "i32"),
    "i32.trunc_f64_s": ("f64", "i32"), "i32.trunc_f64_u": ("f64", "i32"),
    "i64.extend_i32_s": ("i32", "i64"), "i64.extend_i32_u": ("i32", "i64"),
    "i64.trunc_f32_s": ("f32", "i64"), "i64.trunc_f32_u": ("f32", "i64"),
    "i64.trunc_f64_s": ("f64", "i64"), "i64.trunc_f64_u": ("f64", "i64"),
    "f32.convert_i32_s": ("i32", "f32"), "f32.convert_i32_u": ("i32", "f32"),
    "f32.convert_i64_s": ("i64", "f32"), "f32.convert_i64_u": ("i64", "f32"),
    "f32.demote_f64": ("f64", "f32"),
    "f64.convert_i32_s": ("i32", "f64"), "f64.convert_i32_u": ("i32", "f64"),
    "f64.convert_i64_s": ("i64", "f64"), "f64.convert_i64_u": ("i64", "f64"),
    "f64.promote_f32": ("f32", "f64"),
    "i32.reinterpret_f32": ("f32", "i32"),
    "i64.reinterpret_f64": ("f64", "i64"),
    "f32.reinterpret_i32": ("i32", "f32"),
    "f64.reinterpret_i64": ("i64", "f64"),
}

_LOAD_TYPES = {
    "i32.load": ("i32", 4), "i64.load": ("i64", 8),
    "f32.load": ("f32", 4), "f64.load": ("f64", 8),
    "i32.load8_s": ("i32", 1), "i32.load8_u": ("i32", 1),
    "i32.load16_s": ("i32", 2), "i32.load16_u": ("i32", 2),
    "i64.load8_s": ("i64", 1), "i64.load8_u": ("i64", 1),
    "i64.load16_s": ("i64", 2), "i64.load16_u": ("i64", 2),
    "i64.load32_s": ("i64", 4), "i64.load32_u": ("i64", 4),
}
_STORE_TYPES = {
    "i32.store": ("i32", 4), "i64.store": ("i64", 8),
    "f32.store": ("f32", 4), "f64.store": ("f64", 8),
    "i32.store8": ("i32", 1), "i32.store16": ("i32", 2),
    "i64.store8": ("i64", 1), "i64.store16": ("i64", 2),
    "i64.store32": ("i64", 4),
}


class _Frame:
    __slots__ = ("opcode", "start_types", "end_types", "height",
                 "unreachable")

    def __init__(self, opcode, start_types, end_types, height):
        self.opcode = opcode
        self.start_types = list(start_types)
        self.end_types = list(end_types)
        self.height = height
        self.unreachable = False

    def label_types(self):
        """Types a branch to this frame expects on the stack."""
        return self.start_types if self.opcode == "loop" else self.end_types


class FunctionValidator:
    def __init__(self, module: WasmModule, func, ftype):
        self.module = module
        self.func = func
        self.ftype = ftype
        self.locals = list(ftype.params) + list(func.locals)
        self.stack: list[str] = []
        self.frames: list[_Frame] = []

    def error(self, message: str):
        raise ValidationError(f"{self.func.name or 'func'}: {message}")

    # -- stack helpers ---------------------------------------------------------

    def push(self, valtype: str) -> None:
        self.stack.append(valtype)

    def pop(self, expect: str = None) -> str:
        frame = self.frames[-1]
        if len(self.stack) == frame.height:
            if frame.unreachable:
                return expect or "unknown"
            self.error(f"stack underflow (expected {expect})")
        got = self.stack.pop()
        if expect is not None and got != expect and got != "unknown" \
                and expect != "unknown":
            self.error(f"type mismatch: expected {expect}, got {got}")
        return got

    def push_frame(self, opcode, start_types, end_types) -> None:
        self.frames.append(_Frame(opcode, start_types, end_types,
                                  len(self.stack)))
        self.stack.extend(start_types)

    def pop_frame(self) -> _Frame:
        frame = self.frames[-1]
        for expect in reversed(frame.end_types):
            self.pop(expect)
        if len(self.stack) != frame.height:
            self.error("stack height mismatch at end of block")
        self.frames.pop()
        return frame

    def set_unreachable(self) -> None:
        frame = self.frames[-1]
        del self.stack[frame.height:]
        frame.unreachable = True

    def frame_at(self, depth: int) -> _Frame:
        if depth >= len(self.frames):
            self.error(f"branch depth {depth} out of range")
        return self.frames[-1 - depth]

    # -- validation --------------------------------------------------------------

    def run(self) -> None:
        results = list(self.ftype.results)
        self.push_frame("func", [], results)
        for instr in self.func.body:
            self.check(instr)
        # Implicit end of the function body.
        frame = self.pop_frame()
        for r in frame.end_types:
            self.push(r)

    def check(self, instr: WasmInstr) -> None:
        op = instr.op
        if op == "nop":
            return
        if op == "unreachable":
            self.set_unreachable()
            return
        if op in ("block", "loop"):
            bt = instr.args[0]
            self.push_frame(op, [], [bt] if bt else [])
            return
        if op == "if":
            self.pop("i32")
            bt = instr.args[0]
            self.push_frame("if", [], [bt] if bt else [])
            return
        if op == "else":
            frame = self.pop_frame()
            if frame.opcode != "if":
                self.error("else without if")
            self.push_frame("else", frame.start_types, frame.end_types)
            return
        if op == "end":
            frame = self.pop_frame()
            for r in frame.end_types:
                self.push(r)
            return
        if op == "br":
            frame = self.frame_at(instr.args[0])
            for expect in reversed(frame.label_types()):
                self.pop(expect)
            self.set_unreachable()
            return
        if op == "br_if":
            self.pop("i32")
            frame = self.frame_at(instr.args[0])
            types = frame.label_types()
            for expect in reversed(types):
                self.pop(expect)
            for t in types:
                self.push(t)
            return
        if op == "br_table":
            self.pop("i32")
            targets, default = instr.args
            default_types = self.frame_at(default).label_types()
            for t in targets:
                if self.frame_at(t).label_types() != default_types:
                    self.error("br_table label type mismatch")
            for expect in reversed(default_types):
                self.pop(expect)
            self.set_unreachable()
            return
        if op == "return":
            for expect in reversed(self.ftype.results):
                self.pop(expect)
            self.set_unreachable()
            return
        if op == "call":
            if instr.args[0] >= self.module.function_count():
                self.error(f"call to function index {instr.args[0]} "
                           f"out of range")
            ftype = self.module.func_type_of(instr.args[0])
            for expect in reversed(ftype.params):
                self.pop(expect)
            for r in ftype.results:
                self.push(r)
            return
        if op == "call_indirect":
            if not self.module.table and not self.module.imports:
                self.error("call_indirect without a table")
            self.pop("i32")
            if instr.args[0] >= len(self.module.types):
                self.error(f"call_indirect type index {instr.args[0]} "
                           f"out of range")
            ftype = self.module.types[instr.args[0]]
            for expect in reversed(ftype.params):
                self.pop(expect)
            for r in ftype.results:
                self.push(r)
            return
        if op == "drop":
            self.pop()
            return
        if op == "select":
            self.pop("i32")
            a = self.pop()
            b = self.pop(a if a != "unknown" else None)
            self.push(b if a == "unknown" else a)
            return
        if op in ("local.get", "local.set", "local.tee"):
            index = instr.args[0]
            if index >= len(self.locals):
                self.error(f"local index {index} out of range")
            valtype = self.locals[index]
            if op == "local.get":
                self.push(valtype)
            elif op == "local.set":
                self.pop(valtype)
            else:
                self.pop(valtype)
                self.push(valtype)
            return
        if op in ("global.get", "global.set"):
            index = instr.args[0]
            if index >= len(self.module.globals):
                self.error(f"global index {index} out of range")
            glob = self.module.globals[index]
            if op == "global.get":
                self.push(glob.valtype)
            else:
                if not glob.mutable:
                    self.error("assignment to immutable global")
                self.pop(glob.valtype)
            return
        if op in _LOAD_TYPES:
            valtype, width = _LOAD_TYPES[op]
            self._check_align(instr, width)
            self.pop("i32")
            self.push(valtype)
            return
        if op in _STORE_TYPES:
            valtype, width = _STORE_TYPES[op]
            self._check_align(instr, width)
            self.pop(valtype)
            self.pop("i32")
            return
        if op == "memory.size":
            self.push("i32")
            return
        if op == "memory.grow":
            self.pop("i32")
            self.push("i32")
            return
        if "." in op:
            prefix, _, suffix = op.partition(".")
            if suffix == "const":
                self.push(prefix)
                return
            if op in _CONVERSIONS:
                src, dst = _CONVERSIONS[op]
                self.pop(src)
                self.push(dst)
                return
            if suffix == "eqz":
                self.pop(prefix)
                self.push("i32")
                return
            if suffix in _CMP:
                self.pop(prefix)
                self.pop(prefix)
                self.push("i32")
                return
            if suffix in _BIN_NUM:
                self.pop(prefix)
                self.pop(prefix)
                self.push(prefix)
                return
            if suffix in _UN_NUM:
                self.pop(prefix)
                self.push(prefix)
                return
        self.error(f"unhandled opcode {op}")

    def _check_align(self, instr: WasmInstr, width: int) -> None:
        align = instr.args[0]
        if (1 << align) > width:
            self.error(f"{instr.op}: alignment 2**{align} exceeds width")


def validate_module(module: WasmModule) -> None:
    """Validate every function body; raises ValidationError on failure."""
    from ..obs import span
    with span("wasm.validate", module=module.name):
        _validate_module(module)


def _validate_module(module: WasmModule) -> None:
    imports = module.num_imported_funcs
    for imp in module.imports:
        if imp.type_index >= len(module.types):
            raise ValidationError(f"import {imp.name}: bad type index")
    for i, func in enumerate(module.functions):
        if func.type_index >= len(module.types):
            raise ValidationError(f"function {i}: bad type index")
        ftype = module.types[func.type_index]
        FunctionValidator(module, func, ftype).run()
    for idx in module.table:
        if idx >= module.function_count():
            raise ValidationError("table entry out of range")
    for exp in module.exports:
        if exp.kind == "func" and exp.index >= module.function_count():
            raise ValidationError(f"export {exp.name}: bad function index")
    # Instantiation copies each data segment into the initial memory; a
    # segment that does not fit must fail rather than grow the memory.
    memory_bytes = module.memory_pages[0] * PAGE_SIZE
    for seg in module.data:
        if seg.offset < 0 or seg.offset + len(seg.data) > memory_bytes:
            raise ValidationError(
                f"data segment at {seg.offset} (+{len(seg.data)} bytes) "
                f"out of bounds of {memory_bytes}-byte memory")
