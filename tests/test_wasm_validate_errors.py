"""wasm validator error paths: each rejection fires with the exact
diagnostic, on hand-built modules."""

import pytest

from repro.errors import ValidationError
from repro.jit import CHROME_ENGINE
from repro.wasm.binary import encode_module
from repro.wasm.interp import WasmInstance
from repro.wasm.module import (WasmFuncType, WasmFunction, WasmModule)
from repro.wasm.opcodes import WasmInstr
from repro.wasm.text import parse_wat
from repro.wasm.validate import validate_module


def _module(body, params=(), results=("i32",), locals_=(), name="f"):
    module = WasmModule("test")
    module.types.append(WasmFuncType(params, results))
    module.functions.append(
        WasmFunction(0, locals_=locals_, body=list(body), name=name))
    return module


def _err(module) -> str:
    with pytest.raises(ValidationError) as excinfo:
        validate_module(module)
    return str(excinfo.value)


def test_stack_underflow_exact_message():
    # i32.add with only one operand on the stack.
    module = _module([
        WasmInstr("i32.const", 1),
        WasmInstr("i32.add"),
    ])
    assert _err(module) == "f: stack underflow (expected i32)"


def test_br_if_condition_type_mismatch_exact_message():
    # br_if pops an i32 condition; an f64 is on top instead.
    module = _module([
        WasmInstr("block", None),
        WasmInstr("f64.const", 1.0),
        WasmInstr("br_if", 0),
        WasmInstr("end"),
        WasmInstr("i32.const", 0),
    ])
    assert _err(module) == "f: type mismatch: expected i32, got f64"


def test_br_if_label_type_mismatch():
    # The target label carries an i32 result; the stack has an f64
    # beneath the condition.
    module = _module([
        WasmInstr("block", "i32"),
        WasmInstr("f64.const", 1.0),
        WasmInstr("i32.const", 1),
        WasmInstr("br_if", 0),
        WasmInstr("end"),
    ])
    assert _err(module) == "f: type mismatch: expected i32, got f64"


def test_bad_alignment_exact_message():
    # i32.load is 4 bytes wide; alignment 2**3 = 8 exceeds it.
    module = _module([
        WasmInstr("i32.const", 0),
        WasmInstr("i32.load", 3, 0),
    ])
    assert _err(module) == "f: i32.load: alignment 2**3 exceeds width"


def test_call_arity_underflow():
    # Function 0 takes two i32 params; only one is on the stack.
    module = WasmModule("test")
    module.types.append(WasmFuncType(("i32", "i32"), ("i32",)))
    module.types.append(WasmFuncType((), ("i32",)))
    module.functions.append(WasmFunction(0, body=[
        WasmInstr("local.get", 0),
        WasmInstr("local.get", 1),
        WasmInstr("i32.add"),
    ], name="callee"))
    module.functions.append(WasmFunction(1, body=[
        WasmInstr("i32.const", 7),
        WasmInstr("call", 0),
    ], name="caller"))
    assert _err(module) == "caller: stack underflow (expected i32)"


def test_call_index_out_of_range():
    module = _module([
        WasmInstr("call", 5),
    ])
    assert _err(module) == "f: call to function index 5 out of range"


def test_branch_depth_out_of_range():
    module = _module([
        WasmInstr("br", 2),
    ], results=())
    assert _err(module) == "f: branch depth 2 out of range"


def test_local_index_out_of_range():
    module = _module([
        WasmInstr("local.get", 3),
    ], locals_=("i32",))
    assert _err(module) == "f: local index 3 out of range"


def test_stack_height_mismatch_at_end():
    # A value left behind in a void block.
    module = _module([
        WasmInstr("block", None),
        WasmInstr("i32.const", 1),
        WasmInstr("end"),
        WasmInstr("i32.const", 0),
    ])
    assert _err(module) == "f: stack height mismatch at end of block"


def test_valid_module_accepted():
    module = _module([
        WasmInstr("i32.const", 1),
        WasmInstr("i32.const", 2),
        WasmInstr("i32.add"),
    ])
    validate_module(module)  # must not raise


def test_out_of_bounds_data_segment_rejected():
    # 65530 + 16 bytes overruns the single 64 KiB page; instantiation
    # must fail instead of growing memory (or, in the JIT, writing past
    # linear memory into the machine stack).
    module = parse_wat(
        '(module (memory 1) (data (i32.const 65530) "ABCDEFGHIJKLMNOP"))')
    expected = ("data segment at 65530 (+16 bytes) out of bounds of "
                "65536-byte memory")
    assert _err(module) == expected
    with pytest.raises(ValidationError, match="out of bounds"):
        WasmInstance(module)
    with pytest.raises(ValidationError, match="out of bounds"):
        CHROME_ENGINE.compile_bytes(encode_module(module))


def test_data_segment_ending_at_memory_end_accepted():
    module = parse_wat(
        '(module (memory 1) (data (i32.const 65520) "ABCDEFGHIJKLMNOP"))')
    validate_module(module)  # must not raise
    assert WasmInstance(module).memory[-16:] == b"ABCDEFGHIJKLMNOP"
