"""Tiered execution: quickening and fusion must be invisible.

The tier model (``--tier off|quicken|fuse``) is a pure speed knob —
every observable output (result values, stdout, perf counters, profile
attribution) must be bit-identical at every tier, on every benchmark,
on every target.  These tests pin that invariant.
"""

import pytest

from conftest import GuestHost, compile_wasm_bytes

from repro import obs
from repro.benchsuite import matmul_spec, polybench_benchmark
from repro.benchsuite.registry import spec_benchmark
from repro.codegen import compile_native
from repro.harness.runner import compile_benchmark, run_compiled
from repro.obs.profile import WasmProfile, profile_benchmark
from repro.tier import (
    DEFAULT_TIER, HOT_CALLS, TIERS, get_tier, set_tier, tier_level,
)
from repro.wasm import WasmInstance, decode_module
from repro.x86.machine import X86Machine

TARGETS = ["native", "chrome", "firefox"]

LOOPY = """
int work(int x) {
    int acc = x; int j;
    for (j = 0; j < 40; j++) {
        acc += j * 3;
        acc -= acc / 7;
        if (acc > 1000) { acc -= 900; }
    }
    return acc;
}
int main(void) {
    int i; int s = 0;
    for (i = 0; i < 30; i++) { s += work(i); }
    print_i32(s);
    return 0;
}
"""


@pytest.fixture(autouse=True)
def _reset_tier():
    yield
    set_tier(None)
    obs.disable_metrics()


# -- the tier registry --------------------------------------------------------------

def test_tier_names_and_levels():
    assert TIERS == ("off", "quicken", "fuse")
    assert tier_level("off") == 0
    assert tier_level("quicken") == 1
    assert tier_level("fuse") == 2


def test_set_tier_round_trip():
    set_tier("quicken")
    assert get_tier() == "quicken"
    set_tier(None)
    assert get_tier() == DEFAULT_TIER


def test_set_tier_rejects_unknown():
    with pytest.raises(ValueError):
        set_tier("turbo")


def test_env_override(monkeypatch):
    monkeypatch.setenv("REPRO_TIER", "off")
    assert get_tier() == "off"
    set_tier("fuse")             # explicit setting wins over the env
    assert get_tier() == "fuse"


# -- bit-identity on the x86 machine ------------------------------------------------

def _run_at_tier(program, heap_base, tier):
    host = GuestHost(heap_base)
    machine = X86Machine(program, host=host, tier=tier)
    rax, _ = machine.call("main")
    return rax & 0xFFFFFFFF, bytes(host.output), machine.perf.as_dict()


def test_x86_tiers_bit_identical():
    program, module = compile_native(LOOPY, "tiertest")
    baseline = _run_at_tier(program, module.heap_base, "off")
    for tier in ("quicken", "fuse"):
        assert _run_at_tier(program, module.heap_base, tier) == baseline


def test_x86_fuse_promotes_hot_functions():
    program, module = compile_native(LOOPY, "tiertest")
    registry = obs.enable_metrics()
    _run_at_tier(program, module.heap_base, "fuse")
    counters = registry.as_dict()["counters"]
    assert counters.get("tier.promotions", 0) > 0
    assert counters.get("tier.fused_ops", 0) > 0


# -- bit-identity on the wasm interpreter -------------------------------------------

def test_wasm_tiers_bit_identical():
    data, _wasm, ir = compile_wasm_bytes(LOOPY)
    module = decode_module(data, "tiertest")
    outs = {}
    for tier in TIERS:
        host = GuestHost(ir.heap_base)
        inst = WasmInstance(module, host=host, tier=tier)
        rc = inst.invoke("main")
        outs[tier] = (rc, bytes(host.output))
    assert outs["quicken"] == outs["off"]
    assert outs["fuse"] == outs["off"]


def test_wasm_fused_profile_attribution_exact():
    """Fused handlers charge their constituent opcodes: the per-opcode
    per-function buckets must match the unfused interpreter exactly."""
    data, _wasm, ir = compile_wasm_bytes(LOOPY)
    module = decode_module(data, "tiertest")
    profiles = {}
    for tier in ("off", "fuse"):
        profile = WasmProfile()
        host = GuestHost(ir.heap_base)
        WasmInstance(module, host=host, profile=profile,
                     tier=tier).invoke("main")
        profiles[tier] = profile
    off, fuse = profiles["off"], profiles["fuse"]
    assert fuse.functions == off.functions
    assert fuse.opcode_instrs == off.opcode_instrs
    assert fuse.total_instrs() == off.total_instrs()


# -- bit-identity across the full measurement stack ---------------------------------

# The SPEC proxies put idiv, setcc, push/pop and movsx in hot blocks.
@pytest.mark.parametrize("name", ["gemm", "bicg", "401.bzip2", "458.sjeng"])
def test_benchmark_cells_bit_identical_across_tiers(name):
    spec = spec_benchmark(name, "test") if name[0].isdigit() \
        else polybench_benchmark(name, "test")
    compiled = compile_benchmark(spec, TARGETS, cache=False)
    cells = {}
    for tier in TIERS:
        set_tier(tier)
        cells[tier] = {
            target: run_compiled(compiled, target, runs=2)
            for target in TARGETS
        }
    for target in TARGETS:
        base = cells["off"][target]
        for tier in ("quicken", "fuse"):
            cell = cells[tier][target]
            assert cell.times == base.times, (name, target, tier)
            assert cell.perf.as_dict() == base.perf.as_dict()
            assert cell.run.stdout == base.run.stdout


def test_verify_totals_with_fusion_enabled():
    """Profile attribution stays exact while fused handlers run."""
    set_tier("fuse")
    comparison = profile_benchmark(matmul_spec(8), target="chrome",
                                   cache=False)
    comparison.verify_totals()
    set_tier("off")
    unfused = profile_benchmark(matmul_spec(8), target="chrome",
                                cache=False)
    unfused.verify_totals()
    fused_rows = [(name, n.as_dict(), t.as_dict())
                  for name, n, t in comparison.function_rows()]
    plain_rows = [(name, n.as_dict(), t.as_dict())
                  for name, n, t in unfused.function_rows()]
    assert fused_rows == plain_rows
