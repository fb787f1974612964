"""Self-time accounting and shim removal of the layer tracer.

    python3 -m pytest sweepbench/tests -q
"""

import importlib
import time

import pytest

from layers import ROOT, SHIM_MARK, SHIM_POINTS, ShimError, Shims, Tracer


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_nested_self_time_native_passes_regalloc():
    clock = FakeClock()
    tracer = Tracer(clock)

    def regalloc():
        clock.now += 1.0

    def passes():
        clock.now += 2.0
        tracer.call("regalloc", regalloc, (), {})

    def native():
        clock.now += 4.0
        tracer.call("ir.passes", passes, (), {})
        tracer.call("regalloc", regalloc, (), {})
        clock.now += 8.0

    tracer.root(tracer.call, "codegen.native", native, (), {})
    assert tracer.self_s == {"regalloc": 2.0, "ir.passes": 2.0,
                             "codegen.native": 12.0, ROOT: 0.0}
    assert tracer.calls["regalloc"] == 2
    assert sum(tracer.self_s.values()) == clock.now


def test_nested_self_time_jit_regalloc_and_siblings():
    clock = FakeClock()
    tracer = Tracer(clock)

    def regalloc():
        clock.now += 0.5

    def jit():
        clock.now += 3.0
        tracer.call("regalloc", regalloc, (), {})

    def sweep():
        for _ in range(2):
            tracer.call("jit", jit, (), {})
        clock.now += 0.25

    tracer.root(sweep)
    assert tracer.self_s["jit"] == 6.0
    assert tracer.self_s["regalloc"] == 1.0
    assert tracer.self_s[ROOT] == 0.25
    metrics = tracer.metrics(sweep_s=clock.now)
    assert metrics["trace.coverage"] == pytest.approx(1 - 0.25 / 7.25)


def test_exception_still_charges_the_call():
    clock = FakeClock()
    tracer = Tracer(clock)

    def boom():
        clock.now += 1.0
        raise ValueError("guest fault")

    with pytest.raises(ValueError):
        tracer.root(tracer.call, "execute", boom, (), {})
    assert tracer.self_s == {"execute": 1.0, ROOT: 0.0}
    assert not tracer._stack


def _current(module, attribute):
    owner = importlib.import_module(module)
    *path, name = attribute.split(".")
    for part in path:
        owner = getattr(owner, part)
    return vars(owner)[name]


def test_shims_are_removed_after_the_traced_run():
    originals = {point: _current(*point[1:]) for point in SHIM_POINTS}
    tracer = Tracer()
    with Shims(tracer):
        for point in SHIM_POINTS:
            assert getattr(_current(*point[1:]), SHIM_MARK) == point[0]
    for point, original in originals.items():
        assert _current(*point[1:]) is original


def test_shims_are_removed_when_the_sweep_raises():
    originals = [_current(*point[1:]) for point in SHIM_POINTS]
    with pytest.raises(KeyError):
        with Shims(Tracer()):
            raise KeyError("cell failed")
    assert [_current(*point[1:]) for point in SHIM_POINTS] == originals


def test_verify_removed_catches_a_leftover_shim():
    import repro.harness.runner as runner

    original = runner.execute_program
    shims = Shims(Tracer())
    runner.execute_program = Tracer().shim("execute", original)
    try:
        with pytest.raises(ShimError, match="execute_program"):
            shims.verify_removed()
    finally:
        runner.execute_program = original
    shims.verify_removed()


def test_missing_shim_point_is_an_error_and_leaves_nothing_behind():
    points = SHIM_POINTS[:2] + (("mcc", "repro.harness.runner", "nope"),)
    originals = [_current(*point[1:]) for point in SHIM_POINTS[:2]]
    with pytest.raises(ShimError, match="nope"):
        with Shims(Tracer(), points):
            pass
    assert [_current(*point[1:]) for point in SHIM_POINTS[:2]] == originals


def test_real_compile_attributes_every_layer_without_double_counting():
    from repro.benchsuite import polybench_benchmark
    from repro.harness.parallel import run_suite

    tracer = Tracer()
    with Shims(tracer):
        start = time.perf_counter()
        results, _ = tracer.root(
            run_suite, [polybench_benchmark("trisolv", "test")],
            ["native", "chrome", "firefox"], jobs=1, cache=False)
        outer = time.perf_counter() - start
    # Self times partition the sweep: nothing counted twice or lost.
    assert outer - 0.01 <= sum(tracer.self_s.values()) <= outer
    for layer in ("mcc", "ir.passes", "codegen.native", "regalloc",
                  "codegen.emscripten", "wasm.binary", "jit", "execute",
                  "kernel"):
        assert tracer.self_s[layer] > 0, layer
    assert tracer.self_s[ROOT] >= 0
    # One native and one wasm front-end compile; both jit engines and
    # the native backend allocate registers.
    assert tracer.calls["mcc"] == 2
    assert tracer.calls["jit"] == 2
    assert tracer.calls["regalloc"] >= 3
    assert tracer.sim_instrs == sum(
        r.run.perf.instructions for r in results["trisolv"].values())

