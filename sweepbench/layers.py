"""Per-layer attribution of a sweep's wall time, from outside the program.

The traced run replaces each layer's public function, at the name its
caller looks it up by, with a shim that times the call.  A call's self
time is its duration minus the time spent in nested shimmed calls, so
``codegen.native`` (which calls ``ir.passes`` and, through lowering,
``regalloc``) is charged only for its own work.  Time inside the sweep
that no shim covers is the harness's own (``harness``).

No program code is changed: :class:`Shims` restores every original
function on exit and checks that it did.
"""

from __future__ import annotations

import importlib
import statistics
import time

#: ``(layer, module, attribute)``: each call site a sweep cell crosses,
#: named where the caller resolves it at call time.
SHIM_POINTS = (
    ("mcc", "repro.harness.runner", "compile_source"),
    ("ir.passes", "repro.harness.runner", "optimize_module"),
    ("ir.passes", "repro.codegen.native", "optimize_module"),
    ("codegen.native", "repro.harness.runner", "compile_ir_native"),
    ("regalloc", "repro.codegen.lower", "linear_scan"),
    ("regalloc", "repro.codegen.lower", "graph_coloring"),
    ("codegen.emscripten", "repro.harness.runner", "compile_ir_to_wasm"),
    ("wasm.binary", "repro.harness.runner", "encode_module"),
    ("jit", "repro.jit.engine", "Engine.compile_bytes"),
    ("compilecache.put", "repro.harness.compilecache", "CompileCache.put"),
    ("compilecache.get", "repro.harness.compilecache", "CompileCache.get"),
    ("execute", "repro.harness.runner", "execute_program"),
    ("kernel", "repro.harness.parallel", "run_compiled"),
)

#: The layer charged with sweep time outside every shim.
ROOT = "harness"

#: Attribute that marks a function as a shim.
SHIM_MARK = "__sweepbench_layer__"


class Tracer:
    """Self time, call counts and per-layer extras of shimmed calls."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.self_s = {}
        self.calls = {}
        #: Stack of child-time accumulators, one per open call.
        self._stack = []
        self.wasm_bytes = 0
        self.sim_instrs = 0
        self.cache_hits = 0
        self.get_seconds = []

    def call(self, layer, fn, args, kwargs):
        """Run ``fn`` as one call into ``layer``."""
        child = [0.0]
        self._stack.append(child)
        start = self.clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            elapsed = self.clock() - start
            self._stack.pop()
            self.self_s[layer] = \
                self.self_s.get(layer, 0.0) + elapsed - child[0]
            self.calls[layer] = self.calls.get(layer, 0) + 1
            if self._stack:
                self._stack[-1][0] += elapsed
        self._observe(layer, result, elapsed)
        return result

    def _observe(self, layer, result, elapsed):
        if layer == "wasm.binary":
            self.wasm_bytes += len(result)
        elif layer == "execute":
            self.sim_instrs += result.perf.instructions
        elif layer == "compilecache.get":
            self.get_seconds.append(elapsed)
            self.cache_hits += result is not None

    def root(self, fn, *args, **kwargs):
        """Run the whole sweep ``fn``; its uncovered time is ``harness``."""
        return self.call(ROOT, fn, args, kwargs)

    def shim(self, layer, fn):
        """``fn`` wrapped so each call is charged to ``layer``."""
        def shim(*args, **kwargs):
            return self.call(layer, fn, args, kwargs)
        shim.__name__ = getattr(fn, "__name__", layer)
        setattr(shim, SHIM_MARK, layer)
        return shim

    def metrics(self, sweep_s: float) -> dict:
        """Per-layer metrics of one traced sweep of ``sweep_s`` seconds."""
        def self_s(layer):
            return self.self_s.get(layer, 0.0)

        def calls(layer):
            return self.calls.get(layer, 0)

        out = {}
        for layer in ("mcc", "ir.passes", "codegen.native", "regalloc",
                      "codegen.emscripten", "wasm.binary", "jit",
                      "compilecache.put", "compilecache.get", "execute",
                      "kernel", ROOT):
            out[f"{layer}.self_s"] = self_s(layer)
        for layer in ("mcc", "ir.passes", "regalloc", "jit",
                      "compilecache.put", "compilecache.get"):
            out[f"{layer}.calls"] = calls(layer)
        out["wasm.binary.bytes"] = self.wasm_bytes
        gets_ms = sorted(s * 1e3 for s in self.get_seconds)
        out["compilecache.get_ms.p50"] = percentile(gets_ms, 50)
        out["compilecache.get_ms.p90"] = percentile(gets_ms, 90)
        out["compilecache.hit_ratio"] = \
            self.cache_hits / calls("compilecache.get") \
            if calls("compilecache.get") else 0.0
        out["execute.sim_instrs"] = self.sim_instrs
        out["execute.sim_mips"] = \
            self.sim_instrs / self_s("execute") / 1e6 \
            if self_s("execute") else 0.0
        out["trace.coverage"] = \
            1.0 - self_s(ROOT) / sweep_s if sweep_s else 0.0
        return out


def percentile(sorted_values, pct):
    """Linear-interpolated percentile of an ascending list (0 if empty)."""
    if not sorted_values:
        return 0.0
    if len(sorted_values) == 1:
        return sorted_values[0]
    return statistics.quantiles(sorted_values, n=100,
                                method="inclusive")[pct - 1]


def _resolve(module, attribute):
    """The object owning ``attribute`` (a module or a class) and its name."""
    owner = importlib.import_module(module)
    path = attribute.split(".")
    for part in path[:-1]:
        owner = getattr(owner, part)
    return owner, path[-1]


class ShimError(RuntimeError):
    """A shim was left installed, or a shim point does not exist."""


class Shims:
    """Install a tracer's shims at ``points`` for the ``with`` block."""

    def __init__(self, tracer: Tracer, points=SHIM_POINTS):
        self.tracer = tracer
        self.points = points
        self._saved = []

    def __enter__(self):
        for layer, module, attribute in self.points:
            owner, name = _resolve(module, attribute)
            original = vars(owner).get(name)
            if original is None:
                self.__exit__(None, None, None)
                raise ShimError(f"no {module}.{attribute} to trace")
            self._saved.append((owner, name, original))
            setattr(owner, name, self.tracer.shim(layer, original))
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)
        self.verify_removed()
        return False

    def verify_removed(self):
        """Raise :class:`ShimError` unless every point holds the
        program's own function again."""
        for _layer, module, attribute in self.points:
            owner, name = _resolve(module, attribute)
            if hasattr(vars(owner).get(name), SHIM_MARK):
                raise ShimError(f"{module}.{attribute} is still shimmed")
