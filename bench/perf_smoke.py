"""Perf-smoke gate: fail CI when the fast paths stop being fast.

Runs the tier and warm-pool scenarios from :mod:`bench.run_bench` and
enforces floors well below the measured speedups, so noise on a shared
CI runner does not flake the gate but a real regression (the fuse tier
slower than table dispatch, warm pool slower than a cold pool) fails it.
Bit-identity is asserted inside each scenario — a warm-pool or fused
run that diverges from serial raises before the floors are checked.

It also caps the largest encoded compile-cache entry: artifacts store
data segments, not a linear-memory image, so an entry that grows past
the ceiling means a memory-sized field crept back into ``X86Program``.
That gate is a byte count, not a timing, so it cannot flake.

Usage::

    PYTHONPATH=src python bench/perf_smoke.py
"""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from run_bench import (                                   # noqa: E402
    bench_compile_cache, bench_parallel_warm, bench_sharded_sweep,
    bench_wasm_fused, bench_x86_fused, bench_x86_fused_spec,
)

#: (scenario, floor): measured speedups of wasm_fused / x86_fused /
#: parallel_warm are recorded in BENCH_repro.json, well above the 1.05x
#: floor, which trips only when an optimization has actually regressed
#: past its baseline, not on timer jitter.  x86_fused_spec gates the
#: x86 block tier on integer code at 1.3x: it measures ~2x, where pair
#: superinstructions managed 1.03x.  The sharded
#: engine cannot beat the single pool on a 1-CPU CI box, so its gate
#: bounds the coordination *overhead* instead (measured ~0.87x of the
#: single-pool time on 1 CPU; the 0.75x floor trips only when the
#: coordinator itself regresses); steal activity and bit-identity are
#: asserted inside the scenario.
GATES = (
    ("wasm_fused", bench_wasm_fused, 1.05),
    ("x86_fused", bench_x86_fused, 1.05),
    ("x86_fused_spec", bench_x86_fused_spec, 1.3),
    ("parallel_warm", bench_parallel_warm, 1.05),
    ("sharded_sweep", lambda: bench_sharded_sweep(force=True), 0.75),
)

#: Largest encoded cache entry allowed (measured ~0.14 MB for the
#: biggest trisolv/bicg program; a 16 MiB memory image would be ~17 MB).
ARTIFACT_BYTES_MAX = 1 << 20


def main() -> int:
    failed = []
    for name, scenario, floor in GATES:
        print(f"[perf-smoke] {name} ...", flush=True)
        result = scenario()
        speedup = result["speedup"]
        verdict = "ok" if speedup >= floor else "FAIL"
        print(f"[perf-smoke]   {speedup:.2f}x (floor {floor:.2f}x) "
              f"{verdict}")
        if speedup < floor:
            failed.append(f"{name}: {speedup:.2f}x is below the "
                          f"{floor:.2f}x floor")
    print("[perf-smoke] compile_cache artifact size ...", flush=True)
    largest = bench_compile_cache()["artifact_bytes_max"]
    verdict = "ok" if largest <= ARTIFACT_BYTES_MAX else "FAIL"
    print(f"[perf-smoke]   {largest} bytes (ceiling {ARTIFACT_BYTES_MAX}) "
          f"{verdict}")
    if largest > ARTIFACT_BYTES_MAX:
        failed.append(f"compile_cache: largest entry {largest} bytes "
                      f"exceeds the {ARTIFACT_BYTES_MAX}-byte ceiling")
    if failed:
        for message in failed:
            print(f"[perf-smoke] {message}", file=sys.stderr)
        return 1
    print("[perf-smoke] all gates passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
