"""Record ``expected.json``: each benchmark's reference output.

    PYTHONPATH=src python3 sweepbench/record_expected.py

The outputs come from the IR reference interpreter (``repro.ir.interp``)
running the unoptimized front-end IR against the same kernel and input
files the harness stages, so no pipeline the sweeps measure checks
itself.  Re-record only when a benchmark's source or inputs change.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def reference_run(spec):
    """(exit code, stdout) of ``spec`` under the IR interpreter."""
    from repro.ir.interp import IRInterpreter
    from repro.kernel import Kernel, NativeRuntime
    from repro.mcc import compile_source

    module = compile_source(spec.source, spec.name,
                            memory_size=spec.memory_size)
    kernel = Kernel()
    spec.setup_kernel(kernel)
    process = kernel.spawn(spec.name)
    runtime = NativeRuntime(kernel, process, module.heap_base)
    rax = IRInterpreter(module, runtime).run("main") or 0
    return rax & 0xFFFFFFFF, runtime.stdout


def main():
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    sys.path.insert(0, HERE)
    from workloads import WORKLOADS, build_specs, ref_key, stdout_digest

    refs = sorted({ref for w in WORKLOADS.values() for ref in w.refs})
    expected = {}
    for ref, spec in zip(refs, build_specs(refs)):
        exit_code, stdout = reference_run(spec)
        expected[ref_key(ref)] = {"exit_code": exit_code,
                                  "stdout_sha256": stdout_digest(stdout)}
        print(ref_key(ref), exit_code, len(stdout), file=sys.stderr)
    with open(os.path.join(HERE, "expected.json"), "w") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
