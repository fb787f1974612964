"""One process of the sweep benchmark: a cache fill, a setup or a sweep.

    python3 sweepbench/sweep.py fill  --workload W --part I --parts N
    python3 sweepbench/sweep.py sweep --workload W --seed S [--trace]
    python3 sweepbench/sweep.py setup --workload W --seed S

All read the compile-cache directory from ``REPRO_CACHE_DIR``, which
``run.py`` points at a fresh directory inside the checkout.  The last
line of standard output is one JSON object for ``run.py``.

``setup`` stops where ``sweep`` would start timing.  ``sweep`` drives
the cells through ``repro.harness.parallel.run_suite`` the way
``repro report`` does; with ``--trace`` it runs them serially in
this process under the layer shims of :mod:`layers`.  Cache and
optimizer counters are never read from the registry: under ``--jobs``
the workers' registries never reach this process.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
EXPECTED = os.path.join(HERE, "expected.json")


def _fill(workload, part, parts):
    """Compile this part's share of the workload into the disk cache."""
    from repro.harness.compilecache import CompileCache, default_cache_dir
    from repro.harness.runner import TARGETS, compile_benchmark
    from workloads import build_specs

    for spec in build_specs(workload.refs[part::parts]):
        # A cache object per benchmark keeps this process's memory tier
        # from holding every artifact at once.
        compile_benchmark(spec, TARGETS, cache=CompileCache(
            default_cache_dir()))
    return {}


def _setup(workload, seed):
    """Everything a sweep does before it starts: imports, toolchain
    fingerprint, expected outputs and specs in seed order."""
    from repro.harness import compilecache, parallel  # noqa: F401
    from repro.harness.runner import TARGETS
    from workloads import TARGETS as WANT_TARGETS, build_specs, permuted

    if tuple(TARGETS) != WANT_TARGETS:
        raise SystemExit(f"harness targets {TARGETS} are not the "
                         f"workloads' {WANT_TARGETS}")
    with open(EXPECTED) as fh:
        expected = json.load(fh)
    refs = permuted(workload.refs, seed)
    specs = build_specs(refs)
    compilecache.toolchain_fingerprint()
    return refs, specs, expected, time.time()


def _sweep(workload, seed, trace):
    refs, specs, expected, ready = _setup(workload, seed)
    from repro.harness.parallel import run_suite, shutdown_warm_pool
    from repro.harness.runner import TARGETS
    from layers import Shims, Tracer
    from workloads import check_cells, sim_digest

    out = {"ready": ready}
    start = time.perf_counter()
    if trace:
        tracer = Tracer()
        with Shims(tracer):
            results, _ = tracer.root(run_suite, specs, TARGETS, jobs=1)
        out["sweep_s"] = time.perf_counter() - start
        out["layers"] = tracer.metrics(out["sweep_s"])
    else:
        try:
            results, _ = run_suite(specs, TARGETS, jobs=workload.jobs)
            out["sweep_s"] = time.perf_counter() - start
        finally:
            shutdown_warm_pool()
    out["mismatches"] = check_cells(refs, TARGETS, results, expected)
    out["digest"] = sim_digest(results)
    out["rss_kib"] = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("fill", "setup", "sweep"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--part", type=int, default=0)
    parser.add_argument("--parts", type=int, default=1)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    if not os.environ.get("REPRO_CACHE_DIR"):
        # Never fall back to the user's unbounded ~/.cache/repro.
        parser.error("REPRO_CACHE_DIR must name the run's cache directory")
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    if args.mode == "fill":
        out = _fill(workload, args.part, args.parts)
    elif args.mode == "setup":
        out = {"ready": _setup(workload, args.seed)[-1]}
    else:
        out = _sweep(workload, args.seed, args.trace)
    print(json.dumps(out), flush=True)


if __name__ == "__main__":
    main()
