"""Chaos smoke: a fixed-seed injected sweep must complete and be
reproducible.

Runs a small benchmark matrix twice under the same fault-injection mix
and seed, and asserts that

* the sweep completes the full (benchmark, target) matrix both times —
  no escaped exception, no hang;
* the failure manifest (which cells failed, with what status, phase,
  error type, and attempt count) is bit-identical across the two runs;
* a third, multi-process sweep (``jobs=2``, through the shard
  scheduler) yields the same manifest as the in-process ones — set
  ``REPRO_FORCE_JOBS=1`` on a single-CPU host, or ``--jobs 2`` degrades
  to serial and this check compares serial with itself;
* at least one fault actually fired (otherwise the injector is dead
  code and the smoke proves nothing);
* every clean cell's measurements are bit-identical to an uninjected
  run of the same matrix.

Prints the manifest as JSON and exits non-zero on any violation, so CI
can gate on it.

Usage::

    PYTHONPATH=src python bench/chaos_smoke.py [--output chaos.json]
"""

from __future__ import annotations

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.benchsuite import polybench_benchmark          # noqa: E402
from repro.harness.parallel import (                      # noqa: E402
    run_suite, shutdown_warm_pool,
)
from repro.resilience import (                            # noqa: E402
    FaultPlan, RetryPolicy, is_failure,
)

BENCHMARKS = ["trisolv", "bicg", "mvt"]
TARGETS = ["native", "chrome", "firefox"]
INJECT = "trap:0.3,syscall:0.25,fuel:0.1,cache:0.2"
SEED = 20190710  # the paper's USENIX ATC 2019 presentation date
POLICY = RetryPolicy(retries=2, sleep=lambda s: None)


def sweep(plan, jobs=1):
    specs = [polybench_benchmark(name, "test") for name in BENCHMARKS]
    try:
        results, _ = run_suite(specs, TARGETS, runs=2, jobs=jobs,
                               cache=False, tolerant=True, plan=plan,
                               policy=POLICY)
    finally:
        shutdown_warm_pool()
    return results


def manifest(results):
    rows = []
    for name, by_target in sorted(results.items()):
        for target, cell in by_target.items():
            if is_failure(cell):
                rows.append(dict(cell.as_dict("test"), times=None))
            else:
                rows.append({"benchmark": name, "target": target,
                             "status": "OK", "times": cell.times})
    return rows


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--output", default=None, metavar="PATH")
    args = parser.parse_args()

    plan = FaultPlan.parse(INJECT, seed=SEED)
    first = manifest(sweep(plan))
    second = manifest(sweep(plan))
    pooled = manifest(sweep(plan, jobs=2))

    total = len(BENCHMARKS) * len(TARGETS)
    failed = [row for row in first if row["status"] != "OK"]
    errors = []
    if len(first) != total:
        errors.append(f"matrix incomplete: {len(first)}/{total} cells")
    if first != second:
        errors.append("manifest differs across reruns with the same seed")
    if pooled != first:
        errors.append("jobs=2 manifest differs from the jobs=1 manifest")
    if not failed:
        errors.append("no fault fired: injector appears dead")

    clean = manifest(sweep(None))
    clean_by_cell = {(r["benchmark"], r["target"]): r for r in clean}
    for row in first:
        if row["status"] != "OK":
            continue
        ref = clean_by_cell[(row["benchmark"], row["target"])]
        if row["times"] != ref["times"]:
            errors.append(f"clean cell {row['benchmark']}@{row['target']} "
                          "differs from uninjected run")

    payload = {
        "inject": INJECT, "seed": SEED,
        "cells": total, "failed": len(failed),
        "manifest": first, "errors": errors,
    }
    text = json.dumps(payload, indent=2)
    print(text)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text + "\n")
    for error in errors:
        print(f"CHAOS SMOKE FAILED: {error}", file=sys.stderr)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
