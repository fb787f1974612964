"""The sweep benchmark's workloads, and the checks on their outputs.

Each workload is a paper sweep: a list of benchmark references crossed
with every target of ``repro.harness.runner.TARGETS``, a worker count,
and whether the compile cache is filled before the timed sweep.

* ``poly-test-cold`` is the cold ``repro report fig3a`` a developer pays
  after every toolchain edit (the fingerprint changes, so nothing hits):
  compile layers and ``compilecache.put`` dominate.
* ``spec06-ref-warm`` is the paper's headline SPEC CPU2006 campaign
  re-run on a filled cache: simulated execution dominates.  641.leela_s
  and 644.nab_s are left out only for run length (each alone would set
  the sweep's makespan); ``suite-test-warm-serial`` still runs them.
* ``suite-test-warm-serial`` re-renders fig3a + fig3b at ``test`` size
  serially from a filled disk cache with an empty memory tier, the way
  a ``repro report`` re-run does: cache reads and execution share it,
  and there is no scheduler at all.

The seed only permutes benchmark order.  The harness guarantees
bit-identical results under any order, which the simulated-counter
digest below lets a run verify.
"""

from __future__ import annotations

import hashlib
import json
import random

POLYBENCH = (
    "2mm", "3mm", "adi", "bicg", "cholesky", "correlation", "covariance",
    "doitgen", "durbin", "fdtd-2d", "gemm", "gemver", "gesummv",
    "gramschmidt", "lu", "ludcmp", "mvt", "seidel-2d", "symm", "syr2k",
    "syrk", "trisolv", "trmm",
)
SPEC2006 = (
    "401.bzip2", "429.mcf", "433.milc", "444.namd", "445.gobmk",
    "450.soplex", "453.povray", "458.sjeng", "462.libquantum",
    "464.h264ref", "470.lbm", "473.astar", "482.sphinx3",
)
SPEC2017 = ("641.leela_s", "644.nab_s")

#: ``repro.harness.runner.TARGETS``, which ``sweep.py`` checks against.
TARGETS = ("native", "chrome", "firefox")


class Workload:
    """One sweep: benchmark refs x all targets at a worker count."""

    def __init__(self, name, refs, jobs, warm):
        self.name = name
        #: ``(suite, benchmark, size)`` triples, in paper order.
        self.refs = tuple(refs)
        self.jobs = jobs
        #: Whether setup fills the disk cache before the timed sweep.
        self.warm = warm


WORKLOADS = {w.name: w for w in (
    Workload("poly-test-cold",
             [("polybench", n, "test") for n in POLYBENCH],
             jobs=2, warm=False),
    Workload("spec06-ref-warm",
             [("spec", n, "ref") for n in SPEC2006],
             jobs=2, warm=True),
    Workload("suite-test-warm-serial",
             [("polybench", n, "test") for n in POLYBENCH]
             + [("spec", n, "test") for n in SPEC2006 + SPEC2017],
             jobs=1, warm=True),
)}


def permuted(refs, seed: int):
    """``refs`` in the benchmark order seed ``seed`` selects."""
    return random.Random(seed).sample(list(refs), len(refs))


def ref_key(ref) -> str:
    """The key of a benchmark reference in ``expected.json``."""
    return "/".join(ref)


def build_specs(refs):
    """Benchmark specs for ``refs`` through the public registry."""
    from repro.benchsuite import polybench_benchmark, spec_benchmark

    builders = {"polybench": polybench_benchmark, "spec": spec_benchmark}
    return [builders[suite](name, size) for suite, name, size in refs]


def stdout_digest(stdout: bytes) -> str:
    return hashlib.sha256(bytes(stdout)).hexdigest()


def check_cells(refs, targets, results, expected):
    """Compare every cell against the recorded reference output.

    ``results`` maps benchmark name -> target -> ``BenchResult`` (what
    ``run_suite`` returns); ``expected`` maps :func:`ref_key` to the
    ``stdout_sha256``/``exit_code`` the IR reference interpreter
    produced.  Returns ``"name@target"`` for every cell that differs
    from it or is missing.
    """
    mismatches = []
    for ref in refs:
        want = expected[ref_key(ref)]
        for target in targets:
            result = results.get(ref[1], {}).get(target)
            if result is None or \
                    result.run.exit_code != want["exit_code"] or \
                    stdout_digest(result.run.stdout) != \
                    want["stdout_sha256"]:
                mismatches.append(f"{ref[1]}@{target}")
    return mismatches


def cell_counters(result) -> dict:
    """The simulated measurements of one cell: the paper's numbers."""
    run = result.run
    counters = run.perf.as_dict(run.icache_misses)
    counters.update(icache_accesses=run.icache_accesses,
                    overhead_cycles=run.overhead_cycles,
                    syscalls=run.syscalls,
                    total_seconds=run.total_seconds,
                    times=list(result.times))
    return counters


def sim_digest(results) -> str:
    """SHA-256 over every cell's simulated counters, in a fixed order.

    Independent of benchmark order, worker count and which process ran
    a cell; a speed-only change must leave it unchanged.
    """
    rows = [[name, target, cell_counters(results[name][target])]
            for name in sorted(results)
            for target in sorted(results[name])]
    blob = json.dumps(rows, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()
