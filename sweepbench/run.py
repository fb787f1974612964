"""The sweep benchmark: paper sweeps timed end to end and split by layer.

    python3 sweepbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Workloads are defined in
:mod:`workloads`; each sweep runs in a fresh ``sweep.py`` process, so
every repetition starts with an empty memory tier and a fresh worker
pool, as a ``repro report`` re-run does.  Warm workloads first fill a
disk cache from two separate ``fill`` processes.  Every run uses its own
``REPRO_CACHE_DIR`` under ``.sweepbench-work/`` and deletes it.

``--trace 0`` repeats the sweep until ``--seconds`` of sweep time are
measured (at least twice) and reports medians:

* ``sweep_s``: wall seconds of the timed sweep;
* ``setup_s``: the fill (warm workloads) plus the sweep process's
  start, imports, toolchain fingerprint and spec construction;
* ``peak_rss_mb``: peak RSS of the largest process, parent or worker;
* ``cache_disk_mb``: bytes in the cache directory after the sweep;
* ``ok_ratio``: cells whose output matches ``expected.json`` over cells
  attempted (a mismatch, exception or timeout fails a cell).

``--trace 1`` adds one serial, in-process traced sweep and reports the
per-layer split of :class:`layers.Tracer`, plus ``compilecache.put.mb``,
``harness.parallel.efficiency`` (traced serial busy time over jobs x
untraced ``sweep_s``) and ``trace.overhead_ratio`` (traced over
untraced ``sweep_s``; the same schedule only on serial workloads).

Every sweep prints a SHA-256 over all cells' simulated counters.  The
run fails its correctness check unless the digest is identical across
the repetitions and the traced run (``--jobs 1`` against ``--jobs 2`` on
the parallel workloads).  The last line of standard output is the JSON
result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SWEEP = os.path.join(HERE, "sweep.py")

sys.path.insert(0, HERE)
from workloads import TARGETS, WORKLOADS  # noqa: E402

#: Wall-clock budget of one run, below the 180 s a run may take.
BUDGET_S = 165.0
MIN_REPS = 2
MAX_REPS = 6
#: Setup-only processes per run, on top of each sweep's own setup.
SETUP_PROBES = 3
FILL_PROCESSES = 2
MB = 1e6


class ChildFailed(RuntimeError):
    """A fill or sweep process crashed, timed out or printed no result."""


def spawn(args, cache_dir):
    """Start ``sweep.py args`` with a clean ``REPRO_*`` environment.

    The child leads its own process group, so stopping the group also
    stops its pool workers.
    """
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("REPRO_")}
    env["REPRO_CACHE_DIR"] = cache_dir
    return subprocess.Popen([sys.executable, SWEEP] + args, env=env,
                            stdout=subprocess.PIPE, cwd=ROOT,
                            start_new_session=True)


def wait_child(proc, deadline):
    """The JSON result of ``proc``; :class:`ChildFailed` if it has none
    by ``deadline`` (a ``time.monotonic`` value)."""
    try:
        out, _ = proc.communicate(
            timeout=max(deadline - time.monotonic(), 0.1))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise ChildFailed(f"timed out: {proc.args[2:]}") from None
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)  # stray workers, if any
        except ProcessLookupError:
            pass
    lines = out.decode(errors="replace").strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"exit {proc.returncode}: {proc.args[2:]}")
    return json.loads(lines[-1])


def dir_bytes(path: str) -> int:
    """Bytes in the files under ``path``."""
    return sum(os.lstat(os.path.join(dirpath, name)).st_size
               for dirpath, _dirs, names in os.walk(path)
               for name in names)


class Run:
    """One benchmark run: setup, repeated sweeps, optional traced sweep."""

    def __init__(self, workload, seed, seconds, workdir):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.workdir = workdir
        self.deadline = time.monotonic() + BUDGET_S
        self.attempted = 0
        self.failed = 0
        self.digests = set()
        self.errors = []

    def fresh_dir(self):
        return tempfile.mkdtemp(prefix="cache-", dir=self.workdir)

    def fill(self, cache_dir):
        """Fill ``cache_dir`` for a warm workload; returns seconds."""
        start = time.perf_counter()
        procs = [spawn(["fill", "--workload", self.workload.name,
                        "--part", str(i), "--parts", str(FILL_PROCESSES)],
                       cache_dir)
                 for i in range(FILL_PROCESSES)]
        try:
            for proc in procs:
                wait_child(proc, self.deadline)
        finally:
            for proc in procs:
                if proc.poll() is None:
                    os.killpg(proc.pid, signal.SIGKILL)
                    proc.wait()
        return time.perf_counter() - start

    def sweep(self, cache_dir, trace=False):
        """One sweep in a fresh process; None if it failed."""
        args = ["sweep", "--workload", self.workload.name,
                "--seed", str(self.seed)] + (["--trace"] if trace else [])
        spawned = time.time()
        cells = len(self.workload.refs) * len(TARGETS)
        self.attempted += cells
        try:
            out = wait_child(spawn(args, cache_dir), self.deadline)
        except ChildFailed as exc:
            self.failed += cells
            self.errors.append(str(exc))
            return None
        self.failed += len(out["mismatches"])
        self.errors += [f"output mismatch: {cell}"
                        for cell in out["mismatches"]]
        self.digests.add(out["digest"])
        out["setup_s"] = out["ready"] - spawned
        out["disk_mb"] = dir_bytes(cache_dir) / MB
        print(f"{'traced ' if trace else ''}sweep: "
              f"setup {out['setup_s']:.3f} s, sweep {out['sweep_s']:.3f} s, "
              f"rss {out['rss_kib'] * 1024 / MB:.0f} MB, "
              f"cache {out['disk_mb']:.1f} MB, digest {out['digest']}",
              flush=True)
        return out

    def setups(self, cache_dir):
        """Setup seconds of :data:`SETUP_PROBES` processes that stop
        where a sweep would start."""
        samples = []
        for _ in range(SETUP_PROBES):
            spawned = time.time()
            try:
                out = wait_child(spawn(["setup", "--workload",
                                        self.workload.name, "--seed",
                                        str(self.seed)], cache_dir),
                                 self.deadline)
            except ChildFailed as exc:
                self.errors.append(str(exc))
                break
            samples.append(out["ready"] - spawned)
        return samples

    def repeat(self, warm_dir):
        """Untraced sweeps until ``seconds`` of sweep time are measured."""
        reps = []
        while True:
            cache_dir = warm_dir or self.fresh_dir()
            started = time.monotonic()
            out = self.sweep(cache_dir)
            if not warm_dir:
                shutil.rmtree(cache_dir, ignore_errors=True)
            if out is None:
                return reps
            reps.append(out)
            measured = sum(r["sweep_s"] for r in reps)
            if len(reps) >= MIN_REPS and (measured >= self.seconds
                                          or len(reps) >= MAX_REPS):
                return reps
            last = time.monotonic() - started
            if time.monotonic() + 1.5 * last > self.deadline:
                return reps

    def measure(self, trace):
        setups = [] if trace else self.setups(self.workdir)
        warm_dir = self.fresh_dir() if self.workload.warm else None
        try:
            fill_s = self.fill(warm_dir) if warm_dir else 0.0
        except ChildFailed as exc:
            cells = len(self.workload.refs) * len(TARGETS)
            self.attempted += cells
            self.failed += cells
            self.errors.append(f"cache fill failed: {exc}")
            return self.layer_metrics(None, []) if trace \
                else self.end_to_end(0.0, [], [])
        traced = None
        if trace:
            traced_dir = warm_dir or self.fresh_dir()
            before = dir_bytes(traced_dir)
            traced = self.sweep(traced_dir, trace=True)
            if traced is not None:
                traced["layers"]["compilecache.put.mb"] = \
                    (traced["disk_mb"] * MB - before) / MB
            if not warm_dir:
                shutil.rmtree(traced_dir, ignore_errors=True)
        reps = self.repeat(warm_dir)
        if len(self.digests) > 1:
            self.errors.append(
                f"simulated-counter digest differs between sweeps: "
                f"{sorted(self.digests)}")
        if self.digests:
            print(f"sim_digest {self.workload.name} "
                  f"{' '.join(sorted(self.digests))}", flush=True)
        if trace:
            return self.layer_metrics(traced, reps)
        return self.end_to_end(fill_s, setups + [r["setup_s"] for r in reps],
                               reps)

    def end_to_end(self, fill_s, setups, reps):
        def med(key):
            return statistics.median(r[key] for r in reps) if reps else 0.0
        return {
            "sweep_s": (med("sweep_s"), "s"),
            "setup_s": (fill_s + (statistics.median(setups)
                                  if setups else 0.0), "s"),
            "peak_rss_mb": (med("rss_kib") * 1024 / MB, "MB"),
            "cache_disk_mb": (med("disk_mb"), "MB"),
            "ok_ratio": ((self.attempted - self.failed) / self.attempted,
                         "ratio"),
        }

    def layer_metrics(self, traced, reps):
        layers = dict(traced["layers"]) if traced else {}
        if traced and reps:
            untraced = statistics.median(r["sweep_s"] for r in reps)
            layers["harness.parallel.efficiency"] = \
                traced["sweep_s"] / (self.workload.jobs * untraced)
            layers["trace.overhead_ratio"] = traced["sweep_s"] / untraced
        return {name: (layers.get(name, 0.0), unit)
                for name, unit in LAYER_UNITS.items()}


#: Unit of every per-layer metric ``--trace 1`` prints.
LAYER_UNITS = {
    "mcc.self_s": "s", "mcc.calls": "count",
    "ir.passes.self_s": "s", "ir.passes.calls": "count",
    "codegen.native.self_s": "s",
    "regalloc.self_s": "s", "regalloc.calls": "count",
    "codegen.emscripten.self_s": "s",
    "wasm.binary.self_s": "s", "wasm.binary.bytes": "bytes",
    "jit.self_s": "s", "jit.calls": "count",
    "compilecache.put.self_s": "s", "compilecache.put.calls": "count",
    "compilecache.put.mb": "MB",
    "compilecache.get.self_s": "s", "compilecache.get.calls": "count",
    "compilecache.get_ms.p50": "ms", "compilecache.get_ms.p90": "ms",
    "compilecache.hit_ratio": "ratio",
    "execute.self_s": "s", "execute.sim_instrs": "count",
    "execute.sim_mips": "Minstr/s",
    "kernel.self_s": "s", "harness.self_s": "s",
    "harness.parallel.efficiency": "ratio",
    "trace.overhead_ratio": "ratio", "trace.coverage": "ratio",
}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    for needed in (os.path.join(ROOT, "src", "repro", "__init__.py"),
                   os.path.join(HERE, "expected.json")):
        if not os.path.isfile(needed):
            print(f"sweepbench: {needed} is missing; run from the root "
                  f"of a full checkout", file=sys.stderr)
            return 2

    workroot = os.path.join(ROOT, ".sweepbench-work")
    os.makedirs(workroot, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=workroot)
    try:
        run = Run(WORKLOADS[args.workload], args.seed, args.seconds,
                  workdir)
        metrics = run.measure(bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for error in run.errors:
        print(f"sweepbench: {error}", file=sys.stderr)
    print(json.dumps({
        "correct": run.failed == 0 and not run.errors,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
