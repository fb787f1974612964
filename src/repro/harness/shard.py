"""Sharded sweep engine: a work-stealing coordinator over warm pools.

This is the one multi-process path of :func:`repro.harness.parallel.
run_suite`, for fast and tolerant sweeps at every shard count.  The full
benchmark matrix (benchmark x target x size x tier x seed) is
embarrassingly shardable, but a single pool is one scheduling domain:
every worker pulls from one parent-side queue, and one slow cell at the
end of the sweep leaves the rest of the pool idle.  This module scales
the sweep *out* instead of just up:

* **Shards.**  ``--shards N`` partitions the ``--jobs`` workers into N
  addressable :class:`ShardPool`\\ s (persistent fork pools, forked once
  and kept warm across sweeps; ``N=1`` is one pool with nothing to
  steal).  Cells are dealt to per-shard deques in contiguous
  suite-order slices, so a shard works a compact region of the matrix
  and repeated sweeps hit the same pool with a warm compile cache.

* **Work stealing.**  A shard that drains its own deque does not go
  idle: it steals from the *tail* of the richest victim's deque
  (classic Cilk-style stealing, parent-arbitrated).  Static slices give
  locality; stealing gives load balance under skew.  Counted as
  ``shard.steals``.

* **Straggler re-dispatch.**  Completed-cell durations feed a running
  p99; an in-flight cell that exceeds ``REPRO_STRAGGLER_FACTOR``
  (default 4) times that p99 while workers sit idle is speculatively
  re-issued.  First result wins; the loser is cancelled (terminated and
  its worker respawned).  Counted as ``shard.redispatches`` /
  ``shard.redispatch_wins`` / ``shard.cancelled``.

* **Crash re-queue.**  A dying worker kills one *dispatch*, never the
  sweep: the cell is re-queued at the head of its home shard, the
  worker is respawned (``shard.worker_respawns``), and only a cell that
  keeps killing workers past its retry budget surfaces — as a
  ``worker``-phase :class:`~repro.resilience.CellFailure` in tolerant
  mode, or a :class:`~repro.errors.WorkerCrashError` otherwise.  The
  ``worker`` fault point draws in a per-dispatch
  ``"{name}:{target}:w{incarnation}"`` scope, so injected crash/respawn
  sequences are a pure function of the seed, not of shard count or
  steal order.

* **Hang watchdog.**  In tolerant mode a cell still in flight
  ``2 * timeout + 1`` seconds after dispatch hung outside the
  instrumented loop (the in-machine deadline normally fires first):
  its worker and any speculative copies are terminated and respawned,
  and the cell is recorded once as an ``execute``-phase
  :class:`~repro.errors.CellTimeout` failure.

* **Deterministic merge.**  Results are keyed by (benchmark, target)
  and reassembled in suite order by the caller; every cell is a
  deterministic simulation with per-cell seeded noise, so the merged
  ``SuiteData`` is bit-identical to a serial run no matter the shard
  count, steal schedule, crash pattern, or which speculative copy wins.
"""

from __future__ import annotations

import atexit
import collections
import os
import sys
import time

from ..errors import CellTimeout, WorkerCrashError
from ..obs import get_registry
from . import compilecache
from .parallel import resolve_ref
from .stats import p99

#: Hard ceiling on shard count; each shard needs at least one worker.
MAX_SHARDS = 8

#: Auto-selected shard width: one shard per this many workers.
AUTO_SHARD_WIDTH = 4

#: An in-flight cell becomes a straggler at ``factor * p99`` of the
#: completed-cell durations (override via ``REPRO_STRAGGLER_FACTOR``).
STRAGGLER_FACTOR = 4.0

#: Completed cells needed before the p99 deadline is trusted at all.
STRAGGLER_MIN_SAMPLES = 3

#: Seconds granted to in-flight cells when draining after an error.
DRAIN_SECONDS = 10.0


def normalize_shards(shards, jobs: int) -> int:
    """Resolve a ``--shards`` request against the effective ``jobs``.

    ``None`` auto-selects one shard per :data:`AUTO_SHARD_WIDTH`
    workers, so small sweeps run one pool (nothing to steal, no
    cross-shard traffic) and big boxes shard automatically.  Explicit
    requests are clamped so every shard owns at least one worker.
    """
    if jobs <= 1:
        return 1
    if shards is None:
        return max(1, min(jobs // AUTO_SHARD_WIDTH, MAX_SHARDS))
    return max(1, min(int(shards), jobs, MAX_SHARDS))


def shard_widths(shards: int, jobs: int):
    """Worker count per shard: ``jobs`` split as evenly as possible."""
    base, extra = divmod(max(jobs, shards), shards)
    return [base + (1 if i < extra else 0) for i in range(shards)]


def straggler_factor() -> float:
    try:
        return float(os.environ.get("REPRO_STRAGGLER_FACTOR",
                                    STRAGGLER_FACTOR))
    except ValueError:
        return STRAGGLER_FACTOR


# -- the shard worker --------------------------------------------------------------

def _shard_worker_main(conn):
    """Loop of one persistent shard worker: recv job, measure, reply.

    Jobs carry ``use_cache`` and ``tier`` (process-global state a
    persistent worker must not carry over between sweeps) plus the
    dispatch ``incarnation`` so the ``worker`` fault point draws in a
    per-incarnation scope: a respawned dispatch re-draws.
    Tolerant jobs run through :func:`repro.resilience.measure_cell`
    (fuel/deadline watchdogs, classification, bounded in-worker retry)
    and reply ``fail`` with a CellFailure instead of raising.
    """
    from ..tier import set_tier

    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError, KeyboardInterrupt):
            break
        if msg is None:
            break
        job_id, p = msg
        start = time.time()
        try:
            compilecache.set_enabled(p["use_cache"])
            set_tier(p["tier"])
            plan = p.get("plan")
            if plan is not None:
                from ..resilience import faults
                scope_name = (f"{p['name']}:{p['target']}"
                              f":w{p['incarnation']}")
                with faults.scope(plan, scope_name) as injector:
                    if injector.should("worker"):
                        conn.close()
                        os._exit(17)  # die unreported, like a real crash
            spec = resolve_ref(p["ref"])
            if p.get("tolerant"):
                from ..resilience import RetryPolicy, measure_cell
                policy = RetryPolicy(retries=p["retries"],
                                     jitter=p.get("retry_jitter", 0.0),
                                     seed=p.get("retry_seed", 0))
                result, failure, seconds, attempts = measure_cell(
                    spec, p["target"], runs=p["runs"], noise=p["noise"],
                    max_instructions=p["max_instructions"], plan=plan,
                    policy=policy, timeout=p["timeout"])
                timing = {"pid": os.getpid(), "start": start,
                          "seconds": time.time() - start}
                if failure is not None:
                    conn.send((job_id, "fail",
                               (failure, seconds, attempts), timing))
                else:
                    conn.send((job_id, "ok",
                               (result, seconds, attempts), timing))
            else:
                from .runner import compile_benchmark, run_compiled
                compiled = compile_benchmark(spec, (p["target"],))
                result = run_compiled(
                    compiled, p["target"], runs=p["runs"], noise=p["noise"],
                    max_instructions=p["max_instructions"])
                timing = {"pid": os.getpid(), "start": start,
                          "seconds": time.time() - start}
                conn.send((job_id, "ok",
                           (result, dict(compiled.compile_seconds), 1),
                           timing))
        except KeyboardInterrupt:
            os._exit(130)
        except BaseException as exc:
            try:
                conn.send((job_id, "err", exc, None))
            except Exception:
                os._exit(1)


class ShardPool:
    """One addressable shard: a persistent fork pool of workers."""

    def __init__(self, shard_id: int, width: int, ctx=None):
        if ctx is None:
            import multiprocessing as mp
            try:
                ctx = mp.get_context("fork")
            except ValueError:  # pragma: no cover - non-POSIX fallback
                ctx = mp.get_context()
        self.shard_id = shard_id
        self.width = width
        self.ctx = ctx
        self.workers = []
        for _ in range(width):
            self._spawn()

    def _spawn(self):
        parent_conn, child_conn = self.ctx.Pipe(duplex=True)
        proc = self.ctx.Process(target=_shard_worker_main,
                                args=(child_conn,), daemon=True)
        proc.start()
        child_conn.close()
        worker = {"proc": proc, "conn": parent_conn, "shard": self.shard_id}
        self.workers.append(worker)
        return worker

    def replace(self, worker):
        """Retire ``worker`` (dead or cancelled) and fork a fresh one.

        Returns ``(exit_code, fresh_worker)``; the exit code of the
        retired process distinguishes injected deaths (17) from real
        crashes for the failure taxonomy.
        """
        proc = worker["proc"]
        if proc.is_alive():
            proc.terminate()
        proc.join(timeout=2.0)
        code = proc.exitcode
        try:
            worker["conn"].close()
        except OSError:
            pass
        self.workers.remove(worker)
        return code, self._spawn()

    def alive(self) -> bool:
        return len(self.workers) == self.width and \
            all(w["proc"].is_alive() for w in self.workers)

    def shutdown(self):
        for w in self.workers:
            try:
                w["conn"].send(None)
            except (OSError, ValueError, BrokenPipeError):
                pass
        for w in self.workers:
            try:
                w["conn"].close()
            except OSError:
                pass
        for w in self.workers:
            w["proc"].join(timeout=1.0)
            if w["proc"].is_alive():
                w["proc"].terminate()
                w["proc"].join(timeout=1.0)
        self.workers = []


# -- the persistent shard-pool set -------------------------------------------------

_SHARDS = None  # {"shards": int, "jobs": int, "pools": [ShardPool]}


def get_shard_pools(shards: int, jobs: int):
    """The process-wide shard pools, rebuilt only when the shape
    changes or a worker died outside the scheduler's control."""
    global _SHARDS
    if _SHARDS is not None and _SHARDS["shards"] == shards \
            and _SHARDS["jobs"] == jobs \
            and all(pool.alive() for pool in _SHARDS["pools"]):
        return _SHARDS["pools"]
    shutdown_shard_pools()
    pools = [ShardPool(i, width)
             for i, width in enumerate(shard_widths(shards, jobs))]
    _SHARDS = {"shards": shards, "jobs": jobs, "pools": pools}
    return pools


def shutdown_shard_pools():
    """Tear down every shard pool (atexit, tests, bench teardown)."""
    global _SHARDS
    if _SHARDS is not None:
        for pool in _SHARDS["pools"]:
            pool.shutdown()
        _SHARDS = None


atexit.register(shutdown_shard_pools)


# -- the coordinator ---------------------------------------------------------------

class _JobState:
    """Parent-side bookkeeping for one sweep cell."""

    __slots__ = ("job", "home", "done", "incarnation", "conns",
                 "speculated")

    def __init__(self, job, home: int):
        self.job = job
        self.home = home          # home shard (partition slice)
        self.done = False
        self.incarnation = 0      # bumped per worker crash, like w{N}
        self.conns = {}           # conn -> speculative flag
        self.speculated = False


class ShardScheduler:
    """Work-stealing, straggler-re-dispatching scheduler over shards.

    Drives ``jobs_list`` (picklable cell payloads carrying ``name`` and
    ``target``) to completion across ``pools``.  ``record(job, kind,
    value, timing)`` is called exactly once per cell, in completion
    order, with ``kind`` one of ``ok`` / ``fail`` (tolerant mode only),
    ``value`` a ``(cell, compile_seconds, attempts)`` triple, and
    ``timing`` the worker's ``seconds`` / ``queue_wait`` (None for a
    cell the parent failed: crash budget spent, or hung).  Fast-mode
    cell errors drain in-flight work and re-raise; worker crashes
    re-queue the cell up to ``retries`` incarnations.
    """

    def __init__(self, pools, jobs_list, tolerant: bool = False,
                 retries: int = 2, plan=None):
        self.pools = pools
        self.tolerant = tolerant
        self.retries = retries
        self.plan = plan
        self.metrics = get_registry()
        self.factor = straggler_factor()
        self.states = []
        self.deques = [collections.deque() for _ in pools]
        # Contiguous suite-order slices: shard i owns slice i.  Locality
        # by construction; skew is what stealing exists to absorb.
        bounds = self._partition(len(jobs_list), len(pools))
        for index, job in enumerate(jobs_list):
            home = bounds[index]
            self.states.append(_JobState(job, home))
            self.deques[home].append(index)
        self.idle = {pool.shard_id: list(pool.workers) for pool in pools}
        self.inflight = {}   # conn -> dispatch record
        self.durations = []  # completed-cell seconds (straggler p99)
        self.busy = collections.defaultdict(float)  # shard -> busy secs
        self.completed = 0

    @staticmethod
    def _partition(cells: int, shards: int):
        """Cell index -> home shard, in contiguous balanced slices."""
        base, extra = divmod(cells, shards)
        owner, bounds = 0, []
        for shard in range(shards):
            size = base + (1 if shard < extra else 0)
            bounds.extend([shard] * size)
        return bounds or [0] * cells

    # -- dispatch ------------------------------------------------------------------

    def _steal_victim(self, thief: int):
        """The richest other shard, or None when nothing is stealable."""
        victim, richest = None, 0
        for shard, deque_ in enumerate(self.deques):
            if shard != thief and len(deque_) > richest:
                victim, richest = shard, len(deque_)
        return victim

    def _next_job(self, shard: int):
        """Pop from the shard's own deque, else steal from the tail of
        the richest victim."""
        if self.deques[shard]:
            return self.deques[shard].popleft()
        victim = self._steal_victim(shard)
        if victim is None:
            return None
        job_id = self.deques[victim].pop()
        self.metrics.counter("shard.steals").inc()
        return job_id

    def _dispatch(self, shard: int, worker, job_id: int,
                  speculative: bool = False):
        state = self.states[job_id]
        payload = dict(state.job, incarnation=state.incarnation)
        try:
            worker["conn"].send((job_id, payload))
        except OSError:
            # The worker died while idle: the cell never started, so
            # respawn and resend without spending an incarnation.
            _code, worker = self.pools[shard].replace(worker)
            self.metrics.counter("shard.worker_respawns").inc()
            worker["conn"].send((job_id, payload))
        conn = worker["conn"]
        state.conns[conn] = speculative
        self.inflight[conn] = {
            "job_id": job_id, "worker": worker, "shard": shard,
            "sent": time.time(), "speculative": speculative,
        }

    def _straggler_deadline(self):
        if len(self.durations) < STRAGGLER_MIN_SAMPLES:
            return None
        return self.factor * max(p99(self.durations), 1e-6)

    def _redispatch_stragglers(self):
        """Speculatively re-issue overdue cells onto idle workers."""
        deadline = self._straggler_deadline()
        if deadline is None:
            return
        now = time.time()
        overdue = sorted(
            (record for record in self.inflight.values()
             if now - record["sent"] > deadline
             and not self.states[record["job_id"]].speculated
             and not self.states[record["job_id"]].done),
            key=lambda record: record["sent"])
        for record in overdue:
            shard, worker = self._idle_worker()
            if worker is None:
                return
            state = self.states[record["job_id"]]
            state.speculated = True
            self.metrics.counter("shard.redispatches").inc()
            self._dispatch(shard, worker, record["job_id"],
                           speculative=True)

    def _idle_worker(self):
        for shard, workers in self.idle.items():
            if workers:
                return shard, workers.pop()
        return None, None

    def _fill_idle(self):
        for pool in self.pools:
            shard = pool.shard_id
            while self.idle[shard]:
                job_id = self._next_job(shard)
                if job_id is None:
                    break
                self._dispatch(shard, self.idle[shard].pop(), job_id)
        self._redispatch_stragglers()

    # -- completion / crash handling -----------------------------------------------

    def _respawn(self, conn, record):
        """Retire the worker behind an in-flight dispatch (dead,
        cancelled, or hung) and put a fresh fork on its shard's idle
        list.  Returns the retired process's exit code."""
        self.inflight.pop(conn, None)
        self.states[record["job_id"]].conns.pop(conn, None)
        code, fresh = self.pools[record["shard"]].replace(record["worker"])
        self.idle[record["shard"]].append(fresh)
        return code

    def _cancel_losers(self, state, winner_conn):
        """First result won: terminate any speculative copy in flight."""
        for conn in [c for c in state.conns if c is not winner_conn]:
            record = self.inflight.get(conn)
            state.conns.pop(conn, None)
            if record is None:
                continue
            self._respawn(conn, record)
            self.metrics.counter("shard.cancelled").inc()

    def _fail(self, state, phase, exc, attempts, record_cb):
        """Record a cell the parent gave up on as a tolerant failure."""
        from ..resilience import failure_from_exception
        job = state.job
        failure = failure_from_exception(
            job["name"], job["target"], phase, exc, attempts=attempts,
            plan=self.plan)
        state.done = True
        self.completed += 1
        record_cb(job, "fail", (failure, {}, attempts), None)

    def _handle_message(self, conn, record, msg, record_cb):
        job_id, kind, value, timing = msg
        state = self.states[job_id]
        worker = record["worker"]
        self.idle[record["shard"]].append(worker)
        state.conns.pop(conn, None)
        if kind == "err" and not self.tolerant:
            self._drain()
            raise value
        if state.done:
            # The slow copy of a re-dispatched cell: discard its result.
            self.metrics.counter("shard.redispatch_wasted").inc()
            return
        if kind == "err":
            # Outside measure_cell's classification (e.g. an
            # unresolvable spec reference): still one failure, never a
            # raise out of a tolerant sweep.
            self._cancel_losers(state, conn)
            self._fail(state, "worker", value, state.incarnation + 1,
                       record_cb)
            return
        state.done = True
        self.completed += 1
        self.durations.append(timing["seconds"])
        self.busy[record["shard"]] += timing["seconds"]
        timing["queue_wait"] = max(timing["start"] - record["sent"], 0.0)
        if record["speculative"]:
            self.metrics.counter("shard.redispatch_wins").inc()
        self._cancel_losers(state, conn)
        record_cb(state.job, kind, value, timing)

    def _handle_crash(self, conn, record, record_cb):
        """A worker died mid-cell: respawn it, re-queue or fail the cell."""
        state = self.states[record["job_id"]]
        code = self._respawn(conn, record)
        self.metrics.counter("shard.worker_respawns").inc()
        if state.done or state.conns:
            return  # a surviving copy already won / is still running
        state.incarnation += 1
        if state.incarnation <= self.retries:
            state.speculated = False
            self.deques[state.home].appendleft(record["job_id"])
            self.metrics.counter("shard.requeues").inc()
            return
        exc = WorkerCrashError(
            f"worker died (exit code {code}) before reporting")
        exc.injected = code == 17
        if not self.tolerant:
            self._drain()
            raise exc
        self._fail(state, "worker", exc, state.incarnation, record_cb)

    def _reap_hung(self, record_cb):
        """Tolerant-mode watchdog: terminate every copy of a cell still
        in flight ``2 * timeout + 1`` seconds after its dispatch.

        The in-machine deadline normally fires first; this catches
        hangs outside the instrumented loop, which straggler
        re-dispatch would otherwise only duplicate."""
        now = time.time()
        for conn, record in list(self.inflight.items()):
            state = self.states[record["job_id"]]
            timeout = state.job.get("timeout")
            if state.done or timeout is None \
                    or now - record["sent"] <= 2 * timeout + 1.0:
                continue
            for copy in list(state.conns):
                self._respawn(copy, self.inflight[copy])
            self._fail(state, "execute",
                       CellTimeout(f"cell hung past {timeout:g}s; "
                                   f"worker terminated"),
                       state.incarnation + 1, record_cb)

    def _drain(self, deadline: float = DRAIN_SECONDS):
        """Collect or retire in-flight cells after an error, keeping
        every healthy worker warm for the next sweep."""
        from multiprocessing.connection import wait as _wait

        limit = time.time() + deadline
        while self.inflight:
            remaining = limit - time.time()
            if remaining <= 0:
                break
            for conn in _wait(list(self.inflight), timeout=remaining):
                record = self.inflight.pop(conn)
                self.states[record["job_id"]].conns.pop(conn, None)
                try:
                    conn.recv()
                except (EOFError, OSError):
                    self._respawn(conn, record)
                    continue
                self.idle[record["shard"]].append(record["worker"])
        for conn, record in list(self.inflight.items()):
            # Unresponsive past the drain deadline: replace, stay warm.
            self._respawn(conn, record)

    # -- the main loop -------------------------------------------------------------

    def run(self, record_cb):
        from multiprocessing.connection import wait as _wait

        total = len(self.states)
        start = time.time()
        try:
            while self.completed < total:
                self._fill_idle()
                if not self.inflight:
                    # Every remaining cell crashed its way out already.
                    break
                for conn in _wait(list(self.inflight), timeout=0.05):
                    record = self.inflight.pop(conn)
                    try:
                        msg = conn.recv()
                    except (EOFError, OSError):
                        self._handle_crash(conn, record, record_cb)
                        continue
                    self._handle_message(conn, record, msg, record_cb)
                if self.tolerant:
                    self._reap_hung(record_cb)
        except KeyboardInterrupt:
            # Ctrl-C routes through the drain path: in-flight cells
            # finish (or their workers are replaced), and the warm
            # pools survive for the partial-result report / next sweep
            # instead of being torn down mid-stride.
            self._drain()
            raise
        if self.metrics.enabled:
            wall = max(time.time() - start, 1e-9)
            self.metrics.gauge("shard.count").set(len(self.pools))
            self.metrics.gauge("shard.jobs").set(
                sum(pool.width for pool in self.pools))
            self.metrics.counter("shard.cells").inc(total)
            for pool in self.pools:
                self.metrics.gauge(
                    f"shard.{pool.shard_id}.utilization").set(
                    self.busy[pool.shard_id] / wall)


def run_sharded_jobs(jobs_list, shards: int, jobs: int, record,
                     tolerant: bool = False, retries: int = 2, plan=None):
    """Schedule ``jobs_list`` over the persistent shard pools.

    ``record(job, kind, value, timing)`` receives every completed cell
    exactly once (``kind``: ``ok`` or, in tolerant mode, ``fail``).
    Raises fast-mode cell errors and exhausted-retry
    :class:`WorkerCrashError` after draining; Ctrl-C drains in-flight
    cells (pools stay warm) and propagates.
    """
    pools = get_shard_pools(shards, jobs)
    scheduler = ShardScheduler(pools, jobs_list, tolerant=tolerant,
                               retries=retries, plan=plan)
    scheduler.run(record)
    return scheduler
