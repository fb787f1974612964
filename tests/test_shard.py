"""Sharded sweep engine: determinism under adversarial schedules.

The contract under test is the one the engine documents: the merged
suite results are bit-identical to a serial run no matter the shard
count, steal schedule, straggler re-dispatch races, or injected worker
crashes.  Chaos manifests (which cells fail, with how many attempts)
are compared against a literal manifest frozen from the retired
process-per-cell scheduler, the established baseline for
``worker``-fault determinism.
"""

import pytest

from repro.benchsuite import matmul_spec, polybench_benchmark
from repro.harness.parallel import run_suite, shutdown_warm_pool
from repro.harness.shard import (
    AUTO_SHARD_WIDTH, MAX_SHARDS, get_shard_pools, normalize_shards,
    shard_widths, shutdown_shard_pools,
)
from repro.harness import shard as shard_mod
from repro.obs import metrics as obs_metrics
from repro.resilience import FaultPlan, is_failure

SUBSET = ["trisolv", "bicg", "mvt", "gesummv"]
TARGETS = ["native", "chrome", "firefox"]


@pytest.fixture
def force_jobs(monkeypatch):
    """Exercise real shard pools even on a single-CPU box."""
    monkeypatch.setenv("REPRO_FORCE_JOBS", "1")
    yield
    shutdown_warm_pool()
    shutdown_shard_pools()


@pytest.fixture
def metrics():
    registry = obs_metrics.enable()
    yield registry
    obs_metrics.disable()


def _suite():
    return [polybench_benchmark(name, "test") for name in SUBSET]


def _skewed_suite():
    """One heavy cell in shard 0's contiguous slice forces stealing.

    Its simulation (~2 s over the three targets at the default tier)
    must clearly outlast the other shard's light slice, or the shards
    drain together and nothing is stolen."""
    return [matmul_spec(56, 56, 56)] + _suite()


def _counter(registry, name):
    counter = registry.counters.get(name)
    return counter.value if counter is not None else 0


def _assert_identical(sharded, serial, suite):
    for spec in suite:
        for target in TARGETS:
            got = sharded[spec.name][target]
            want = serial[spec.name][target]
            assert got.times == want.times, (spec.name, target)
            assert got.perf.as_dict() == want.perf.as_dict()
            assert got.run.stdout == want.run.stdout


# -- shard shaping -----------------------------------------------------------------

def test_normalize_shards_auto():
    assert normalize_shards(None, 1) == 1
    assert normalize_shards(None, AUTO_SHARD_WIDTH - 1) == 1
    assert normalize_shards(None, AUTO_SHARD_WIDTH) == 1
    assert normalize_shards(None, 2 * AUTO_SHARD_WIDTH) == 2
    assert normalize_shards(None, 10 * AUTO_SHARD_WIDTH * MAX_SHARDS) \
        == MAX_SHARDS


def test_normalize_shards_explicit_clamped():
    assert normalize_shards(4, 8) == 4
    assert normalize_shards(16, 8) == 8      # one worker per shard min
    assert normalize_shards(99, 99) == MAX_SHARDS
    assert normalize_shards(0, 8) == 1
    assert normalize_shards(2, 1) == 1       # serial stays serial


def test_shard_widths_balanced():
    assert shard_widths(2, 4) == [2, 2]
    assert shard_widths(3, 8) == [3, 3, 2]
    assert shard_widths(2, 2) == [1, 1]
    assert sum(shard_widths(5, 17)) == 17


# -- determinism across shard counts -----------------------------------------------

def test_sharded_matches_serial_bit_for_bit(force_jobs):
    serial, _ = run_suite(_suite(), TARGETS, runs=3, jobs=1, cache=False)
    for shards in (1, 2, 8):
        sharded, _ = run_suite(_suite(), TARGETS, runs=3, jobs=8,
                               shards=shards, cache=False)
        assert list(sharded) == SUBSET       # suite order preserved
        _assert_identical(sharded, serial, _suite())


def test_sharded_compile_seconds_reported(force_jobs):
    _, compile_seconds = run_suite(_suite(), ["native"], runs=1, jobs=4,
                                   shards=2, cache=False)
    for name in SUBSET:
        assert compile_seconds[name]["native"] > 0


def test_steals_under_skew(force_jobs, metrics):
    """A skewed matrix forces idle shards to steal; results still match."""
    serial, _ = run_suite(_skewed_suite(), TARGETS, runs=2, jobs=1,
                          cache=False)
    sharded, _ = run_suite(_skewed_suite(), TARGETS, runs=2, jobs=4,
                           shards=2, cache=False)
    _assert_identical(sharded, serial, _skewed_suite())
    assert _counter(metrics, "shard.steals") > 0
    assert _counter(metrics, "shard.cells") == len(_skewed_suite()) \
        * len(TARGETS)


def test_straggler_redispatch_race(force_jobs, metrics, monkeypatch):
    """With an absurdly tight deadline every cell is a straggler;
    speculative copies race the originals and first-wins stays
    bit-identical because duplicates are deterministic."""
    monkeypatch.setenv("REPRO_STRAGGLER_FACTOR", "0.0001")
    serial, _ = run_suite(_suite(), TARGETS, runs=2, jobs=1, cache=False)
    sharded, _ = run_suite(_suite(), TARGETS, runs=2, jobs=4, shards=2,
                           cache=False)
    _assert_identical(sharded, serial, _suite())
    assert _counter(metrics, "shard.redispatches") > 0


def test_shard_pools_warm_across_sweeps(force_jobs):
    run_suite(_suite()[:2], ["native"], runs=1, jobs=4, shards=2,
              cache=False)
    pools = shard_mod._SHARDS["pools"]
    pids = [w["proc"].pid for pool in pools for w in pool.workers]
    run_suite(_suite()[2:], ["native"], runs=1, jobs=4, shards=2,
              cache=False)
    assert shard_mod._SHARDS["pools"] is pools
    assert [w["proc"].pid for pool in pools
            for w in pool.workers] == pids


def test_shard_pools_rebuilt_on_shape_change(force_jobs):
    first = get_shard_pools(2, 4)
    assert get_shard_pools(2, 4) is first
    second = get_shard_pools(3, 6)
    assert second is not first
    assert [pool.width for pool in second] == [2, 2, 2]


def test_shard_pools_survive_ctrl_c(force_jobs):
    """Ctrl-C mid-sharded-sweep drains in-flight cells and keeps every
    shard pool warm, instead of tearing the engine down."""
    run_suite(_suite()[:2], ["native"], runs=1, jobs=4, shards=2,
              cache=False)
    pools = shard_mod._SHARDS["pools"]
    pids = [w["proc"].pid for pool in pools for w in pool.workers]

    def interrupt(name):
        raise KeyboardInterrupt

    with pytest.raises(KeyboardInterrupt):
        run_suite(_suite(), ["native"], runs=1, jobs=4, shards=2,
                  cache=False, progress=interrupt)
    assert shard_mod._SHARDS["pools"] is pools
    assert all(w["proc"].is_alive() for pool in pools
               for w in pool.workers)
    assert [w["proc"].pid for pool in pools
            for w in pool.workers] == pids
    # and the warm pools run the next sweep to completion
    results, _ = run_suite(_suite()[:2], ["native"], runs=1, jobs=4,
                           shards=2, cache=False)
    assert set(results) == set(SUBSET[:2])


def test_shard_cell_error_keeps_pools_warm(force_jobs):
    bad = polybench_benchmark("trisolv", "test")
    with pytest.raises(Exception):
        run_suite([bad] + _suite()[:1], ["no-such-target", "native"],
                  runs=1, jobs=4, shards=2, cache=False)
    results, _ = run_suite(_suite()[:2], ["native"], runs=1, jobs=4,
                           shards=2, cache=False)
    assert set(results) == set(SUBSET[:2])


# -- chaos: injected worker crashes ------------------------------------------------

#: The ``worker:0.5`` / seed-11 failure manifest ``(name, target, phase,
#: attempts)`` of the suite below, as the process-per-cell scheduler
#: (one fresh process per cell, retired since) produced it.  Both shard
#: counts must reproduce it exactly.
WORKER_CRASH_MANIFEST = [
    ("matmul-56x56x56", "firefox", "worker", 3),
    ("durbin", "native", "worker", 3),
    ("durbin", "firefox", "worker", 3),
]


def test_worker_crashes_requeue_deterministically(force_jobs, metrics):
    """Injected worker deaths re-queue cells; survivors are bit-identical
    with serial and the failure manifest matches the frozen
    process-per-cell baseline exactly at every shard count."""
    suite = _skewed_suite() + [polybench_benchmark("durbin", "test")]
    serial, _ = run_suite(suite, TARGETS, runs=2, jobs=1, cache=False)
    for shards in (1, 2):
        shutdown_warm_pool()
        results, _ = run_suite(suite, TARGETS, runs=2, jobs=4,
                               shards=shards, cache=False, tolerant=True,
                               plan=FaultPlan.parse("worker:0.5", seed=11),
                               timeout=None)
        manifest = [(name, target, cell.phase, cell.attempts)
                    for name, by_target in results.items()
                    for target, cell in by_target.items()
                    if is_failure(cell)]
        assert manifest == WORKER_CRASH_MANIFEST, shards
        for spec in suite:
            for target in TARGETS:
                cell = results[spec.name][target]
                if not is_failure(cell):
                    assert cell.times == serial[spec.name][target].times
    assert _counter(metrics, "shard.worker_respawns") > 0
    assert _counter(metrics, "shard.requeues") > 0


def test_worker_crash_fast_mode_raises_after_retries(force_jobs):
    """Without the tolerant flag an exhausted crash budget aborts the
    sweep, and the next sweep still works on rebuilt pools."""
    from repro.errors import WorkerCrashError
    from repro.tier import get_tier
    plan = FaultPlan.parse("worker:1.0", seed=1)
    jobs_list = [{
        "ref": ("polybench", "trisolv", "test"), "name": "trisolv",
        "target": "native", "runs": 1, "noise": 0.004,
        "max_instructions": 2_000_000_000, "use_cache": False,
        "plan": plan, "tier": get_tier(),
    }]
    from repro.harness.shard import run_sharded_jobs
    with pytest.raises(WorkerCrashError):
        run_sharded_jobs(jobs_list, 2, 4, lambda *a: None, retries=1,
                         plan=plan)
    results, _ = run_suite(_suite()[:1], ["native"], runs=1, jobs=4,
                           shards=2, cache=False)
    assert "trisolv" in results


# -- the hang watchdog -------------------------------------------------------------

HUNG = ("bicg", "chrome")


@pytest.mark.parametrize("shards", [1, 2])
def test_hung_cell_terminated_by_watchdog(force_jobs, monkeypatch, shards):
    """A cell that hangs outside the instrumented loop (here: before
    measure_cell starts) is terminated ``2 * timeout + 1`` seconds after
    dispatch, straggler copies included, and recorded once as an
    ``execute``-phase CellTimeout; every other cell completes
    bit-identical to serial.  SIGALRM bounds the sweep, so a scheduler
    without the watchdog fails this test instead of hanging it."""
    import signal
    import time
    from repro import resilience

    suite = _suite()[:2]
    serial, _ = run_suite(suite, TARGETS, runs=1, jobs=1, cache=False)
    real_measure_cell = resilience.measure_cell

    def hanging_measure_cell(spec, target, **kwargs):
        if (spec.name, target) == HUNG:
            time.sleep(600)
        return real_measure_cell(spec, target, **kwargs)

    shutdown_shard_pools()  # the workers must fork after the patch
    monkeypatch.setattr(resilience, "measure_cell", hanging_measure_cell)

    def overdue(signum, frame):
        raise TimeoutError("sweep did not finish: hung cell never reaped")

    previous = signal.signal(signal.SIGALRM, overdue)
    signal.alarm(30)
    try:
        results, _ = run_suite(suite, TARGETS, runs=1, jobs=2,
                               shards=shards, cache=False, tolerant=True,
                               timeout=1.0)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    hung = results[HUNG[0]][HUNG[1]]
    assert is_failure(hung)
    assert (hung.phase, hung.error_type, hung.attempts) \
        == ("execute", "CellTimeout", 1)
    for spec in suite:
        for target in TARGETS:
            if (spec.name, target) != HUNG:
                assert results[spec.name][target].times \
                    == serial[spec.name][target].times, (spec.name, target)


# -- one set of cell metrics -------------------------------------------------------

@pytest.mark.parametrize("tolerant", [False, True],
                         ids=["fast", "tolerant"])
@pytest.mark.parametrize("jobs,shards", [(1, 1), (1, 2), (2, 1), (2, 2)])
def test_runner_cell_metrics_whatever_the_schedule(force_jobs, metrics,
                                                   jobs, shards, tolerant):
    """Serial and pooled, fast and tolerant sweeps all count every cell
    in ``runner.cells`` and time it in the ``runner.*`` histograms."""
    suite = _suite()[:2]
    run_suite(suite, TARGETS, runs=1, jobs=jobs, shards=shards,
              cache=False, tolerant=tolerant)
    cells = len(suite) * len(TARGETS)
    assert _counter(metrics, "runner.cells") == cells
    for name in ("runner.cell_seconds", "runner.queue_wait_seconds"):
        assert metrics.histograms[name].count == cells
