"""Chaos tests: sweeps under injected faults always complete, produce
deterministic failure manifests, and leave clean cells bit-identical.

Also extends the decoder fuzz to *execution*: a corrupted module that
slips past validation must still fail (or finish) under a small fuel
budget with a ReproError — never a raw Python exception or a hang.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import GuestHost, compile_wasm_bytes

from repro.benchsuite import polybench_benchmark
from repro.errors import ReproError
from repro.harness.parallel import run_suite, shutdown_warm_pool
from repro.resilience import FaultPlan, RetryPolicy, is_failure
from repro.wasm import WasmInstance, decode_module, validate_module

SUBSET = ["trisolv", "bicg", "mvt"]
TARGETS = ["native", "chrome", "firefox"]
MIX = FaultPlan.parse("trap:0.3,syscall:0.2,fuel:0.1,cache:0.2", seed=1234)
NO_SLEEP = RetryPolicy(retries=2, sleep=lambda s: None)


def _suite():
    return [polybench_benchmark(name, "test") for name in SUBSET]


def _manifest(results):
    """The failure manifest: everything that should be seed-stable."""
    rows = []
    for name, by_target in results.items():
        for target, cell in by_target.items():
            if is_failure(cell):
                rows.append((name, target, cell.status, cell.phase,
                             cell.error_type, cell.attempts,
                             cell.injected, cell.message))
            else:
                rows.append((name, target, "OK", tuple(cell.times)))
    return rows


def _chaos_run(plan=MIX, jobs=1):
    results, _ = run_suite(_suite(), TARGETS, runs=2, jobs=jobs,
                           cache=False, tolerant=True, plan=plan,
                           policy=NO_SLEEP)
    return results


class TestChaosSweep:
    def test_sweep_completes_full_matrix(self):
        results = _chaos_run()
        assert list(results) == SUBSET
        for name in SUBSET:
            assert list(results[name]) == TARGETS
            for cell in results[name].values():
                assert is_failure(cell) or cell.times

    def test_mix_actually_injects(self):
        failures = [c for by_t in _chaos_run().values()
                    for c in by_t.values() if is_failure(c)]
        assert failures, "chaos mix injected nothing; rates/seed broken"
        assert all(f.injected for f in failures)

    def test_manifest_deterministic_per_seed(self):
        assert _manifest(_chaos_run()) == _manifest(_chaos_run())

    def test_pooled_manifest_matches_in_process(self, monkeypatch):
        """The shard scheduler's workers reproduce the in-process
        manifest cell for cell (REPRO_FORCE_JOBS keeps the pool on a
        single-CPU host)."""
        monkeypatch.setenv("REPRO_FORCE_JOBS", "1")
        try:
            assert _manifest(_chaos_run(jobs=2)) == _manifest(_chaos_run())
        finally:
            shutdown_warm_pool()

    def test_different_seed_different_manifest(self):
        other = FaultPlan(MIX.rates, seed=4321)
        assert _manifest(_chaos_run()) != _manifest(_chaos_run(other))

    def test_clean_cells_bit_identical_to_uninjected_run(self):
        clean, _ = run_suite(_suite(), TARGETS, runs=2, jobs=1,
                             cache=False)
        chaos = _chaos_run()
        compared = 0
        for name in SUBSET:
            for target in TARGETS:
                cell = chaos[name][target]
                if is_failure(cell):
                    continue
                ref = clean[name][target]
                assert cell.times == ref.times
                assert cell.run.stdout == ref.run.stdout
                assert cell.perf.as_dict() == ref.perf.as_dict()
                compared += 1
        assert compared, "every cell failed; cannot compare clean cells"

    def test_no_failures_without_plan(self):
        results, _ = run_suite(_suite()[:1], TARGETS, runs=1, jobs=1,
                               cache=False, tolerant=True)
        assert not any(is_failure(c)
                       for c in results[SUBSET[0]].values())


class TestChaosCLI:
    def test_bench_partial_success_exit_code(self, capsys):
        from repro.cli import main
        rc = main(["bench", "trisolv", "--jobs", "1", "--runs", "1",
                   "--inject", "trap:0.45,syscall:0.2", "--inject-seed",
                   "6", "--no-cache"])
        out = capsys.readouterr()
        assert rc in (0, 1, 3)
        if rc in (1, 3):
            assert "FAILED" in out.err
            assert "repro bench" in out.err
        if rc == 3:
            assert "ERROR" in out.out or "TIMEOUT" in out.out

    def test_bench_all_failed_exit_code(self, capsys):
        from repro.cli import main
        rc = main(["bench", "matmul", "--jobs", "1", "--runs", "1",
                   "--inject", "trap:1.0", "--no-cache"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.count("FAILED") == 3

    def test_bad_inject_grammar_is_usage_error(self, capsys):
        from repro.cli import main
        with pytest.raises(SystemExit) as exc:
            main(["bench", "matmul", "--inject", "warp:0.5"])
        assert exc.value.code == 2
        assert "warp" in capsys.readouterr().err

    def test_report_json_carries_failures_block(self, tmp_path, capsys):
        import json
        from repro.cli import main
        out = tmp_path / "fig3a.json"
        rc = main(["report", "fig3a", "--runs", "1", "--jobs", "1",
                   "--no-cache", "--json", str(out),
                   "--inject", "trap:0.25", "--inject-seed", "5"])
        capsys.readouterr()
        if rc == 1:  # every benchmark failed: nothing rendered, no JSON
            return
        payload = json.loads(out.read_text())
        assert "failures" in payload and "partial" in payload
        assert payload["partial"] == bool(payload["failures"])
        for failure in payload["failures"]:
            assert failure["inject"] == "trap:0.25"
            assert failure["inject_seed"] == 5
            assert failure["repro"].startswith("repro bench")


# -- execution fuzz ----------------------------------------------------------------

_DATA, _, _IR = compile_wasm_bytes("""
int helper(int x) { return x * 3 + 1; }
int main(void) {
    int i; int s = 0;
    for (i = 0; i < 5; i++) { s += helper(i); }
    print_i32(s);
    return 0;
}
""")


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=8, max_value=len(_DATA) - 1),
       st.integers(min_value=0, max_value=255))
def test_corrupted_module_execution_never_escapes(position, value):
    corrupted = bytearray(_DATA)
    corrupted[position] = value
    try:
        module = decode_module(bytes(corrupted))
        validate_module(module)
        instance = WasmInstance(module, host=GuestHost(_IR.heap_base),
                                max_fuel=5_000)
        instance.invoke("main")
    except ReproError:
        return  # decoder, validator, or interpreter failed cleanly
    except Exception as exc:  # noqa: BLE001 - the point of the test
        raise AssertionError(
            f"byte {position}={value} leaked {type(exc).__name__}: {exc}")
