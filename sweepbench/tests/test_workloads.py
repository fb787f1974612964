"""Seed permutation, output checks and the simulated-counter digest.

    python3 -m pytest sweepbench/tests -q
"""

import json
import os

from workloads import (TARGETS, WORKLOADS, build_specs, check_cells,
                       permuted, ref_key, sim_digest, stdout_digest)

EXPECTED = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "expected.json")


def test_permutation_is_a_pure_function_of_the_seed():
    refs = WORKLOADS["suite-test-warm-serial"].refs
    assert permuted(refs, 7) == permuted(refs, 7)
    assert sorted(permuted(refs, 7)) == sorted(refs)
    orders = {tuple(permuted(refs, seed)) for seed in range(10)}
    assert len(orders) == 10


def test_expected_outputs_cover_every_cell():
    with open(EXPECTED) as fh:
        expected = json.load(fh)
    for workload in WORKLOADS.values():
        for ref in workload.refs:
            assert ref_key(ref) in expected, ref


def test_harness_targets_match():
    from repro.harness.runner import TARGETS as HARNESS_TARGETS
    assert tuple(HARNESS_TARGETS) == TARGETS


def _sweep(refs, jobs):
    from repro.harness.parallel import run_suite, shutdown_warm_pool
    try:
        results, _ = run_suite(build_specs(refs), TARGETS, jobs=jobs,
                               cache=False)
    finally:
        shutdown_warm_pool()
    return results


def test_digest_is_identical_across_seeds_and_jobs():
    refs = [("polybench", "trisolv", "test"), ("polybench", "durbin", "test"),
            ("spec", "445.gobmk", "test")]
    digests = {sim_digest(_sweep(permuted(refs, seed), jobs))
               for seed, jobs in ((1, 1), (2, 1), (1, 2), (3, 2))}
    assert len(digests) == 1


def test_digest_sees_a_counter_change():
    results = _sweep([("polybench", "trisolv", "test")], jobs=1)
    before = sim_digest(results)
    results["trisolv"]["chrome"].run.perf.loads += 1
    assert sim_digest(results) != before


def test_check_cells_flags_wrong_output_and_missing_cells():
    refs = [("polybench", "trisolv", "test")]
    results = _sweep(refs, jobs=1)
    run = results["trisolv"]["native"].run
    expected = {ref_key(refs[0]): {"exit_code": run.exit_code,
                                   "stdout_sha256": stdout_digest(
                                       run.stdout)}}
    assert check_cells(refs, TARGETS, results, expected) == []
    results["trisolv"]["firefox"].run.stdout = b"0\n"
    del results["trisolv"]["chrome"]
    assert check_cells(refs, TARGETS, results, expected) == \
        ["trisolv@chrome", "trisolv@firefox"]


def test_expected_outputs_match_the_reference_interpreter():
    from record_expected import reference_run

    with open(EXPECTED) as fh:
        expected = json.load(fh)
    refs = [("polybench", "gemm", "test"), ("spec", "401.bzip2", "test")]
    for ref, spec in zip(refs, build_specs(refs)):
        exit_code, stdout = reference_run(spec)
        assert expected[ref_key(ref)] == {
            "exit_code": exit_code, "stdout_sha256": stdout_digest(stdout)}
