"""The content-addressed compile cache: hits, misses, invalidation."""

import hashlib
import pickle

import pytest

from repro.benchsuite import polybench_benchmark
from repro.harness import compilecache
from repro.harness.compilecache import CompileCache
from repro.harness.runner import compile_benchmark
from repro.x86.machine import X86Machine

TARGETS = ("native", "chrome")


@pytest.fixture
def cache(tmp_path):
    return CompileCache(directory=str(tmp_path))


def test_miss_then_memory_hit(cache):
    spec = polybench_benchmark("trisolv", "test")
    compile_benchmark(spec, TARGETS, cache=cache)
    assert cache.stats.hits == 0
    assert cache.stats.misses > 0
    assert cache.stats.stores == cache.stats.misses
    first_misses = cache.stats.misses

    compile_benchmark(spec, TARGETS, cache=cache)
    assert cache.stats.memory_hits == first_misses
    assert cache.stats.misses == first_misses  # no new misses


def test_disk_hit_across_cache_instances(tmp_path):
    spec = polybench_benchmark("trisolv", "test")
    warm = CompileCache(directory=str(tmp_path))
    compile_benchmark(spec, TARGETS, cache=warm)

    # A fresh instance has an empty memory tier: all hits come from disk.
    cold = CompileCache(directory=str(tmp_path))
    compile_benchmark(spec, TARGETS, cache=cold)
    assert cold.stats.misses == 0
    assert cold.stats.disk_hits == warm.stats.misses


def test_cached_artifacts_equal_fresh(cache):
    spec = polybench_benchmark("trisolv", "test")
    fresh = compile_benchmark(spec, TARGETS, cache=False)
    compile_benchmark(spec, TARGETS, cache=cache)     # populate
    cached = compile_benchmark(spec, TARGETS, cache=cache)
    assert cache.stats.hits > 0
    # A second instance has an empty memory tier: its programs went
    # through pickle and the on-disk checksum.
    disk = CompileCache(directory=cache.directory)
    unpickled = compile_benchmark(spec, TARGETS, cache=disk)
    assert disk.stats.disk_hits > 0

    # The wasm module must be byte-identical, not just equivalent.
    assert hashlib.sha256(cached.wasm_bytes).hexdigest() == \
        hashlib.sha256(fresh.wasm_bytes).hexdigest()
    for target in TARGETS:
        a = fresh.programs[target]
        assert a.data_segments
        fresh_memory = X86Machine(a).memory
        for other in (cached, unpickled):
            b = other.programs[target]
            assert [f.listing() for f in a.functions.values()] == \
                [f.listing() for f in b.functions.values()]
            assert b.data_segments == a.data_segments
            assert X86Machine(b).memory == fresh_memory
        # Artifacts hold data segments, not a linear-memory image.
        assert len(pickle.dumps(a, protocol=pickle.HIGHEST_PROTOCOL)) \
            < 1 << 20


def test_key_invalidates_on_flags(cache):
    spec = polybench_benchmark("trisolv", "test")
    base = cache.key("native", spec.source, spec.name, spec.memory_size,
                     ("opt", 2), ("unroll", True))
    other_opt = cache.key("native", spec.source, spec.name,
                          spec.memory_size, ("opt", 1), ("unroll", True))
    other_pipe = cache.key("emscripten", spec.source, spec.name,
                           spec.memory_size, ("opt", 2), ("unroll", True))
    assert base != other_opt
    assert base != other_pipe
    # Same inputs, same key (content addressing is deterministic).
    assert base == cache.key("native", spec.source, spec.name,
                             spec.memory_size, ("opt", 2),
                             ("unroll", True))


def test_key_invalidates_on_toolchain_version(cache, monkeypatch):
    spec = polybench_benchmark("trisolv", "test")
    parts = ("native", spec.source, spec.name, spec.memory_size,
             ("opt", 2), ("unroll", True))
    before = cache.key(*parts)
    # Simulate a compiler edit: the fingerprint changes, so every key
    # changes and the old artifacts can never be served.
    monkeypatch.setattr(compilecache, "_FINGERPRINT", "deadbeef" * 8)
    after = cache.key(*parts)
    assert before != after


def test_typed_keys_distinguish_types(cache):
    assert cache.key(1) != cache.key("1")
    assert cache.key(1) != cache.key(1.0)
    assert cache.key(None) != cache.key("")
    assert cache.key(("a", "b")) != cache.key("ab")


def test_cache_false_disables(cache):
    spec = polybench_benchmark("trisolv", "test")
    compiled = compile_benchmark(spec, ("native",), cache=False)
    assert "native" in compiled.programs
    assert cache.stats.lookups == 0


def test_repro_no_cache_env(monkeypatch):
    monkeypatch.setattr(compilecache, "_ENABLED", None)
    monkeypatch.setenv("REPRO_NO_CACHE", "1")
    assert not compilecache.is_enabled()
    assert compilecache.resolve_cache(None) is None
    monkeypatch.delenv("REPRO_NO_CACHE")
    assert compilecache.is_enabled()
