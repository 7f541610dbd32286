"""Content-addressed cache mechanics: roundtrip fidelity, the key
invalidation matrix, corruption containment, and maintenance ops."""

import os

import pytest

from repro.exec import cache as exec_cache
from repro.exec.cache import (
    CODE_VERSION, CacheStats, CompileCache, ResultCache, cache_context,
    config_fingerprint, open_caches, salt_context,
)
from repro.fuzz.brokenpass import rebroken_addrfold
from repro.machine.driver import (
    CompileConfig, compile_cache_key, compile_source,
)
from repro.machine.models import MODELS
from repro.machine.vm import VM

from .conftest import TINY

SRC_A = "int main(void) { return 7; }"
SRC_B = "int main(void) { return 8; }"


def _only_entry(cache):
    paths = list(cache.entry_paths())
    assert len(paths) == 1
    return paths[0]


class TestRoundtrip:
    @pytest.mark.parametrize("name,peephole", (("O", False),
                                               ("O_safe", True)))
    def test_miss_store_hit(self, cache_root, name, peephole):
        cache = CompileCache(cache_root)
        config = CompileConfig.named(name)
        config.peephole = peephole
        with cache_context(cache):
            first = compile_source(TINY, config)
            assert (cache.stats.misses, cache.stats.stores) == (1, 1)
            second = compile_source(TINY, config)
        assert cache.stats.hits == 1
        # The hit is a fresh unpickled program, not an alias ...
        assert second is not first
        # ... with an identical instruction stream, postprocessed or not.
        assert second.asm.render() == first.asm.render()
        assert second.keep_lives == first.keep_lives
        assert second.peephole_stats == first.peephole_stats

    def test_hit_executes_identically(self, cache_root):
        cache = CompileCache(cache_root)
        config = CompileConfig.named("g_checked")
        with cache_context(cache):
            cold = compile_source(TINY, config)
            warm = compile_source(TINY, config)
        runs = []
        for compiled in (cold, warm):
            vm = VM(compiled.asm, config.model)
            runs.append(vm.run())
        a, b = runs
        assert (a.exit_code, a.cycles, a.instructions, a.output) == \
               (b.exit_code, b.cycles, b.instructions, b.output)

    def test_no_cache_installed_is_transparent(self):
        assert exec_cache.active_cache("compile") is None
        compiled = compile_source(SRC_A, CompileConfig.named("O"))
        assert compiled.asm.code_size() > 0
        assert compile_cache_key(SRC_A, CompileConfig.named("O")) is None


class TestKeyInvalidation:
    """Mutating any key component must produce a different address."""

    def key(self, cache, source=SRC_A, config=None):
        return cache.key_for(source, config or CompileConfig.named("O"))

    def test_source_changes_key(self, cache_root):
        cache = CompileCache(cache_root)
        assert self.key(cache, SRC_A) != self.key(cache, SRC_B)

    @pytest.mark.parametrize("name", ("O0", "O_safe", "g", "g_checked"))
    def test_named_config_changes_key(self, cache_root, name):
        cache = CompileCache(cache_root)
        assert self.key(cache, config=CompileConfig.named(name)) != \
               self.key(cache, config=CompileConfig.named("O"))

    def test_single_flag_changes_key(self, cache_root):
        cache = CompileCache(cache_root)
        base = CompileConfig.named("O")
        for mutated in (
                CompileConfig(optimize=True, safe=True),
                CompileConfig(optimize=True, checked=True),
                CompileConfig(optimize=True, naive_keep_live=True),
                CompileConfig(optimize=True, run_cpp=False),
                CompileConfig(optimize=True, peephole=True),
                CompileConfig(optimize=True, sink=True)):
            assert self.key(cache, config=mutated) != self.key(cache, config=base)

    def test_pass_list_changes_key(self, cache_root):
        cache = CompileCache(cache_root)
        base = CompileConfig.named("O")
        dropped = CompileConfig(optimize=True, passes=base.passes[:-1])
        reordered = CompileConfig(
            optimize=True, passes=tuple(reversed(base.passes)))
        keys = {self.key(cache, config=c) for c in (base, dropped, reordered)}
        assert len(keys) == 3

    def test_model_changes_key(self, cache_root):
        cache = CompileCache(cache_root)
        keys = {self.key(cache, config=CompileConfig.named("O", MODELS[m]))
                for m in ("ss2", "ss10", "p90")}
        assert len(keys) == 3

    def test_code_version_salt_changes_key(self, cache_root):
        v1 = CompileCache(cache_root, salt=CODE_VERSION)
        v2 = CompileCache(cache_root, salt="repro-exec-cache/999")
        assert self.key(v1) != self.key(v2)

    def test_salt_context_changes_key_and_restores(self, cache_root):
        cache = CompileCache(cache_root)
        outside = self.key(cache)
        with salt_context("experiment-a"):
            inside = self.key(cache)
            with salt_context("experiment-b"):
                nested = self.key(cache)
        assert len({outside, inside, nested}) == 3
        assert self.key(cache) == outside

    def test_rebroken_addrfold_pushes_salt(self, cache_root):
        # The test hook swaps a pass implementation without changing any
        # key component; without its salt a warm cache would serve the
        # *fixed* code and mask the planted bug.
        cache = CompileCache(cache_root)
        clean = self.key(cache)
        with rebroken_addrfold():
            assert self.key(cache) != clean
        assert self.key(cache) == clean

    def test_salted_compiles_do_not_collide(self, cache_root):
        cache = CompileCache(cache_root)
        config = CompileConfig.named("O")
        with cache_context(cache):
            compile_source(SRC_A, config)
            with rebroken_addrfold():
                compile_source(SRC_A, config)
        assert cache.entry_count() == 2
        assert cache.stats.hits == 0

    def test_uncacheable_sources(self, cache_root):
        cache = CompileCache(cache_root)
        assert cache.key_for('#include "lib.h"\nint main(void){return 0;}',
                             CompileConfig.named("O")) is None
        with_dirs = CompileConfig.named("O")
        with_dirs.include_dirs = ["/tmp/headers"]
        assert config_fingerprint(with_dirs) is None
        assert cache.key_for(SRC_A, with_dirs) is None


class TestResultCacheKeys:
    def test_each_run_parameter_changes_key(self, cache_root):
        cache = ResultCache(cache_root)
        config = CompileConfig.named("O")
        base = cache.key_for(SRC_A, config)
        variants = [
            cache.key_for(SRC_A, config, stdin="x"),
            cache.key_for(SRC_A, config, gc_interval=1),
            cache.key_for(SRC_A, config, poison=True),
            cache.key_for(SRC_A, config, max_instructions=1000),
        ]
        assert base not in variants
        assert len(set(variants)) == len(variants)

    def test_tiers_never_share_addresses(self, cache_root):
        # Same root, same inputs: the "kind" component keeps a compiled
        # program from ever being served as an executed cell.
        config = CompileConfig.named("O")
        assert CompileCache(cache_root).key_for(SRC_A, config) != \
               ResultCache(cache_root).key_for(SRC_A, config)


class TestCorruption:
    def _populate(self, cache_root):
        cache = CompileCache(cache_root)
        config = CompileConfig.named("O")
        with cache_context(cache):
            compile_source(SRC_A, config)
        return cache, config

    def _corrupt(self, path, mutate):
        with open(path, "rb") as fh:
            blob = fh.read()
        with open(path, "wb") as fh:
            fh.write(mutate(blob))

    @pytest.mark.parametrize("mutate", [
        lambda b: b[:len(b) // 2],                      # truncation
        lambda b: b"XXXXXXXX" + b[8:],                  # bad magic
        lambda b: b[:-4] + bytes(4),                    # flipped payload
        lambda b: b[:8] + bytes(32) + b[40:],           # bad digest
        lambda b: b[:40] + b"not-a-pickle",             # undecodable payload
    ])
    def test_corrupt_entry_evicted_and_recompiled(self, cache_root, mutate):
        cache, config = self._populate(cache_root)
        path = _only_entry(cache)
        self._corrupt(path, mutate)
        with cache_context(cache):
            compiled = compile_source(SRC_A, config)
        assert compiled.asm.code_size() > 0
        assert cache.stats.corrupt_evicted >= 1
        assert cache.stats.hits == 0
        # The recompile re-stored a good entry under the same address.
        assert os.path.exists(path)
        key = cache.key_for(SRC_A, config)
        assert cache.get(key) is not None

    def test_verify_reports_and_evicts(self, cache_root):
        cache, config = self._populate(cache_root)
        with cache_context(cache):
            compile_source(SRC_B, config)
        assert cache.entry_count() == 2
        self._corrupt(sorted(cache.entry_paths())[0], lambda b: b[:10])
        report = cache.verify()
        assert report == {"checked": 2, "ok": 1, "evicted": 1}
        assert cache.entry_count() == 1
        assert cache.verify() == {"checked": 1, "ok": 1, "evicted": 0}

    def test_clear(self, cache_root):
        cache, _ = self._populate(cache_root)
        assert cache.entry_count() == 1
        assert cache.total_bytes() > 0
        assert cache.clear() == 1
        assert cache.entry_count() == 0
        assert cache.stats.cleared == 1


class TestStats:
    def test_hit_rate(self):
        stats = CacheStats(hits=3, misses=1)
        assert stats.lookups == 4
        assert stats.hit_rate() == 0.75
        assert CacheStats().hit_rate() == 0.0

    def test_merge_accepts_stats_and_dicts(self):
        stats = CacheStats(hits=1, misses=2, stores=2)
        stats.merge(CacheStats(hits=4, corrupt_evicted=1))
        stats.merge({"hits": 1, "misses": 1, "stores": 0,
                     "corrupt_evicted": 0, "cleared": 3})
        assert stats.to_dict() == {"hits": 6, "misses": 3, "stores": 2,
                                   "corrupt_evicted": 1, "cleared": 3,
                                   "breaker_trips": 0, "write_errors": 0}


class TestOpenCaches:
    def test_two_tiers_under_one_root(self, cache_root):
        compile_cache, result_cache = open_caches(cache_root)
        assert compile_cache.kind == "compile"
        assert result_cache.kind == "result"
        assert compile_cache.root == os.path.join(
            os.path.abspath(cache_root), "compile")
        assert result_cache.root == os.path.join(
            os.path.abspath(cache_root), "result")
