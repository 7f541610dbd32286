"""CLI surface: ``repro cache stats|clear|verify``, ``repro bench
--workers/--cache-dir``, and ``python -m repro.fuzz --workers``."""

import json

import pytest

from repro.cli import main as repro_main
from repro.fuzz.cli import main as fuzz_main

PROG = "int main(void) { return 3; }"


@pytest.fixture
def prog_file(tmp_path):
    path = tmp_path / "prog.c"
    path.write_text(PROG)
    return str(path)


@pytest.fixture
def no_env_cache_dir(monkeypatch):
    monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)


class TestCacheCLI:
    def test_no_cache_dir_is_an_error(self, capsys, no_env_cache_dir):
        assert repro_main(["cache", "stats"]) == 2
        assert "REPRO_CACHE_DIR" in capsys.readouterr().err

    def test_cache_dir_from_environment(self, capsys, monkeypatch, cache_root):
        monkeypatch.setenv("REPRO_CACHE_DIR", cache_root)
        assert repro_main(["cache", "stats"]) == 0
        assert cache_root in capsys.readouterr().out

    def test_stats_on_empty_root(self, capsys, cache_root):
        assert repro_main(["cache", "stats", "--cache-dir", cache_root,
                           "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["compile"] == {"entries": 0, "bytes": 0}
        assert report["result"] == {"entries": 0, "bytes": 0}

    def test_cc_populates_then_stats_clear_verify(self, capsys, cache_root,
                                                  prog_file):
        assert repro_main(["cc", prog_file, "--cache-dir", cache_root]) == 3
        err = capsys.readouterr().err
        assert "cache[compile]: 0 hits, 1 misses, 1 stores" in err
        # Second run is a pure hit.
        assert repro_main(["cc", prog_file, "--cache-dir", cache_root]) == 3
        err = capsys.readouterr().err
        assert "cache[compile]: 1 hits, 0 misses, 0 stores" in err

        assert repro_main(["cache", "stats", "--cache-dir", cache_root,
                           "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["compile"]["entries"] == 1
        assert report["compile"]["bytes"] > 0

        assert repro_main(["cache", "verify", "--cache-dir", cache_root]) == 0
        assert "compile: 1/1 ok, 0 corrupt" in capsys.readouterr().out

        assert repro_main(["cache", "clear", "--cache-dir", cache_root]) == 0
        assert "compile: removed 1 entries" in capsys.readouterr().out
        assert repro_main(["cache", "stats", "--cache-dir", cache_root,
                           "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["compile"]["entries"] == 0

    def test_verify_exits_nonzero_on_corruption(self, capsys, cache_root,
                                                prog_file):
        from repro.exec.cache import CompileCache
        repro_main(["cc", prog_file, "--cache-dir", cache_root])
        capsys.readouterr()
        entry, = CompileCache(cache_root + "/compile").entry_paths()
        with open(entry, "r+b") as fh:
            fh.truncate(10)
        assert repro_main(["cache", "verify", "--cache-dir", cache_root,
                           "--json"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["compile"] == {"checked": 1, "ok": 0, "evicted": 1}


class TestBenchCLI:
    def _bench(self, capsys, *extra):
        rc = repro_main(["bench", "--model", "ss10", "--workloads", "tiny",
                         *extra])
        assert rc == 0
        return capsys.readouterr()

    def test_workers_table_is_byte_identical(self, capsys, tiny_workloads):
        serial = self._bench(capsys)
        sharded = self._bench(capsys, "--workers", "2")
        assert sharded.out == serial.out

    def test_cache_warm_rerun_identical_with_hits(self, capsys, tiny_workloads,
                                                  cache_root):
        cold = self._bench(capsys, "--workers", "2",
                           "--cache-dir", cache_root)
        assert "cache[result]: 0 hits" in cold.err
        warm = self._bench(capsys, "--workers", "2",
                           "--cache-dir", cache_root)
        assert warm.out == cold.out
        # Every cell replays from the result tier on the warm run.
        assert "cache[result]: 4 hits, 0 misses" in warm.err


class TestFuzzCLI:
    def test_workers_smoke(self, capsys, no_env_cache_dir):
        rc = fuzz_main(["--seed", "0", "--iters", "2", "--models", "ss10",
                        "--workers", "2", "--quiet"])
        assert rc == 0

    def test_workers_output_matches_serial(self, capsys, cache_root):
        argv = ["--seed", "0", "--iters", "3", "--models", "ss10",
                "--cache-dir", cache_root]
        assert fuzz_main(argv + ["--workers", "1"]) == 0
        serial = capsys.readouterr()
        assert fuzz_main(argv + ["--workers", "2"]) == 0
        sharded = capsys.readouterr()

        def stable(text):
            # Drop the wall-clock stage-attribution line; everything
            # else the campaign prints is deterministic.
            return [ln for ln in text.splitlines()
                    if not ln.startswith("stage wall:")]

        assert stable(sharded.out) == stable(serial.out)
        # The serial (cold) run populated the cache: 3 programs x (5
        # configs + 3 sink configs).  The sharded re-run compiles
        # nothing — every lookup is a hit.
        assert "24 misses, 24 stores" in serial.err
        assert "42 hits, 0 misses, 0 stores" in sharded.err
