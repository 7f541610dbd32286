"""Bench harness tests, run against a tiny synthetic workload so they
stay fast (the real workloads are exercised by benchmarks/ and the
integration suite)."""

import pytest

import repro.bench.harness as harness_mod
from repro.bench.harness import Harness, WorkloadRow
from repro.workloads import WorkloadSpec

TINY = """
int main(void) {
    char *s = (char *)GC_malloc(16);
    int i, t = 0;
    for (i = 0; i < 10; i++) s[i] = i * 2;
    for (i = 0; i < 10; i++) t += s[i];
    return t;
}
"""


@pytest.fixture
def tiny_harness(monkeypatch):
    monkeypatch.setattr(harness_mod, "WORKLOADS",
                        {"tiny": WorkloadSpec("tiny", "tiny.c", "synthetic")})
    monkeypatch.setattr(harness_mod, "load_workload", lambda name: TINY)
    return Harness("ss10")


class TestHarness:
    def test_run_cell_populates_fields(self, tiny_harness):
        cell = tiny_harness.run_cell("tiny", "O")
        assert cell.exit_code == 90
        assert cell.cycles > 0 and cell.instructions > 0
        assert cell.code_size > 0
        assert cell.config == "O" and cell.model == "ss10"

    def test_cells_are_cached(self, tiny_harness):
        first = tiny_harness.run_cell("tiny", "O")
        second = tiny_harness.run_cell("tiny", "O")
        assert first is second

    def test_postprocessed_cell_cached_separately(self, tiny_harness):
        plain = tiny_harness.run_cell("tiny", "O_safe")
        pp = tiny_harness.run_cell("tiny", "O_safe", postprocessed=True)
        assert plain is not pp
        assert pp.peephole_stats is not None

    def test_sink_harness_cells_carry_sink_stats(self):
        cell = Harness("ss10", sink=True).run_cell("scratch", "O")
        assert cell.sink_stats is not None and cell.sink_stats.sunk > 0
        assert cell.collections == 0

    def test_run_workload_builds_row(self, tiny_harness):
        row = tiny_harness.run_workload("tiny")
        assert set(row.cells) == {"O", "O_safe", "g", "g_checked"}
        assert row.baseline.config == "O"

    def test_slowdown_pct(self, tiny_harness):
        row = tiny_harness.run_workload("tiny")
        assert row.slowdown_pct("O") == 0.0
        assert row.slowdown_pct("g_checked") > row.slowdown_pct("g")

    def test_verify_consistent_raises_on_disagreement(self):
        from repro.bench.harness import CellResult
        row = WorkloadRow("w", "ss10")
        row.cells["O"] = CellResult("w", "O", "ss10", 1, 1, 1, 0, 0, "")
        row.cells["g"] = CellResult("w", "g", "ss10", 1, 1, 1, 5, 0, "")
        with pytest.raises(AssertionError):
            row.verify_consistent()

    def test_postproc_row(self, tiny_harness):
        cells = tiny_harness.run_postproc_row("tiny")
        assert set(cells) == {"O", "O_safe", "O_safe_pp"}
        assert cells["O_safe_pp"].cycles <= cells["O_safe"].cycles
