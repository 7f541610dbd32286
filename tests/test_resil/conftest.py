"""Shared fixtures for the fault-injection / resilience suite.

Worker functions live at module scope so forked engine workers can
resolve them; every test must leave the process-wide fault plan and
engine task timeout untouched (the autouse fixture asserts it).
"""

import pytest

import repro.bench.harness as harness_mod
from repro.exec import cache as exec_cache
from repro.exec import engine
from repro.resil import inject
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


@pytest.fixture(autouse=True)
def _no_leaked_state():
    yield
    assert inject.active_plan() is None, "test leaked an installed fault plan"
    assert engine._task_timeout is None, "test leaked a task timeout"
    assert not exec_cache.active_caches(), "test leaked installed caches"


@pytest.fixture
def tiny_workloads(monkeypatch):
    """One tiny synthetic workload so bench-level identity tests stay
    fast; forked engine workers inherit the patched module state."""
    monkeypatch.setattr(harness_mod, "WORKLOADS",
                        {"tiny": WorkloadSpec("tiny", "tiny.c", "synthetic")})
    monkeypatch.setattr(harness_mod, "load_workload", lambda name: TINY)
