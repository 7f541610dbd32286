"""Benchmark harness: builds the paper's measurement matrix.

For each workload and machine model it compiles the four configurations
(``-O`` baseline, ``-O safe``, ``-g``, ``-g checked``), runs them on the
VM, verifies they all compute the same answer, and reports slowdown
percentages relative to the optimized baseline — the exact structure of
the paper's tables.  Code-size expansion (T4) and the postprocessor
variant (T5) reuse the same machinery.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..exec import cache as exec_cache
from ..exec.engine import run_sharded
from ..machine.driver import CompileConfig, compile_source
from ..machine.models import MODELS, MachineModel
from ..machine.vm import VMError, run_program
from ..obs import runtime as obs_runtime
from ..obs.report import summarize
from ..postproc import postprocess
from ..postproc.peephole import PeepholeStats
from ..postproc.sink import SinkStats, sink_program
from ..workloads import AUX_WORKLOADS, WORKLOADS, load_workload

CONFIG_ORDER = ("O", "O_safe", "g", "g_checked")


@dataclass
class CellResult:
    workload: str
    config: str
    model: str
    cycles: int
    instructions: int
    code_size: int
    exit_code: int
    collections: int
    output: str
    postprocessed: bool = False
    peephole_stats: PeepholeStats | None = None
    # ``repro-obs-summary/1`` dict for this cell's compile+run when the
    # session tracer was enabled; None otherwise (telemetry is opt-in
    # and never perturbs the measured cycle counts).
    telemetry: dict | None = None
    # Allocation-sinking rewrite stats (None = pass not applied).  The
    # pass is opt-in and changes counts, so it salts the result-cache
    # key whenever set.
    sink_stats: SinkStats | None = None


@dataclass
class WorkloadRow:
    """All configurations of one workload on one model."""

    workload: str
    model: str
    cells: dict[str, CellResult] = field(default_factory=dict)

    @property
    def baseline(self) -> CellResult:
        return self.cells["O"]

    def slowdown_pct(self, config: str, metric: str = "cycles") -> float:
        base = getattr(self.baseline, metric)
        value = getattr(self.cells[config], metric)
        return 100.0 * (value - base) / base

    def verify_consistent(self) -> None:
        codes = {c.exit_code for c in self.cells.values()}
        if len(codes) != 1:
            raise AssertionError(
                f"{self.workload}/{self.model}: configurations disagree on the "
                f"answer: { {k: v.exit_code for k, v in self.cells.items()} }")


class Harness:
    def __init__(self, model_key: str = "ss10", sink: bool = False):
        self.model_key = model_key
        self.model: MachineModel = MODELS[model_key]
        # Applied to every cell this harness runs: the allocation-
        # sinking postproc pass (count-changing, like `postprocessed`).
        self.sink = sink
        self._cache: dict[tuple, CellResult] = {}

    def run_cell(self, workload: str, config_name: str,
                 postprocessed: bool = False) -> CellResult:
        key = (workload, config_name, postprocessed)
        if key in self._cache:
            return self._cache[key]
        spec = WORKLOADS.get(workload) or AUX_WORKLOADS[workload]
        source = load_workload(workload)
        config = CompileConfig.named(config_name, self.model)
        # Content-addressed cell memoization: the VM is deterministic,
        # so an executed cell is a pure function of (source, config,
        # stdin, postprocessed, sink) and can be replayed from disk
        # bit-identically.
        rcache = exec_cache.active_cache("result")
        rkey = (rcache.key_for(source, config, stdin=spec.stdin,
                               postprocessed=postprocessed, sink=self.sink)
                if rcache is not None else None)
        if rkey is not None:
            hit = rcache.get(rkey)
            if hit is not None:
                self._cache[key] = hit
                return hit
        tracer = obs_runtime.get_tracer()
        ev_start = len(tracer.events)
        with tracer.span("bench.cell", workload=workload, config=config_name,
                         model=self.model_key, postprocessed=postprocessed):
            compiled = compile_source(source, config)
            stats = postprocess(compiled.asm) if postprocessed else None
            sink_stats = sink_program(compiled.asm) if self.sink else None
            run = run_program(compiled.asm, self.model, stdin=spec.stdin)
        if run.status != "ok":
            raise VMError(run.describe())
        telemetry = (summarize(tracer.events[ev_start:])
                     if tracer.enabled else None)
        cell = CellResult(
            workload=workload, config=config_name, model=self.model_key,
            cycles=run.cycles, instructions=run.instructions,
            code_size=compiled.asm.code_size(), exit_code=run.exit_code,
            collections=run.collections, output=run.output,
            postprocessed=postprocessed, peephole_stats=stats,
            telemetry=telemetry, sink_stats=sink_stats)
        self._cache[key] = cell
        if rkey is not None:
            rcache.put(rkey, cell)
        return cell

    def run_workload(self, workload: str,
                     configs: tuple[str, ...] = CONFIG_ORDER) -> WorkloadRow:
        row = WorkloadRow(workload, self.model_key)
        for config in configs:
            row.cells[config] = self.run_cell(workload, config)
        row.verify_consistent()
        return row

    def run_all(self, workloads: tuple[str, ...] | None = None,
                configs: tuple[str, ...] = CONFIG_ORDER,
                workers: int = 1) -> dict[str, WorkloadRow]:
        """Every (workload, config) cell for this model.

        ``workers > 1`` shards the cells across processes through the
        execution engine; rows are assembled from the canonical-order
        merge, so tables render byte-identically for any worker count.
        """
        names = tuple(workloads or tuple(WORKLOADS))
        if workers <= 1:
            return {name: self.run_workload(name, configs) for name in names}
        payloads = [(self.model_key, name, config, False, self.sink)
                    for name in names for config in configs]
        merged = run_sharded(payloads, _cell_worker, workers=workers,
                             label="bench").raise_on_failure()
        out: dict[str, WorkloadRow] = {}
        for (_, name, config, *_), cell in zip(payloads, merged.results):
            row = out.setdefault(name, WorkloadRow(name, self.model_key))
            row.cells[config] = cell
            self._cache[(name, config, False)] = cell
        for row in out.values():
            row.verify_consistent()
        return out

    # -- T5: safe + postprocessor ------------------------------------------

    def run_postproc_row(self, workload: str) -> dict[str, CellResult]:
        """Baseline, safe, and safe+postprocessed cells for T5."""
        cells = {
            "O": self.run_cell(workload, "O"),
            "O_safe": self.run_cell(workload, "O_safe"),
            "O_safe_pp": self.run_cell(workload, "O_safe", postprocessed=True),
        }
        codes = {c.exit_code for c in cells.values()}
        if len(codes) != 1:
            raise AssertionError(f"{workload}: postprocessed code changed the answer")
        return cells

    def run_postproc_rows(self, workloads: tuple[str, ...] | None = None,
                          workers: int = 1) -> dict[str, dict[str, CellResult]]:
        """T5 rows for several workloads, optionally sharded."""
        names = tuple(workloads or tuple(WORKLOADS))
        if workers <= 1:
            return {name: self.run_postproc_row(name) for name in names}
        variants = (("O", False), ("O_safe", False), ("O_safe_pp", True))
        payloads = [(self.model_key, name,
                     "O_safe" if post else config, post, self.sink)
                    for name in names for config, post in variants]
        merged = run_sharded(payloads, _cell_worker, workers=workers,
                             label="bench").raise_on_failure()
        out: dict[str, dict[str, CellResult]] = {}
        it = iter(merged.results)
        for name in names:
            cells = {config: next(it) for config, _ in variants}
            codes = {c.exit_code for c in cells.values()}
            if len(codes) != 1:
                raise AssertionError(
                    f"{name}: postprocessed code changed the answer")
            out[name] = cells
        return out


def _cell_worker(payload: tuple) -> CellResult:
    """Engine task: one benchmark cell.  A fresh per-process Harness is
    correct because cells are independent; cross-process reuse comes
    from the content-addressed caches, not in-memory state.  A payload
    is (model, workload, config, postprocessed, sink)."""
    model_key, workload, config_name, postprocessed, sink = payload
    return Harness(model_key, sink=sink).run_cell(
        workload, config_name, postprocessed)
