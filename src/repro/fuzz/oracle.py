"""The five-config differential oracle.

For one source program:

1. compile under every config in :data:`ALL_CONFIGS` for every requested
   machine model and run normally — all fifteen cells must produce the
   same exit code, output text, and checksum(s) (generated programs
   print their checksums, so "output" subsumes them);
2. re-run the GC-safe configs (:data:`ADVERSARIAL_CONFIGS`) under the
   adversarial collector — a collection every ``adv_interval``
   instructions with reclaimed objects poisoned — and require the same
   observables again;
3. re-run :data:`SINK_CONFIGS` with the escape-analysis
   allocation-sinking pass applied (plain, and adversarially for the
   GC-safe subset): sinking changes instruction counts by design, but
   exit code and output must not move.  The generator emits sink bait
   (local scratch buffers, conditional escapes, aliases through casts,
   buffers live across an allocation) specifically to stress this line.

The unsafe ``O`` build is deliberately *excluded* from step 2: the
paper's thesis is precisely that an optimizing build without KEEP_LIVE
may die under adversarial collections (see
``tests/test_integration/test_disguise.py``), so "survives gc_interval=1"
is only a correctness requirement for the other four columns.  ``O0``
participates because an empty pass pipeline never manufactures
out-of-object pointers, and source-level interior pointers are valid
roots for the collector.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from ..cfront.errors import CFrontError
from ..exec.engine import run_sharded
from ..gc.collector import GCStats
from ..machine.driver import CompileConfig, CONFIGS, compile_source, front_memo
from ..machine.models import MODELS
from ..machine.vm import RunResult, run_program

ALL_CONFIGS = CONFIGS  # ("O0", "O", "O_safe", "g", "g_checked")
# Configs that must additionally survive the adversarial collector.
ADVERSARIAL_CONFIGS = ("O0", "O_safe", "g", "g_checked")
# Configs re-run with the allocation-sinking pass applied.  ``O`` is the
# pass's real target; ``O0``/``g`` exercise it on naive codegen (where
# debug frame stores usually block it — blocking must also be sound).
SINK_CONFIGS = ("O", "O0", "g")
# Sink cells that must also survive the adversarial collector (``O`` is
# excluded for the same reason as in step 2: unsafe by design).
SINK_ADVERSARIAL_CONFIGS = ("O0", "g")
# The reference cell: unoptimized, fully debuggable — the paper's
# "obviously correct" column.
REFERENCE_CONFIG = "g"

DEFAULT_MODELS = ("ss10", "ss2", "p90")


def _agreement_key(result: RunResult) -> tuple:
    """What two cells must agree on: never counts, since builds
    legitimately differ in how long they run and how often they
    collect and check."""
    return (result.status, result.exit_code, result.output)


@dataclass
class Mismatch:
    kind: str       # "plain" | "adversarial" | "reference"
    config: str
    model: str
    expected: str
    actual: str

    def signature(self) -> tuple[str, str, str]:
        return (self.kind, self.config, self.model)

    def describe(self) -> str:
        return (f"[{self.kind}] {self.config}/{self.model}: "
                f"expected {self.expected}, got {self.actual}")


@dataclass
class OracleReport:
    mismatches: list[Mismatch] = field(default_factory=list)
    runs: int = 0
    reference: RunResult | None = None
    # Merged collector counters over every cell run (GCStats.merge),
    # so serial and sharded campaigns can pin identical aggregates.
    gc_totals: GCStats = field(default_factory=GCStats)

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def describe(self) -> str:
        if self.ok:
            return f"ok ({self.runs} cells agree)"
        return "\n".join(m.describe() for m in self.mismatches)


def compile_and_run(source: str, config_name: str, model_name: str = "ss10",
                    gc_interval: int = 0, poison: bool = True,
                    max_instructions: int = 5_000_000,
                    sink: bool = False) -> RunResult:
    """Compile + execute one cell; a compile error is a result too, so
    cells are always comparable.  ``sink`` compiles with the allocation-
    sinking stage."""
    config = replace(CompileConfig.named(config_name, MODELS[model_name]),
                     sink=sink)
    try:
        compiled = compile_source(source, config)
    except CFrontError as exc:
        return RunResult(None, 0, 0, "", 0, 0, status="compile-error",
                         detail=str(exc))
    return run_program(compiled.asm, config.model, gc_interval=gc_interval,
                       poison=poison, max_instructions=max_instructions)


def _cell_worker(payload: tuple) -> RunResult:
    """Engine task: one oracle cell.  Payload is (source, config, model,
    gc_interval, poison, max_instructions, sink) — all picklable
    scalars."""
    source, config, model, gc_interval, poison, max_instructions, sink = payload
    return compile_and_run(source, config, model, gc_interval=gc_interval,
                           poison=poison, max_instructions=max_instructions,
                           sink=sink)


def run_cells(cells: list[tuple], workers: int = 1) -> list[RunResult]:
    """Run oracle cells through the execution engine, results in cell
    order.  ``workers <= 1`` executes inline (deterministic serial
    path); engine-level failures (a worker dying) are not folded into
    results — they raise, since a partial oracle matrix proves nothing.
    """
    merged = run_sharded(cells, _cell_worker, workers=workers,
                         label="oracle").raise_on_failure()
    return merged.results


def matrix_cells(source: str, models: tuple[str, ...] = DEFAULT_MODELS,
                 adv_interval: int = 1,
                 adv_models: tuple[str, ...] | None = None,
                 max_instructions: int = 5_000_000) -> list[tuple]:
    """The canonical cell list for one program's differential matrix
    (reference excluded), each tagged with its mismatch kind."""
    primary = models[0]
    cells: list[tuple] = []
    for model in models:
        for config in ALL_CONFIGS:
            if config == REFERENCE_CONFIG and model == primary:
                continue  # that cell *is* the reference
            cells.append(("plain", (source, config, model, 0, True,
                                    max_instructions, False)))
    for model in (adv_models or (primary,)):
        for config in ADVERSARIAL_CONFIGS:
            cells.append(("adversarial", (source, config, model,
                                          adv_interval, True,
                                          max_instructions, False)))
    for config in SINK_CONFIGS:
        cells.append(("sink", (source, config, primary, 0, True,
                               max_instructions, True)))
    for config in SINK_ADVERSARIAL_CONFIGS:
        cells.append(("sink-adversarial", (source, config, primary,
                                           adv_interval, True,
                                           max_instructions, True)))
    return cells


def check_program(source: str, models: tuple[str, ...] = DEFAULT_MODELS,
                  adv_interval: int = 1,
                  adv_models: tuple[str, ...] | None = None,
                  max_instructions: int = 5_000_000,
                  workers: int = 1) -> OracleReport:
    """Run the full differential matrix over one program.

    ``models`` drives the plain (no forced collections) agreement check
    for all five configs; ``adv_models`` (default: the first model)
    drives the adversarial re-run of the GC-safe configs.  ``workers``
    shards the (config, model, gc-mode) cells across processes via the
    execution engine; the report is identical for any worker count.

    The cells share compile stages for the duration of the call
    (:func:`repro.machine.driver.front_memo`): the program is lexed
    once, parsed once per annotation mode, optimized once per config,
    and register-allocated once per (config, register count, sink).
    """
    with front_memo():
        report = OracleReport()
        primary = models[0]
        ref = compile_and_run(source, REFERENCE_CONFIG, primary,
                              max_instructions=max_instructions)
        report.reference = ref
        report.runs += 1
        report.gc_totals.merge(ref.gc_stats)
        if ref.status != "ok":
            report.mismatches.append(Mismatch(
                "reference", REFERENCE_CONFIG, primary,
                "a runnable program", ref.describe()))
            return report
        cells = matrix_cells(source, models, adv_interval, adv_models,
                             max_instructions)
        outcomes = run_cells([payload for _, payload in cells], workers=workers)
        for (kind, payload), out in zip(cells, outcomes):
            _, config, model = payload[:3]
            report.runs += 1
            report.gc_totals.merge(out.gc_stats)
            if _agreement_key(out) != _agreement_key(ref):
                report.mismatches.append(Mismatch(
                    kind, config, model, ref.describe(), out.describe()))
        return report


def mismatch_predicate(signature: tuple[str, str, str] | None = None,
                       max_instructions: int = 5_000_000,
                       adv_interval: int = 1):
    """Build a reducer predicate: "does this source still mismatch?"

    With a ``signature`` (kind, config, model) from an original finding,
    the predicate re-checks only that cell against the reference — two
    compiles instead of the full matrix — and demands the *same* cell
    still disagrees, so reduction cannot wander onto a different bug.
    Sources that no longer compile simply fail the predicate.

    Probes run through the execution engine with ``workers=1`` pinned:
    reduction is a sequential search whose every step depends on the
    previous answer, so probes must never inherit campaign-level
    parallelism — but they still flow through the same engine (and
    therefore the same compile cache) as every other oracle cell.
    """
    if signature is None:
        def pred_full(source: str) -> bool:
            return not check_program(
                source, max_instructions=max_instructions,
                adv_interval=adv_interval, workers=1).ok
        return pred_full

    kind, config, model = signature

    def pred(source: str) -> bool:
        ref, = run_cells([(source, REFERENCE_CONFIG, model, 0, True,
                           max_instructions, False)], workers=1)
        if ref.status != "ok":
            return kind == "reference"
        gc_interval = adv_interval if kind.endswith("adversarial") else 0
        sink = kind.startswith("sink")
        out, = run_cells([(source, config, model, gc_interval, True,
                           max_instructions, sink)], workers=1)
        return _agreement_key(out) != _agreement_key(ref)

    return pred
