"""The benchmark's three workloads.

Each workload is closed-loop and serial: one operation at a time, in one
process, with ``workers=1``, no cache directory and the ``repro.obs``
tracer off.  The seed fixes its inputs; a *pass* is one sweep over them.

* ``paper-matrix`` -- the four paper programs x five builds (O, O_safe,
  g, g_checked, O_safe + peephole) on ss10 through ``Harness.run_cell``:
  20 compile+execute cells, the job behind T2/T4/T5.  The seed orders
  the cells.
* ``fuzz-oracle`` -- ``fuzz.oracle.check_program`` with its defaults on
  generated programs.  The seed draws one program from each of
  :attr:`FuzzOracle.STRATA` cost strata of a pinned catalogue, so every
  run checks programs of the same size mix.
* ``build`` -- the source-to-source tool and the compiler without the
  VM: for each of six sources, ``check``, ``annotate`` in safe and
  checked mode, ``compile`` at all five configs and ``postprocess`` on
  the O_safe build.  The seed orders the sources and configs.

Every operation's observable result is compared with the values pinned
in ``expected.json`` (see ``pin.py``); a mismatch counts as a failed
operation, never as an exception.

Work is timed in *units* -- a paper cell, a fuzz program, a build
source -- and a fixed pure-Python kernel is timed before every unit and
after the last.  The host's speed drifts by up to 2x within seconds on
a shared machine; scaling a unit's time by ``REFERENCE_KERNEL_S`` over
the mean of its two neighbouring kernel times reports it in
reference-host seconds (seconds on a host where the kernel takes
exactly ``REFERENCE_KERNEL_S``).  The kernel runs no toolchain code and
runs with the cyclic collector off, so neither a faster toolchain nor
a larger live heap moves it; the unscaled pass time is reported too.
"""

from __future__ import annotations

import gc
import hashlib
import random
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

MODEL = "ss10"
PAPER_PROGRAMS = ("cordtest", "cfrac", "miniawk", "minips")
#: (cell label, config, postprocessed): the paper's four columns plus
#: T5's safe + peephole build.
PAPER_CELLS = (("O", "O", False), ("O_safe", "O_safe", False),
               ("g", "g", False), ("g_checked", "g_checked", False),
               ("O_safe_pp", "O_safe", True))
BUILD_SOURCES = PAPER_PROGRAMS + ("gcbench", "scratch")
BUILD_CONFIGS = ("O0", "O", "O_safe", "g", "g_checked")
WARMUP_SOURCE = "int main(void) { int *p = (int *)GC_malloc(8); return p[0]; }\n"

clock = time.perf_counter


def setup_imports() -> None:
    """Import every toolchain module the workloads call."""
    import repro.api  # noqa: F401
    import repro.bench.harness  # noqa: F401
    import repro.fuzz.gen  # noqa: F401
    import repro.fuzz.oracle  # noqa: F401
    import repro.postproc.peephole  # noqa: F401
    import repro.postproc.sink  # noqa: F401
    import repro.workloads  # noqa: F401


def warm_up() -> None:
    """One tiny compile, run and annotation, so lazily built state is in
    place before the first timed operation."""
    from repro.api import Toolchain
    tc = Toolchain(config="O")
    tc.run(WARMUP_SOURCE)
    tc.annotate(WARMUP_SOURCE)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


#: The calibration kernel's time on the reference host.
REFERENCE_KERNEL_S = 0.030


class _Node:
    __slots__ = ("key", "value", "next")

    def __init__(self, key, value, nxt):
        self.key = key
        self.value = value
        self.next = nxt


def _kernel(n: int = 45000) -> int:
    """Dict, object, bytearray and int work, like the toolchain's own."""
    table: dict[int, int] = {}
    head = None
    mem = bytearray(4096)
    acc = 0
    for i in range(n):
        key = i & 255
        table[key] = table.get(key, 0) + i
        head = _Node(key, i, head if i & 63 else None)
        mem[i & 4095] = i & 255
        acc = (acc * 31 + len(str(i)) + mem[(i * 7) & 4095]) & 0xFFFFFFFF
    while head is not None:
        acc ^= head.value
        head = head.next
    return acc


def host_sample() -> float:
    """Seconds the calibration kernel takes right now.

    The cyclic collector is off while the kernel runs: a collection
    there would scan every object the toolchain keeps alive, so a change
    that keeps more state alive would slow the kernel and be credited
    with a speed-up it did not make."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = clock()
        _kernel()
        return clock() - t0
    finally:
        if was_enabled:
            gc.enable()


def speed_factor(before: float, after: float) -> float:
    """Reference-host seconds per host second between two samples."""
    return 2 * REFERENCE_KERNEL_S / (before + after)


@dataclass
class PassResult:
    """What one pass did: its units' host times and speed factors, and
    its checks."""

    units: list[tuple[str, str, float]] = field(default_factory=list)
    factors: dict[str, float] = field(default_factory=dict)
    raw_wall_s: float = 0.0             # host time, kernel samples included
    cells: int = 0                      # compile(+execute) cells finished
    check_ms: list[tuple[str, float]] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)

    def fail(self, what: str) -> None:
        self.failed += 1
        self.errors.append(what)

    @property
    def wall_s(self) -> float:
        """The pass time in reference-host seconds."""
        return sum(raw * self.factors[label] for label, _, raw in self.units)

    @property
    def program_s(self) -> list[float]:
        """Reference-host seconds per program (paper program, fuzz
        program, build source), in first-seen order."""
        per: dict[str, float] = {}
        for label, group, raw in self.units:
            per[group] = per.get(group, 0.0) + raw * self.factors[label]
        return list(per.values())


class Pass:
    """Times one pass's units, each bracketed by host-speed samples."""

    def __init__(self, rec):
        self.rec = rec
        self.res = PassResult()
        self._samples: list[float] = []
        self._t0 = clock()

    @contextmanager
    def unit(self, label: str, group: str):
        self._samples.append(host_sample())
        self.rec.unit = label
        t0 = clock()
        try:
            yield self.res
        finally:
            self.res.units.append((label, group, clock() - t0))

    def finish(self) -> PassResult:
        self._samples.append(host_sample())
        s = self._samples
        self.res.factors = {label: speed_factor(a, b) for (label, _, _), a, b
                            in zip(self.res.units, s, s[1:])}
        self.res.raw_wall_s = clock() - self._t0
        return self.res


# -- paper-matrix --------------------------------------------------------------

def observe_cell(cell) -> dict:
    """The pinned observables of one harness cell."""
    return {"exit_code": cell.exit_code, "output": digest(cell.output),
            "cycles": cell.cycles, "instructions": cell.instructions,
            "collections": cell.collections, "code_size": cell.code_size}


def _pct(value: int, base: int) -> str:
    return f"{100.0 * (value - base) / base:.1f}"


def paper_tables(cells: dict[str, dict]) -> dict:
    """T2 (ss10 slowdowns), T4 (code expansion) and T5 (safe + peephole
    residuals) as EXPERIMENTS.md prints them, from observed cells."""
    t2, t4, t5 = {}, {}, {}
    for program in PAPER_PROGRAMS:
        base = cells[f"{program}/O"]
        cols = [cells[f"{program}/{c}"] for c in ("O_safe", "g", "g_checked")]
        t2[program] = [_pct(c["cycles"], base["cycles"]) for c in cols]
        t4[program] = [_pct(c["code_size"], base["code_size"]) for c in cols]
        pp = cells[f"{program}/O_safe_pp"]
        t5[program] = [_pct(pp["cycles"], base["cycles"]),
                       _pct(pp["code_size"], base["code_size"])]
    return {"T2": t2, "T4": t4, "T5": t5}


#: Which cell each table column is computed from (after the O baseline).
_TABLE_CELLS = {"T2": ("O_safe", "g", "g_checked"),
                "T4": ("O_safe", "g", "g_checked"),
                "T5": ("O_safe_pp", "O_safe_pp")}


class PaperMatrix:
    name = "paper-matrix"

    def __init__(self, seed: int, expected: dict,
                 programs: tuple[str, ...] = PAPER_PROGRAMS):
        self.expected = expected
        self.programs = programs
        self.order = [(p, label, config, post) for p in programs
                      for label, config, post in PAPER_CELLS]
        random.Random(f"{self.name}:{seed}").shuffle(self.order)

    def prepare(self) -> None:
        """The harness loads the paper sources itself; nothing to make."""

    def run_pass(self, rec) -> PassResult:
        from repro.bench.harness import Harness
        p = Pass(rec)
        # A fresh harness per pass: its in-memory cell memo must never
        # serve a cell a second time.
        harness = Harness(MODEL)
        cells, crashed = {}, {}
        for program, label, config, post in self.order:
            key = f"{program}/{label}"
            with p.unit(key, program):
                try:
                    cells[key] = harness.run_cell(program, config, post)
                except Exception as exc:  # a broken toolchain fails the cell
                    crashed[key] = f"{type(exc).__name__}: {exc}"
        res = p.finish()
        res.cells = len(cells)
        self._check(res, cells, crashed)
        return res

    def _check(self, res: PassResult, cells: dict, crashed: dict) -> None:
        pinned = self.expected["cells"]
        observed = {key: observe_cell(cell) for key, cell in cells.items()}
        bad = set(crashed)
        res.errors.extend(f"{key}: {what}" for key, what in crashed.items())
        for key, obs in observed.items():
            ref = cells.get(f"{key.split('/')[0]}/g")
            if ref is not None and (cells[key].exit_code, cells[key].output) \
                    != (ref.exit_code, ref.output):
                bad.add(key)
                res.errors.append(f"{key}: answer differs from the g cell")
            for name, want in pinned[key].items():
                if obs[name] != want:
                    bad.add(key)
                    res.errors.append(f"{key}: {name} {obs[name]} != pinned "
                                      f"{want}")
        if self.programs == PAPER_PROGRAMS and not crashed:
            tables = paper_tables(observed)
            for table, rows in self.expected["tables"].items():
                for program, want in rows.items():
                    got = tables[table][program]
                    for col, (g, w) in enumerate(zip(got, want)):
                        if g != w:
                            key = f"{program}/{_TABLE_CELLS[table][col]}"
                            bad.add(key)
                            res.errors.append(
                                f"{table} {program} column {col}: {g}% != "
                                f"EXPERIMENTS.md {w}%")
        res.attempted = len(self.order)
        res.failed = len(bad)


# -- fuzz-oracle ---------------------------------------------------------------

def observe_reference(outcome) -> tuple[int | None, str]:
    """The pinned observables of an oracle reference outcome."""
    return outcome.exit_code, digest(outcome.output)


def select_programs(catalogue: list, seed: int, strata: int) -> list:
    """One catalogue entry per cost stratum, drawn by ``seed``.

    Entries are ``[program_seed, exit_code, output_digest, cost_s]``;
    strata are consecutive runs of the catalogue sorted by cost, so the
    size mix is the same for every seed while the programs differ."""
    ranked = sorted(catalogue, key=lambda e: (e[3], e[0]))
    size = len(ranked) // strata
    rng = random.Random(f"fuzz-oracle:{seed}")
    chosen = [ranked[i * size + rng.randrange(size)] for i in range(strata)]
    rng.shuffle(chosen)
    return chosen


class FuzzOracle:
    name = "fuzz-oracle"
    STRATA = 16

    def __init__(self, seed: int, expected: dict,
                 program_seeds: tuple[int, ...] | None = None):
        catalogue = expected["catalogue"]
        if program_seeds is None:
            self.entries = select_programs(catalogue, seed, self.STRATA)
        else:
            by_seed = {e[0]: e for e in catalogue}
            self.entries = [by_seed[s] for s in program_seeds]
        self.programs: list[tuple[list, str]] = []

    def prepare(self) -> None:
        from repro.fuzz.gen import generate_program
        self.programs = [(entry, generate_program(entry[0]))
                         for entry in self.entries]

    def run_pass(self, rec) -> PassResult:
        from repro.fuzz.oracle import check_program
        p = Pass(rec)
        reports = []
        for entry, source in self.programs:
            label = f"program {entry[0]}"
            with p.unit(label, label):
                try:
                    reports.append(check_program(source))
                except Exception as exc:  # a broken toolchain fails it
                    reports.append(f"{type(exc).__name__}: {exc}")
        res = p.finish()
        for (entry, _), report in zip(self.programs, reports):
            res.attempted += 1
            if isinstance(report, str):
                res.fail(f"program {entry[0]}: {report}")
                continue
            res.cells += report.runs
            ref = report.reference
            if not report.ok:
                res.fail(f"program {entry[0]}: {report.describe()}")
            elif (ref.status != "ok"
                  or list(observe_reference(ref)) != entry[1:3]):
                res.fail(f"program {entry[0]}: reference {ref.describe()} "
                         f"is not the pinned outcome")
        return res


# -- build ---------------------------------------------------------------------

#: One source's operations in dependency order (postprocess rewrites
#: the O_safe build in place, so it runs last).
BUILD_OPS = (("check", "annotate:safe", "annotate:checked")
             + tuple(f"compile:{c}" for c in BUILD_CONFIGS)
             + ("postprocess",))


def build_op(tc, source: str, op: str, state: dict):
    """Run one build operation; return its pinned observable."""
    kind, _, arg = op.partition(":")
    if kind == "check":
        return [d.render(source) for d in tc.check(source)]
    if kind == "annotate":
        return digest(tc.annotate(source, mode=arg).text)
    if kind == "compile":
        compiled = tc.compile(source, arg)
        state[arg] = compiled
        return compiled.code_size
    from repro.postproc.peephole import postprocess
    asm = state.pop("O_safe").asm
    stats = postprocess(asm)
    return [stats.total, asm.code_size()]


def observe_build_source(tc, source: str) -> dict:
    state: dict = {}
    return {op: build_op(tc, source, op, state) for op in BUILD_OPS}


class Build:
    name = "build"

    def __init__(self, seed: int, expected: dict,
                 sources: tuple[str, ...] = BUILD_SOURCES):
        self.expected = expected
        rng = random.Random(f"{self.name}:{seed}")
        self.order = list(sources)
        rng.shuffle(self.order)
        self.ops = {}
        for name in self.order:
            compiles = list(BUILD_OPS[3:-1])
            rng.shuffle(compiles)
            self.ops[name] = list(BUILD_OPS[:3]) + compiles + ["postprocess"]
        self.sources: dict[str, str] = {}
        self.tc = None

    def prepare(self) -> None:
        from repro.api import Toolchain
        from repro.workloads import load_workload
        self.tc = Toolchain(run_cpp=True)
        self.sources = {name: load_workload(name) for name in self.order}

    def run_pass(self, rec) -> PassResult:
        p = Pass(rec)
        observed = []
        for name in self.order:
            source = self.sources[name]
            state: dict = {}
            with p.unit(name, name) as res:
                for op in self.ops[name]:
                    t0 = clock()
                    try:
                        value = build_op(self.tc, source, op, state)
                    except Exception as exc:  # a broken toolchain fails it
                        value = f"{type(exc).__name__}: {exc}"
                    ms = 1e3 * (clock() - t0)
                    if op == "check":
                        res.check_ms.append((name, ms))
                    elif op.startswith("compile"):
                        res.cells += 1
                    observed.append((name, op, value))
        res = p.finish()
        for name, op, value in observed:
            res.attempted += 1
            want = self.expected[name][op]
            if value != want:
                res.fail(f"{name} {op}: {value!r} != pinned {want!r}")
        return res


WORKLOADS = {w.name: w for w in (PaperMatrix, FuzzOracle, Build)}

