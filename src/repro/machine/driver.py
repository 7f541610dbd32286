"""End-to-end compilation driver.

Reproduces the paper's build matrix as configurations:

=============  =========  ==========  =======================================
config          optimizer  annotation  paper column
=============  =========  ==========  =======================================
``O0``          off*       none        "-O0": register lowering, no opt passes
``O``           on         none        the ``-O``/``-O2`` baseline (unsafe!)
``O_safe``      on         KEEP_LIVE   "-O, safe"
``g``           off        none        "-g" (fully debuggable, hence GC-safe)
``g_checked``   off        checked     "-g, checked" (GC_same_obj calls)
=============  =========  ==========  =======================================

(*) ``O0`` uses the optimizing (register-based) lowering but runs an
empty pass pipeline — the same object code shape as ``O`` without any
transformation, which makes it the natural middle rung for differential
testing: a divergence between ``O0`` and ``g`` implicates lowering or
register allocation, while a divergence between ``O`` and ``O0``
implicates an optimizer pass.

Run a compiled program with :func:`repro.machine.vm.run_program`.

A compilation has two halves.  The *front half* (cpp, lex, parse, typecheck,
annotate, lower, optimize) does not depend on the machine model; the
*back half* (register allocation, code generation, then the peephole
and sinking stages the config names) does, through ``model.num_regs``
alone, and reads the optimized IR without changing it.  Those stages
run here only, so the compile cache covers them and callers only read
compiled programs.  Inside :func:`front_memo`, ``compile_source``
computes each stage once per distinct input: one lex per source, one
parse per annotation mode, one front half per model-free config and
one back half per register file and stage set.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field, replace

from ..cfront.cpp import preprocess
from ..cfront.lexer import Token, tokenize
from ..cfront.parser import parse
from ..cfront.typecheck import typecheck
from ..exec import cache as exec_cache
from ..obs import runtime as obs_runtime
from ..core.annotate import AnnotateOptions, Annotator
from ..postproc.peephole import PeepholeStats, postprocess
from ..postproc.sink import SinkStats, sink_program
from ..resil import inject as resil_inject
from .asm import MProgram
from .codegen import generate_program
from .ir import IRProgram
from .lower import lower_unit
from .models import MachineModel, SPARC_10
from .opt import DEFAULT_PASSES, optimize

CONFIGS = ("O0", "O", "O_safe", "g", "g_checked")


@dataclass
class CompileConfig:
    """One cell of the paper's build matrix."""

    optimize: bool = True
    safe: bool = False  # KEEP_LIVE annotation (GC-safety mode)
    checked: bool = False  # GC_same_obj annotation (debug checking mode)
    model: MachineModel = SPARC_10
    passes: tuple[str, ...] = DEFAULT_PASSES
    annotate_options: AnnotateOptions | None = None
    # The paper's naive KEEP_LIVE implementation: "a call to an external
    # function whose implementation is unavailable to the compiler ...
    # but which actually just returns its first argument.  This
    # implementation ... is, of course, terribly inefficient."  When set,
    # safe-mode KEEP_LIVE lowers to a real call instead of the zero-cost
    # barrier, so the difference is measurable (ablation benchmark).
    naive_keep_live: bool = False
    run_cpp: bool = True
    include_dirs: list[str] = field(default_factory=list)
    # The back half's last stages, peephole first (T5's "-O safe +
    # postprocessor"), then allocation sinking; both change counts.
    peephole: bool = False
    sink: bool = False

    @staticmethod
    def named(name: str, model: MachineModel = SPARC_10) -> "CompileConfig":
        if name == "O0":
            return CompileConfig(optimize=True, passes=(), model=model)
        if name == "O":
            return CompileConfig(optimize=True, model=model)
        if name == "O_safe":
            return CompileConfig(optimize=True, safe=True, model=model)
        if name == "g":
            return CompileConfig(optimize=False, model=model)
        if name == "g_checked":
            return CompileConfig(optimize=False, checked=True, model=model)
        raise ValueError(f"unknown config {name!r} (expected one of {CONFIGS})")


@dataclass
class CompiledProgram:
    asm: MProgram
    ir: IRProgram
    config: CompileConfig
    keep_lives: int = 0
    peephole_stats: PeepholeStats | None = None  # None: stage not run
    sink_stats: SinkStats | None = None

    @property
    def code_size(self) -> int:
        return self.asm.code_size()

    def render_asm(self) -> str:
        return self.asm.render()


def compile_source(source: str, config: CompileConfig | None = None) -> CompiledProgram:
    """Compile C source through the full pipeline for one configuration.

    When a :mod:`repro.exec.cache` compile cache is installed, the
    linked :class:`CompiledProgram` is memoized under the SHA-256 of
    (source, config fingerprint, code-version salt); a verified hit
    skips the whole pipeline and unpickles a fresh, unaliased program.
    """
    config = config or CompileConfig()
    resil_inject.compile_checkpoint()  # chaos seam: mid-pipeline stalls
    cache = exec_cache.active_cache("compile")
    key = cache.key_for(source, config) if cache is not None else None
    if key is not None:
        hit = cache.get(key)
        if hit is not None:
            return hit
    tracer = obs_runtime.get_tracer()
    if not tracer.enabled:
        compiled = _compile(source, config)
    else:
        with tracer.span("compile", optimize=config.optimize,
                         safe=config.safe, checked=config.checked,
                         model=config.model.name,
                         passes=list(config.passes)) as sp:
            compiled = _compile(source, config)
            sp.set(code_size=compiled.asm.code_size(),
                   functions=len(compiled.asm.functions),
                   keep_lives=compiled.keep_lives)
    if key is not None:
        cache.put(key, compiled)
    return compiled


def compile_cache_key(source: str, config: CompileConfig) -> str | None:
    """The active compile cache's address for this compilation (None
    when no cache is installed or the inputs are not cacheable)."""
    cache = exec_cache.active_cache("compile")
    return cache.key_for(source, config) if cache is not None else None


# Each compile stage's product shared inside front_memo(), keyed by what
# the stage reads; None outside any front_memo() block.
_stages: ContextVar[dict | None] = ContextVar("stages", default=None)


@contextmanager
def front_memo():
    """Compute each compile stage once per distinct input for the
    ``compile_source`` calls made inside the block; the memo is dropped
    when the block exits.

    A stage's product is keyed by what the stage reads, and every key
    holds the active :func:`repro.exec.cache.salt_context` tags, so a
    pass swapped in under a salt is never served a product made
    without it:

    * cpp's text and its tokens: the source and ``run_cpp``;
    * the typechecked unit of an unannotated config, under that key.
      Lowering only reads it; an annotating config parses the shared
      tokens into a unit of its own, which the annotator rewrites;
    * the optimized IR: every config field but ``model``, ``peephole``
      and ``sink`` (:func:`repro.exec.cache.front_key`);
    * the back half: the IR's key, ``model.num_regs`` (register
      allocation is the only reader of the model), ``peephole`` and
      ``sink``.

    Every call still returns its own :class:`CompiledProgram` with the
    config it asked for; calls with one back half share its ``asm``,
    which no caller rewrites.
    """
    token = _stages.set({})
    try:
        yield
    finally:
        _stages.reset(token)


def _compile(source: str, config: CompileConfig) -> CompiledProgram:
    memo = _stages.get()
    key = exec_cache.front_key(source, config) if memo is not None else None
    if key is None:  # outside front_memo(), or not cacheable: no sharing
        memo = text_key = None
    else:
        text_key = exec_cache.front_key(source, config, ("run_cpp",))
    ir, keep_lives = _once(memo, ("ir", key), _front_half,
                           source, config, memo, text_key)
    back = ("back", key, config.model.num_regs, config.peephole, config.sink)
    compiled = _once(memo, back, _back_half, ir, keep_lives, config)
    return replace(compiled, config=config)


def _once(memo: dict | None, key: tuple, stage, *args):
    """``stage(*args)``, computed once per ``key`` in ``memo``, or
    every time without a memo (so nothing outlives its compile)."""
    if memo is None:
        return stage(*args)
    product = memo.get(key)
    if product is None:
        product = memo[key] = stage(*args)
    return product


def _lex(source: str, config: CompileConfig) -> tuple[str, list[Token]]:
    """cpp and lex: the text the parser reads and its tokens."""
    text = preprocess(source, config.include_dirs) if config.run_cpp else source
    return text, tokenize(text)


def _typechecked_unit(source: str, config: CompileConfig,
                      memo: dict | None, text_key: str | None):
    """A fresh unit parsed from the memo's tokens, and its symbols."""
    text, tokens = _once(memo, ("tokens", text_key), _lex, source, config)
    unit = parse(text, tokens)
    return unit, typecheck(unit)


def _front_half(source: str, config: CompileConfig, memo: dict | None,
                text_key: str | None) -> tuple[IRProgram, int]:
    """cpp through optimize: the optimized IR and the KEEP_LIVE count."""
    tracer = obs_runtime.get_tracer()
    keep_lives = 0
    if not (config.safe or config.checked):
        unit, symbols = _once(memo, ("unit", text_key), _typechecked_unit,
                              source, config, memo, text_key)
    else:
        unit, _ = _typechecked_unit(source, config, memo, text_key)
        # Copy, never mutate: annotate_options is caller-owned.
        options = replace(config.annotate_options or AnnotateOptions(),
                          mode="checked" if config.checked else "safe")
        with tracer.span("compile.annotate", mode=options.mode) as sp:
            result = Annotator(unit, options).run()
            keep_lives = result.stats.keep_lives
            sp.set(keep_lives=keep_lives,
                   temps_introduced=result.stats.temps_introduced,
                   heuristic_replacements=result.stats.heuristic_replacements)
        symbols = result.symbols
    with tracer.span("compile.lower", debug=not config.optimize) as sp:
        ir = lower_unit(unit, symbols, debug=not config.optimize,
                        naive_keep_live=config.naive_keep_live)
        sp.set(functions=len(ir.functions),
               ir_insts=sum(len(fn.insts) for fn in ir.functions.values()))
    if config.optimize:
        with tracer.span("compile.opt", passes=list(config.passes)):
            for fn in ir.functions.values():
                optimize(fn, config.passes)
    return ir, keep_lives


def _back_half(ir: IRProgram, keep_lives: int,
               config: CompileConfig) -> CompiledProgram:
    """Register allocation and codegen, then the config's stages; reads
    ``ir`` without changing it."""
    tracer = obs_runtime.get_tracer()
    with tracer.span("compile.codegen", model=config.model.name) as sp:
        asm = generate_program(ir, config.model)
        sp.set(code_size=asm.code_size())
    compiled = CompiledProgram(asm, ir, config, keep_lives)
    if config.peephole:
        with tracer.span("postproc.peephole") as sp:
            compiled.peephole_stats = postprocess(asm)
            sp.set(rewrites=compiled.peephole_stats.total)
    if config.sink:
        with tracer.span("postproc.sink") as sp:
            compiled.sink_stats = sink_program(asm)
            sp.set(sunk=compiled.sink_stats.sunk,
                   eliminated=compiled.sink_stats.eliminated)
    return compiled
