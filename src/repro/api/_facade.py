"""The unified toolchain facade — one object, one options bag.

Everything the repo can do (annotate, source-check, compile, execute,
benchmark, fuzz) previously lived behind per-subsystem entry points
with slightly different spellings (``mode='safe'`` strings here,
``CompileConfig`` flags there, ``workers=``/``cache_dir=`` threaded ad
hoc).  :class:`Toolchain` is the front door:

>>> from repro.api import Toolchain, Mode
>>> tc = Toolchain(mode=Mode.CHECKED, config="g_checked")
>>> tc.annotate("char *f(char *p) { return p + 1; }").text  # doctest: +SKIP
>>> tc.run("int main() { return 42; }").exit_code           # doctest: +SKIP
42

One :class:`Options` instance feeds every method; the options object is
never mutated (per-call overrides produce copies), so a ``Toolchain``
is freely shareable.  ``session()`` materializes the process-wide
machinery the options imply — today the content-addressed caches under
``cache_dir`` — for a ``with`` block.

The old module-level ``repro.core.api.annotate_source`` /
``check_source`` shims are gone — the facade is the only entry point
(out of process, :class:`repro.api.Client` mirrors it over the
``repro serve`` daemon).
"""

from __future__ import annotations

import contextlib
import enum
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Any

from ..cfront.errors import Diagnostic
from ..core.annotate import AnnotateOptions
from ..core.api import AnnotatedSource, _annotate_source, _check_source
from ..exec import cache as exec_cache
from ..machine.driver import CompileConfig, CompiledProgram, compile_source
from ..machine.models import MODELS
from ..machine.vm import POISON_BYTE, RunResult, run_program

if TYPE_CHECKING:  # heavy subsystems are imported lazily at call time
    from ..bench.harness import WorkloadRow
    from ..fuzz.campaign import CampaignResult


class Mode(enum.Enum):
    """What the annotator injects: nothing, KEEP_LIVE barriers (the
    paper's GC-safety mode), or GC_same_obj checking calls."""

    NONE = "none"
    SAFE = "safe"
    CHECKED = "checked"

    @classmethod
    def coerce(cls, value: "Mode | str | None") -> "Mode":
        if value is None:
            return cls.SAFE
        if isinstance(value, cls):
            return value
        try:
            return cls(str(value).lower())
        except ValueError:
            raise ValueError(
                f"unknown mode {value!r} (expected one of "
                f"{[m.value for m in cls]})") from None


@dataclass(frozen=True)
class Options:
    """The one options bag every :class:`Toolchain` method shares."""

    mode: Mode = Mode.SAFE                 # annotate() / check() flavor
    config: str = "O_safe"                 # build-matrix column for compile()
    model: str = "ss10"                    # machine model key
    run_cpp: bool = False                  # preprocess before annotating
    include_dirs: tuple[str, ...] = ()     # cpp search path
    workers: int = 1                       # bench()/fuzz() sharding
    cache_dir: str | None = None           # content-addressed cache root
    gc_interval: int = 0                   # run(): force GC every N insts
    poison: bool = False                   # run(): poison reclaimed objects
    max_instructions: int = 500_000_000    # run(): VM fuel
    annotate: AnnotateOptions | None = None  # fine-grained annotator knobs
    sink: bool = False                     # allocation-sinking postproc pass

    def __post_init__(self):
        object.__setattr__(self, "mode", Mode.coerce(self.mode))
        object.__setattr__(self, "include_dirs", tuple(self.include_dirs))
        if self.model not in MODELS:
            raise ValueError(f"unknown model {self.model!r} "
                             f"(expected one of {sorted(MODELS)})")

    def with_(self, **overrides) -> "Options":
        return replace(self, **overrides) if overrides else self


class Toolchain:
    """The facade: every pipeline entry point behind one options bag.

    Construct with an :class:`Options`, keyword overrides, or both::

        Toolchain()                             # defaults
        Toolchain(mode="checked", workers=4)
        Toolchain(opts, cache_dir="/tmp/cc")    # opts + overrides
    """

    def __init__(self, options: Options | None = None, **overrides):
        base = options if options is not None else Options()
        self.options = base.with_(**overrides)

    # -- sessions ----------------------------------------------------------

    @contextlib.contextmanager
    def session(self):
        """Install the process-wide machinery the options imply (cache
        tiers under ``cache_dir``) for the duration of the block."""
        if self.options.cache_dir is None:
            yield self
            return
        compile_cache, result_cache = exec_cache.open_caches(
            self.options.cache_dir)
        with exec_cache.cache_context(compile_cache, result_cache):
            yield self

    # -- annotator ---------------------------------------------------------

    def annotate(self, source: str,
                 mode: Mode | str | None = None) -> AnnotatedSource:
        """Annotate for GC-safety (SAFE) or pointer checking (CHECKED)."""
        use = Mode.coerce(mode) if mode is not None else self.options.mode
        if use is Mode.NONE:
            raise ValueError("annotate() needs mode SAFE or CHECKED; "
                             "Mode.NONE annotates nothing")
        return _annotate_source(
            source, mode=use.value, options=self.options.annotate,
            run_cpp=self.options.run_cpp,
            include_dirs=list(self.options.include_dirs) or None)

    def check(self, source: str) -> list[Diagnostic]:
        """Source-safety diagnostics only; the program is untouched."""
        return _check_source(
            source, run_cpp=self.options.run_cpp,
            include_dirs=list(self.options.include_dirs) or None)

    # -- compiler / VM -----------------------------------------------------

    def compile_config(self, config: str | None = None) -> CompileConfig:
        """The :class:`CompileConfig` these options describe."""
        cc = CompileConfig.named(config or self.options.config,
                                 MODELS[self.options.model])
        cc.run_cpp = self.options.run_cpp or cc.run_cpp
        cc.include_dirs = list(self.options.include_dirs)
        if self.options.annotate is not None:
            cc.annotate_options = self.options.annotate
        return cc

    def compile(self, source: str,
                config: str | None = None) -> CompiledProgram:
        """Full pipeline for one build-matrix column (memoized when a
        compile cache is installed — see :meth:`session`)."""
        return compile_source(source, self.compile_config(config))

    def execute(self, compiled: CompiledProgram,
                stdin: str = "") -> RunResult:
        """Run an already-compiled program on this options' VM setup.
        A program that faults or fails a pointer check comes back as the
        result's ``status`` and ``detail``.

        With ``options.sink`` the allocation-sinking pass rewrites the
        program in place first."""
        if self.options.sink:
            from ..postproc.sink import sink_program
            sink_program(compiled.asm)
        return run_program(compiled.asm, MODELS[self.options.model],
                           stdin=stdin, gc_interval=self.options.gc_interval,
                           poison=self.options.poison,
                           max_instructions=self.options.max_instructions)

    def run(self, source: str, stdin: str = "",
            config: str | None = None) -> RunResult:
        """Compile and execute in one step."""
        return self.execute(self.compile(source, config), stdin=stdin)

    # -- drivers -----------------------------------------------------------

    def bench(self, workloads: tuple[str, ...] | None = None,
              configs: tuple[str, ...] | None = None
              ) -> "dict[str, WorkloadRow]":
        """The paper's benchmark matrix on this options' model, sharded
        across ``options.workers`` processes."""
        from ..bench.harness import CONFIG_ORDER, Harness
        harness = Harness(self.options.model, sink=self.options.sink)
        return harness.run_all(workloads, configs or CONFIG_ORDER,
                               workers=self.options.workers)

    def fuzz(self, seed: int = 0, iters: int = 100,
             **kwargs: Any) -> "CampaignResult":
        """A differential fuzzing campaign (see
        :func:`repro.fuzz.campaign.run_campaign` for kwargs)."""
        from ..fuzz.campaign import run_campaign
        kwargs.setdefault("workers", self.options.workers)
        return run_campaign(seed, iters, **kwargs)


__all__ = ["Mode", "Options", "Toolchain", "POISON_BYTE"]
