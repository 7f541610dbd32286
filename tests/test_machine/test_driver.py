"""Compilation driver tests: the build-matrix configurations."""

import pytest

from repro.core.annotate import AnnotateOptions
from repro.machine import CompileConfig, VM, compile_source
from repro.machine.models import PENTIUM_90, SPARC_10

SRC = ("char *walk(char *p, int n) { while (n--) p++; return p; }\n"
       "int main(void) { char *b = (char *)GC_malloc(16); "
       "b[5] = 9; return *walk(b, 5); }")


class TestNamedConfigs:
    def test_all_four_names(self):
        for name in ("O", "O_safe", "g", "g_checked"):
            config = CompileConfig.named(name)
            assert isinstance(config, CompileConfig)

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError):
            CompileConfig.named("Ofast")

    def test_o_is_unsafe_baseline(self):
        config = CompileConfig.named("O")
        assert config.optimize and not config.safe and not config.checked

    def test_g_checked_implies_no_optimizer(self):
        config = CompileConfig.named("g_checked")
        assert not config.optimize and config.checked

    def test_model_threading(self):
        config = CompileConfig.named("O", PENTIUM_90)
        assert config.model is PENTIUM_90


class TestCompileSource:
    def test_keep_live_count_reported(self):
        compiled = compile_source(SRC, CompileConfig.named("O_safe"))
        assert compiled.keep_lives >= 1
        baseline = compile_source(SRC, CompileConfig.named("O"))
        assert baseline.keep_lives == 0

    def test_render_asm(self):
        compiled = compile_source(SRC, CompileConfig.named("O"))
        text = compiled.render_asm()
        assert "walk:" in text and "main:" in text

    def test_code_size_property(self):
        compiled = compile_source(SRC, CompileConfig.named("O"))
        assert compiled.code_size == compiled.asm.code_size()

    def test_cpp_runs_by_default(self):
        src = "#define N 4\nint main(void) { return N; }"
        compiled = compile_source(src, CompileConfig())
        assert VM(compiled.asm).run().exit_code == 4

    def test_cpp_can_be_disabled(self):
        config = CompileConfig(run_cpp=False)
        src = "int main(void) { return 4; }"
        compiled = compile_source(src, config)
        assert VM(compiled.asm).run().exit_code == 4

    def test_annotate_options_respected(self):
        config = CompileConfig(
            optimize=True, safe=True,
            annotate_options=AnnotateOptions(suppress_copies=False))
        richer = compile_source(SRC, config)
        plain = compile_source(SRC, CompileConfig.named("O_safe"))
        assert richer.keep_lives >= plain.keep_lives

