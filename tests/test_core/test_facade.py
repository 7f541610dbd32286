"""The repro.api facade: one options bag, no mutation, shims gone."""

import dataclasses

import pytest

import repro
from repro.api import Mode, Options, Toolchain
from repro.core.annotate import AnnotateOptions

POINTERY = "char *f(char *p) { return p + 1; }"
HELLO = 'int main(void) { printf("hi\\n"); return 7; }'


class TestMode:
    def test_coerce_strings_and_enums(self):
        assert Mode.coerce("safe") is Mode.SAFE
        assert Mode.coerce("CHECKED") is Mode.CHECKED
        assert Mode.coerce(Mode.NONE) is Mode.NONE
        assert Mode.coerce(None) is Mode.SAFE

    def test_coerce_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown mode"):
            Mode.coerce("fast")


class TestOptions:
    def test_defaults(self):
        opts = Options()
        assert opts.mode is Mode.SAFE
        assert opts.config == "O_safe"
        assert opts.workers == 1

    def test_frozen_and_copy_on_override(self):
        opts = Options()
        with pytest.raises(dataclasses.FrozenInstanceError):
            opts.workers = 4
        more = opts.with_(workers=4)
        assert more.workers == 4 and opts.workers == 1
        assert opts.with_() is opts

    def test_mode_is_coerced_at_construction(self):
        assert Options(mode="checked").mode is Mode.CHECKED

    def test_unknown_model_rejected(self):
        with pytest.raises(ValueError, match="unknown model"):
            Options(model="cray1")


class TestToolchain:
    def test_annotate_safe_and_checked(self):
        tc = Toolchain()
        assert "KEEP_LIVE" in tc.annotate(POINTERY).text
        assert "GC_same_obj" in tc.annotate(POINTERY, Mode.CHECKED).text

    def test_annotate_mode_none_is_an_error(self):
        with pytest.raises(ValueError, match="Mode.NONE"):
            Toolchain(mode=Mode.NONE).annotate(POINTERY)

    def test_check_flags_pointer_hiding(self):
        diags = Toolchain().check('void f(char **b) { scanf("%p", b); }')
        assert diags and "scanf" in diags[0].message

    def test_run_compiles_and_executes(self):
        result = Toolchain(config="O").run(HELLO)
        assert result.exit_code == 7
        assert result.output == "hi\n"

    def test_run_returns_a_fault_instead_of_raising(self):
        result = Toolchain(config="O").run(
            "int main(void) { return strlen((char *)16); }")
        assert result.status == "fault" and result.exit_code is None
        assert result.describe() == "fault: unmapped address: 0x00000010"

    def test_run_returns_a_failed_check_instead_of_raising(self):
        result = Toolchain(config="g_checked").run(
            "int main(void) { char *p = (char *)GC_malloc(8); char *q; "
            "q = p - 1; return q != 0; }")
        assert result.status == "check"
        assert "outside its object" in result.detail

    def test_options_never_mutated_by_compile(self):
        # The historical bug: compile paths flipped AnnotateOptions.mode
        # on the caller's object.  The facade must copy.
        ann = AnnotateOptions(mode="safe")
        tc = Toolchain(config="g_checked", annotate=ann)
        tc.run(HELLO)
        assert ann.mode == "safe"
        assert tc.options.annotate is ann

    def test_constructor_overrides_compose_with_options(self):
        base = Options(model="p90")
        tc = Toolchain(base, workers=3)
        assert tc.options.model == "p90" and tc.options.workers == 3

    def test_session_installs_and_removes_caches(self, tmp_path):
        from repro.exec import cache as exec_cache
        tc = Toolchain(cache_dir=str(tmp_path / "cc"))
        assert not exec_cache.active_caches()
        with tc.session():
            kinds = {c.kind for c in exec_cache.active_caches()}
            assert kinds == {"compile", "result"}
            tc.run(HELLO)
            assert exec_cache.active_cache("compile").stats.stores >= 1
        assert not exec_cache.active_caches()

    def test_session_without_cache_dir_is_a_noop(self):
        from repro.exec import cache as exec_cache
        with Toolchain().session():
            assert not exec_cache.active_caches()


class TestShimRemoval:
    def test_module_level_shims_are_gone(self):
        import repro.core
        import repro.core.api
        for mod in (repro, repro.core, repro.core.api):
            assert not hasattr(mod, "annotate_source")
            assert not hasattr(mod, "check_source")

    def test_facade_covers_the_old_spellings(self):
        result = Toolchain().annotate(POINTERY)
        assert "KEEP_LIVE" in result.text
        assert Toolchain().check("int f(int a) { return a; }") == []

    def test_package_root_exports_facade(self):
        assert repro.Toolchain is Toolchain
        assert repro.Mode is Mode
        assert repro.Options is Options


class TestRenderDiagnostics:
    def test_empty_diagnostics_render_empty(self):
        src = "int f(int a) { return a; }"
        result = Toolchain().annotate(src)
        assert result.diagnostics == []
        assert result.render_diagnostics(src) == ""

    def test_nonempty_diagnostics_render_lines(self):
        src = "char *f(int x) { return (char *)x; }"
        result = Toolchain().annotate(src)
        if result.diagnostics:  # category depends on checker heuristics
            text = result.render_diagnostics(src)
            assert len(text.splitlines()) == len(result.diagnostics)
