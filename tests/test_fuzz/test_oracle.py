"""Differential-oracle semantics: agreement, detection, predicate."""

import pytest

from repro.fuzz import (ADVERSARIAL_CONFIGS, ALL_CONFIGS, check_program,
                        compile_and_run, mismatch_predicate)
from repro.fuzz.brokenpass import rebroken_addrfold

ALIAS_SRC = """
int main(void) {
    int *a = (int *)GC_malloc(4 * sizeof(int));
    int x, y;
    a[0] = 4242;
    x = a[0];
    y = x + (x - 1000);
    printf("%d\\n", y);
    return y & 0xFF;
}
"""

CLEAN_SRC = """
int main(void) {
    int *a = (int *)GC_malloc(8 * sizeof(int));
    int i, acc = 0;
    for (i = 0; i < 8; i++) a[i] = i * 3;
    for (i = 0; i < 8; i++) acc = (acc + a[i]) & 0xFFFF;
    printf("%d\\n", acc);
    return acc & 0xFF;
}
"""


class TestMatrix:
    def test_five_configs(self):
        assert ALL_CONFIGS == ("O0", "O", "O_safe", "g", "g_checked")
        assert "O" not in ADVERSARIAL_CONFIGS  # the unsafe column

    def test_clean_program_agrees_everywhere(self):
        report = check_program(CLEAN_SRC)
        assert report.ok, report.describe()
        # 5 configs x 3 models plain (reference counted once) + 4
        # adversarial + 3 sink + 2 sink-adversarial cells on the
        # primary model.
        assert report.runs == 24

    def test_compile_error_is_an_outcome(self):
        out = compile_and_run("int main(void { return 0; }", "O")
        assert out.status == "compile-error"

    def test_runtime_fault_is_an_outcome(self):
        out = compile_and_run(
            "int main(void) { int x = 1; return x / (x - 1); }", "g")
        assert out.status == "fault"

    def test_unbounded_recursion_is_an_outcome(self):
        out = compile_and_run("int f(int n) { return f(n + 1) + 1; }\n"
                              "int main(void) { return f(0); }", "g")
        assert (out.status, out.detail) == ("fault", "call stack overflow")

    def test_heap_exhaustion_is_an_outcome(self):
        source = ("int main(void) { char *p = GC_malloc(0x7ffffff0); "
                  "return p[0]; }")
        out = compile_and_run(source, "g", gc_interval=1)
        assert out.status == "fault" and "load fault" in out.detail
        report = check_program(source.replace("return p[0]", "return !p"))
        assert report.ok, report.describe()
        assert report.reference.exit_code == 1


class TestDetection:
    def test_rebroken_addrfold_caught(self):
        with rebroken_addrfold():
            report = check_program(ALIAS_SRC, models=("ss10",))
        assert not report.ok
        assert any(m.config == "O" and m.kind == "plain"
                   for m in report.mismatches), report.describe()

    def test_fix_holds_without_hook(self):
        report = check_program(ALIAS_SRC)
        assert report.ok, report.describe()

    def test_predicate_narrowly_rechecks_signature(self):
        with rebroken_addrfold():
            report = check_program(ALIAS_SRC, models=("ss10",))
            pred = mismatch_predicate(report.mismatches[0].signature())
            assert pred(ALIAS_SRC)
            assert not pred(CLEAN_SRC)
        # Outside the hook the mismatch is gone.
        assert not mismatch_predicate(("plain", "O", "ss10"))(ALIAS_SRC)

    def test_predicate_rejects_uncompilable(self):
        pred = mismatch_predicate(("plain", "O", "ss10"))
        # A compile error in the *tested* config while the reference
        # still builds is itself a divergence; a broken reference is not
        # a reproducer for a plain signature.
        assert not pred("int main(void { return 0; }")
