"""CLI tests (python -m repro ...)."""

import pytest

from repro.cli import main

DEMO = """\
char *bump(char *p) { return p + 1; }
int main(void) {
    char *s = (char *)GC_malloc(8);
    s[0] = 60;
    return *bump(s) + s[0];
}
"""

BAD = "char *f(int v) { return (char *)v; }\n"


@pytest.fixture
def demo_file(tmp_path):
    path = tmp_path / "demo.c"
    path.write_text(DEMO)
    return str(path)


@pytest.fixture
def bad_file(tmp_path):
    path = tmp_path / "bad.c"
    path.write_text(BAD)
    return str(path)


class TestAnnotateCommand:
    def test_safe_mode(self, demo_file, capsys):
        assert main(["annotate", demo_file]) == 0
        out = capsys.readouterr().out
        assert "KEEP_LIVE((p + 1), p)" in out

    def test_checked_mode(self, demo_file, capsys):
        assert main(["annotate", "--mode", "checked", demo_file]) == 0
        out = capsys.readouterr().out
        assert "GC_same_obj" in out

    def test_stats_flag(self, demo_file, capsys):
        assert main(["annotate", "--stats", demo_file]) == 0
        err = capsys.readouterr().err
        assert "keep_lives" in err

    def test_option_flags_change_output(self, demo_file, capsys):
        main(["annotate", demo_file])
        normal = capsys.readouterr().out
        main(["annotate", "--no-copy-suppression", demo_file])
        verbose = capsys.readouterr().out
        assert verbose.count("KEEP_LIVE") > normal.count("KEEP_LIVE")

    def test_parse_error_reported(self, tmp_path, capsys):
        path = tmp_path / "broken.c"
        path.write_text("int main( {")
        assert main(["annotate", str(path)]) == 2
        assert "error:" in capsys.readouterr().err


class TestCheckCommand:
    def test_clean_file_exit_zero(self, demo_file, capsys):
        assert main(["check", demo_file]) == 0

    def test_diagnostics_exit_one(self, bad_file, capsys):
        assert main(["check", bad_file]) == 1
        assert "int-to-pointer" in capsys.readouterr().out


class TestCcCommand:
    def test_compile_and_run(self, demo_file, capsys):
        rc = main(["cc", demo_file])
        captured = capsys.readouterr()
        assert rc == 60  # *bump(s) is the zeroed s[1]; + s[0]
        assert "exit=60" in captured.err

    def test_all_configs(self, demo_file, capsys):
        codes = set()
        for config in ("O", "O_safe", "g", "g_checked"):
            codes.add(main(["cc", "--config", config, demo_file]))
            capsys.readouterr()
        assert codes == {60}

    def test_dump_asm(self, demo_file, capsys):
        assert main(["cc", "--dump-asm", "--config", "O_safe", demo_file]) == 0
        out = capsys.readouterr().out
        assert "main:" in out and "keepsafe" in out

    def test_postproc_flag(self, demo_file, capsys):
        rc = main(["cc", "--config", "O_safe", "--postproc", demo_file])
        captured = capsys.readouterr()
        assert rc == 60
        assert "postprocessor" in captured.err

    def test_gc_interval_and_poison(self, demo_file, capsys):
        rc = main(["cc", "--config", "O_safe", "--gc-interval", "1",
                   "--poison", demo_file])
        capsys.readouterr()
        assert rc == 60  # safe code survives constant collection

    def test_checked_violation_exit_code(self, tmp_path, capsys):
        path = tmp_path / "bug.c"
        path.write_text(
            "int main(void) { char *p = (char *)GC_malloc(8); "
            "char *q; q = p - 1; return q != 0; }")
        rc = main(["cc", "--config", "g_checked", str(path)])
        captured = capsys.readouterr()
        assert rc == 3
        assert "pointer check failed" in captured.err

    def test_stdin_file(self, tmp_path, capsys):
        src = tmp_path / "cat.c"
        src.write_text("int main(void) { int c, n = 0; "
                       "while ((c = getchar()) >= 0) n++; return n; }")
        data = tmp_path / "input.txt"
        data.write_text("12345")
        rc = main(["cc", "--stdin", str(data), str(src)])
        capsys.readouterr()
        assert rc == 5

    def test_missing_file(self, capsys):
        assert main(["cc", "/nonexistent/x.c"]) == 2

    @pytest.mark.parametrize("source, message", [
        ("int main(void) { goto nowhere; return 0; }",
         "undefined label 'nowhere'"),
        ("int main(void) { int x = 0; a: x++; if (x < 3) goto a; "
         "a: return x; }", "label 'a' defined twice"),
        ("int main(void) { break; return 0; }", "break outside loop"),
        ("int main(void) { int n = 2; switch (n) { case n: return 1; } "
         "return 0; }", "non-constant case label"),
    ])
    def test_lowering_errors_are_diagnostics(self, tmp_path, capsys,
                                             source, message):
        path = tmp_path / "bad.c"
        path.write_text(source)
        assert main(["cc", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert "Traceback" not in err


class TestBenchCommand:
    def test_bench_single_workload(self, capsys):
        rc = main(["bench", "--model", "ss10", "--workloads", "miniawk"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "SPARCstation 10" in out
        assert "gawk" in out  # paper-name mapping
        assert "paper / measured" in out
