"""Bad input to ``repro``, ``repro.obs`` and ``repro.fuzz`` ends in
``error: ...`` on stderr and exit code 2, never a traceback."""

import pytest

from repro.cli import main as repro_main
from repro.fuzz.cli import main as fuzz_main
from repro.obs.cli import main as obs_main

# Placeholders name files the test writes: {bad} does not parse, {ff}
# holds a byte that is not UTF-8 (the error must name it), {octal} has
# an octal literal with a digit 8 (the error must give its place),
# {ifpow} has an ``#if`` that is Python but not C (``2**3``),
# {trunc} is a trace whose second line is cut off, {dir} is a directory
# and {missing} does not exist.
CASES = {
    "obs-record-parse-error": (obs_main, ["record", "--source", "{bad}"]),
    "obs-record-missing-source": (obs_main,
                                  ["record", "--source", "{missing}"]),
    "obs-record-missing-stdin": (obs_main, ["record", "--workload", "cfrac",
                                            "--stdin", "{missing}"]),
    "obs-record-unknown-workload": (obs_main,
                                    ["record", "--workload", "nosuch"]),
    "obs-report-missing": (obs_main, ["report", "{missing}"]),
    "obs-report-truncated": (obs_main, ["report", "{trunc}"]),
    "obs-report-undecodable": (obs_main, ["report", "{ff}"]),
    "obs-trajectory-unknown-workload": (obs_main, ["trajectory",
                                                   "--workload", "nosuch"]),
    "obs-sentinel-unknown-workload": (obs_main,
                                      ["sentinel", "--workload", "nosuch"]),
    "obs-record-undecodable-source": (obs_main,
                                      ["record", "--source", "{ff}"]),
    "fuzz-replay-missing": (fuzz_main, ["--replay", "{missing}"]),
    "fuzz-replay-undecodable": (fuzz_main, ["--replay", "{ff}"]),
    "cc-directory": (repro_main, ["cc", "{dir}"]),
    "annotate-directory": (repro_main, ["annotate", "{dir}"]),
    "cc-undecodable": (repro_main, ["cc", "{ff}"]),
    "cc-octal-digit-8": (repro_main, ["cc", "{octal}"]),
    "cc-if-not-c": (repro_main, ["cc", "{ifpow}"]),
    "bench-unknown-workload": (repro_main, ["bench", "--workloads", "nosuch"]),
    "serve-call-undecodable-file": (repro_main, ["serve", "call", "compile",
                                                 "--file", "{ff}"]),
}


def exit_code(main, argv):
    """The status ``python -m`` would exit with."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize("name", sorted(CASES))
def test_bad_input_is_an_error_not_a_traceback(name, tmp_path, capsys):
    main, argv = CASES[name]
    (tmp_path / "bad.c").write_text("int main( {\n")
    (tmp_path / "ff.c").write_bytes(b"int main(void) { return 0; }\xff\n")
    (tmp_path / "octal.c").write_text("int main() { return 08; }\n")
    (tmp_path / "ifpow.c").write_text(
        "#if 2**3 == 8\nint main() { return 1; }\n#endif\n")
    (tmp_path / "trunc.jsonl").write_text(
        '{"kind": "meta"}\n{"kind": "span", "na\n')
    (tmp_path / "dir").mkdir()
    paths = {key: str(tmp_path / file) for key, file in (
        ("bad", "bad.c"), ("ff", "ff.c"), ("octal", "octal.c"),
        ("ifpow", "ifpow.c"),
        ("trunc", "trunc.jsonl"), ("dir", "dir"), ("missing", "missing.c"))}
    assert exit_code(main, [arg.format(**paths) for arg in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "Traceback" not in err
    if "{ff}" in argv:  # a file that does not decode is named
        assert err.startswith(f"error: {paths['ff']}: ")
    if "{octal}" in argv:
        assert err.startswith("error: line 1, col ")
    if "{ifpow}" in argv:
        assert err.startswith("error: cannot evaluate #if condition ")


def test_a_malformed_trace_is_named_with_its_line(tmp_path, capsys):
    trace = tmp_path / "trunc.jsonl"
    trace.write_text('{"kind": "meta"}\n{"kind": "span", "na\n')
    assert exit_code(obs_main, ["report", str(trace)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {trace}: line 2, ")
