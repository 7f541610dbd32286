"""CLI coverage: ``python -m repro.obs`` (record / report / trajectory)
and the ``--trace`` / ``--profile`` flags on the main and fuzz CLIs."""

import json

import pytest

from repro.cli import main as repro_main
from repro.machine import vm as vm_module
from repro.obs import runtime, sentinel
from repro.obs.cli import main as obs_main
from repro.obs.tracer import load_jsonl

PROGRAM = """
struct node { int v; struct node *next; };
struct node *cons(int v, struct node *rest) {
    struct node *n = (struct node *)GC_malloc(sizeof(struct node));
    n->v = v;
    n->next = rest;
    return n;
}
int main(void) {
    struct node *list = 0;
    int i, s = 0;
    for (i = 0; i < 50; i++) list = cons(i, list);
    for (; list; list = list->next) s += list->v;
    return s & 0xFF;
}
"""


@pytest.fixture
def prog_file(tmp_path):
    path = tmp_path / "prog.c"
    path.write_text(PROGRAM)
    return str(path)


class TestObsRecord:
    def test_record_source(self, prog_file, tmp_path, capsys):
        out = tmp_path / "trace.jsonl"
        chrome = tmp_path / "chrome.json"
        summary = tmp_path / "summary.json"
        rc = obs_main(["record", "--source", prog_file, "--config", "g_checked",
                       "--gc-interval", "200", "--out", str(out),
                       "--chrome", str(chrome), "--summary-json", str(summary)])
        assert rc == 0
        events = load_jsonl(str(out))
        names = {e["name"] for e in events}
        assert {"compile", "cfront.cpp", "cfront.lex", "cfront.parse",
                "cfront.typecheck", "compile.annotate", "compile.lower",
                "compile.codegen", "vm.run", "gc.collect",
                "gc.stats"} <= names
        collect = next(e for e in events if e["name"] == "gc.collect")
        assert {"pause_ns", "root_scan_ns", "mark_ns",
                "sweep_ns"} <= set(collect["args"])
        doc = json.loads(chrome.read_text())
        assert doc["otherData"]["schema"] == "repro-obs-trace/1"
        s = json.loads(summary.read_text())
        assert s["schema"] == "repro-obs-summary/1"
        assert s["run"]["config"] == "g_checked"
        assert s["gc"]["collections"] >= 1
        assert s["profile"]["total_cycles"] == s["run"]["cycles"]
        rendered = capsys.readouterr().out
        assert "Compile pipeline" in rendered
        assert "pause breakdown" in rendered
        assert "allocation-size histogram" in rendered
        assert "latency percentiles" in rendered
        assert "VM hot-spot profile" in rendered

    def test_record_leaves_runtime_disabled(self, prog_file, tmp_path, capsys):
        out = tmp_path / "trace.jsonl"
        assert obs_main(["record", "--source", prog_file, "--quiet",
                         "--out", str(out)]) == 0
        assert runtime.tracing_enabled() is False
        assert runtime.profiling_enabled() is False

    def test_workload_and_source_are_exclusive(self, prog_file):
        with pytest.raises(SystemExit):
            obs_main(["record", "--workload", "miniawk",
                      "--source", prog_file])
        with pytest.raises(SystemExit):
            obs_main(["record"])

    def test_unknown_workload(self):
        with pytest.raises(SystemExit):
            obs_main(["record", "--workload", "nosuch"])

    @pytest.mark.parametrize("source, message", [
        ("int main(void) { memset((char *)16, 0, 8); return 0; }",
         "unmapped address: 0x00000010"),
        ("int main(void) { return strlen((char *)16); }",
         "unmapped address: 0x00000010"),
        ('int main(void) { strcpy(0, "x"); return 0; }',
         "unmapped address: 0x00000000"),
        ("int f(int n) { return f(n + 1) + 1; }\n"
         "int main(void) { return f(0); }", "call stack overflow"),
    ], ids=["memset", "strlen", "strcpy", "recursion"])
    def test_run_faults_are_diagnostics(self, tmp_path, capsys, source,
                                        message):
        path = tmp_path / "fault.c"
        path.write_text(source)
        out = tmp_path / "trace.jsonl"
        assert obs_main(["record", "--source", str(path), "--quiet",
                         "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert "Traceback" not in err
        assert runtime.tracing_enabled() is False


class TestObsReport:
    def test_report_roundtrip(self, prog_file, tmp_path, capsys):
        out = tmp_path / "trace.jsonl"
        obs_main(["record", "--source", prog_file, "--quiet",
                  "--gc-interval", "200", "--out", str(out)])
        capsys.readouterr()
        assert obs_main(["report", str(out)]) == 0
        text = capsys.readouterr().out
        assert "Compile pipeline" in text and "GC:" in text

    def test_report_json(self, prog_file, tmp_path, capsys):
        out = tmp_path / "trace.jsonl"
        obs_main(["record", "--source", prog_file, "--quiet",
                  "--out", str(out)])
        capsys.readouterr()
        assert obs_main(["report", str(out), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema"] == "repro-obs-summary/1"


class TestObsTrajectory:
    def test_trajectory_appends_records(self, tmp_path, capsys):
        out = tmp_path / "BENCH.jsonl"
        for label in ("first", "second"):
            rc = obs_main(["trajectory", "--workload", "miniawk",
                           "--configs", "O,O_safe", "--quiet",
                           "--label", label, "--out", str(out)])
            assert rc == 0
        records, issues = sentinel.read_trajectory(str(out))
        assert issues == []
        assert [(r["label"], r["config"]) for r in records] == [
            ("first", "O"), ("first", "O_safe"),
            ("second", "O"), ("second", "O_safe")]
        assert {r["schema"] for r in records} == {"repro-trajectory/1"}
        assert records[1]["counts"]["cycles"] > 0
        assert records[1]["metrics"]["wall_s"] > 0
        # Identical runs: the trajectory is deterministic in counts.
        assert records[0]["counts"] == records[2]["counts"]

    def test_trajectory_record_is_an_untraced_sentinel_cell(
            self, tmp_path, monkeypatch):
        traced = []
        real_run = vm_module.VM.run

        def run(vm):
            traced.append(vm.gc.tracer.enabled)
            return real_run(vm)

        monkeypatch.setattr(vm_module.VM, "run", run)
        out = tmp_path / "BENCH.jsonl"
        assert obs_main(["trajectory", "--workload", "miniawk",
                         "--configs", "O", "--quiet",
                         "--out", str(out)]) == 0
        assert traced == [False] * sentinel.DEFAULT_REPEATS
        record, = sentinel.read_trajectory(str(out))[0]
        assert set(record["counts"]) == set(sentinel.COUNT_KEYS)
        assert {"wall_s", "gc_pause_ns"} <= set(record["metrics"])

    def test_trajectory_leaves_a_malformed_file_alone(self, tmp_path,
                                                      capsys):
        out = tmp_path / "BENCH.jsonl"
        out.write_text('{"schema": "something-else"}\n')
        assert obs_main(["trajectory", "--workload", "miniawk",
                         "--configs", "O", "--quiet",
                         "--out", str(out)]) == 1
        assert out.read_text() == '{"schema": "something-else"}\n'
        assert "REGRESSION" in capsys.readouterr().out


class TestMainCliFlags:
    def test_cc_trace_flag(self, prog_file, tmp_path, capsys):
        out = tmp_path / "trace.jsonl"
        rc = repro_main(["cc", "--config", "O_safe", "--trace", str(out),
                         prog_file])
        captured = capsys.readouterr()
        assert rc == (50 * 49 // 2) & 0xFF
        assert f"trace written to {out}" in captured.err
        names = {e["name"] for e in load_jsonl(str(out))}
        assert {"compile", "vm.run"} <= names
        assert runtime.tracing_enabled() is False

    def test_bench_trace_reports_percentiles(self, tmp_path, capsys):
        out = tmp_path / "bench-trace.jsonl"
        assert repro_main(["bench", "--workloads", "cordtest",
                           "--trace", str(out)]) == 0
        assert runtime.metrics_enabled() is False
        capsys.readouterr()
        assert obs_main(["report", str(out), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["percentiles"]["vm.run_cycles"]["count"] > 0

    def test_cc_profile_flag(self, prog_file, capsys):
        rc = repro_main(["cc", "--profile", prog_file])
        captured = capsys.readouterr()
        assert "VM hot-spot profile" in captured.err
        assert "cons" in captured.err
        assert runtime.profiling_enabled() is False

    def test_flags_do_not_change_the_run(self, prog_file, capsys):
        plain = repro_main(["cc", prog_file])
        base_err = capsys.readouterr().err
        traced = repro_main(["cc", "--profile", prog_file])
        traced_err = capsys.readouterr().err
        assert plain == traced
        base_line = next(l for l in base_err.splitlines() if "cycles=" in l)
        traced_line = next(l for l in traced_err.splitlines()
                           if "cycles=" in l)
        assert base_line == traced_line


class TestFuzzCliFlags:
    def test_fuzz_trace_flag(self, tmp_path, capsys):
        from repro.fuzz.cli import main as fuzz_main
        out = tmp_path / "fuzz-trace.jsonl"
        rc = fuzz_main(["--seed", "0", "--iters", "1",
                        "--models", "ss10", "--trace", str(out)])
        captured = capsys.readouterr()
        assert rc == 0
        assert "stage wall" in captured.out
        names = {e["name"] for e in load_jsonl(str(out))}
        assert {"fuzz.iteration", "fuzz.campaign", "compile",
                "vm.run", "obs.metrics"} <= names
        assert runtime.tracing_enabled() is False
        assert runtime.metrics_enabled() is False
