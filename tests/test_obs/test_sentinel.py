"""The perf trajectory and the sentinel: ``repro-trajectory/1``
validation, the rule table at every threshold, append-only writes,
verdicts against committed histories, and the ``trajectory --check`` /
``top`` / ``sentinel`` CLI surfaces."""

import gc as pygc
import json
import weakref

import pytest

from repro.obs import runtime, sentinel
from repro.obs.cli import main as obs_main
from repro.obs.metrics import MetricsRegistry
from repro.obs.sentinel import (
    RULES, append_record, check_trajectory, exit_code, judge, make_record,
    read_trajectory, run_sentinel,
)

TINY = """
int main(void) {
    char *s = (char *)GC_malloc(16);
    int i, t = 0;
    for (i = 0; i < 10; i++) s[i] = i * 2;
    for (i = 0; i < 10; i++) t += s[i];
    return t;
}
"""


def _fresh_records(tmp_path) -> list[dict]:
    """One measurement of TINY at O (no history to gate on)."""
    verdict = run_sentinel(workload="tiny", source=TINY, configs=("O",),
                           repeats=1, path=str(tmp_path / "none.jsonl"))
    assert verdict["ok"]
    return verdict["records"]


def _write(path, records) -> str:
    path.write_text("".join(json.dumps(r) + "\n" for r in records))
    return str(path)


def _sentinel(path, repeats=1, **kwargs) -> dict:
    return run_sentinel(workload="tiny", source=TINY, configs=("O",),
                        repeats=repeats, path=str(path), **kwargs)


# -- the record format --------------------------------------------------------

class TestReadTrajectory:
    def _record(self, **changes):
        record = make_record("obs", "seed", {"wall_s": 1.0}, workload="w",
                             config="O", model="ss10",
                             counts={"cycles": 1})
        record.update(changes)
        return record

    def test_missing_file(self, tmp_path):
        records, issues = read_trajectory(str(tmp_path / "none.jsonl"))
        assert records == [] and "missing" in issues[0]

    def test_empty_file(self, tmp_path):
        p = tmp_path / "t.jsonl"
        p.write_text("")
        assert "empty trajectory" in read_trajectory(str(p))[1][0]

    def test_malformed_line(self, tmp_path):
        p = tmp_path / "t.jsonl"
        p.write_text(json.dumps(self._record()) + "\n{not json\n")
        records, issues = read_trajectory(str(p))
        assert len(records) == 1
        assert len(issues) == 1 and f"{p}:2: malformed JSON" in issues[0]

    def test_wrong_schema(self, tmp_path):
        p = _write(tmp_path / "t.jsonl",
                   [self._record(schema="repro-other/9")])
        assert "schema 'repro-other/9'" in read_trajectory(p)[1][0]

    def test_missing_required_key(self, tmp_path):
        record = self._record()
        del record["model"]
        p = _write(tmp_path / "t.jsonl", [record])
        assert "missing ['model']" in read_trajectory(p)[1][0]

    def test_unknown_gate(self, tmp_path):
        p = _write(tmp_path / "t.jsonl", [self._record(gate="bogus")])
        assert "unknown gate 'bogus'" in read_trajectory(p)[1][0]

    def test_counts_must_be_count_keys(self, tmp_path):
        p = _write(tmp_path / "t.jsonl",
                   [self._record(counts={"wall_s": 1.0})])
        assert "counts must map" in read_trajectory(p)[1][0]

    def test_repo_trajectory_is_valid_and_passes_judge(self):
        records, issues = check_trajectory(sentinel.TRAJECTORY)
        assert issues == []
        assert {r["gate"] for r in records} >= {"obs", "exec", "vm2"}


# -- the rule table -----------------------------------------------------------

#: A record per gate with every judged metric exactly at its threshold.
AT_THRESHOLD = {
    "vm2": {"identity_ok": True, "scratch_sunk": 1,
            "scratch_collections_base": 1, "scratch_collections_sunk": 0,
            "speedup": 1.5},
    "exec": {"tables_identical": True, "warm_hit_rate": 1.0,
             "speedup": 2.0},
    "serve": {"byte_identity": True, "chaos_identical": True,
              "request_p50_ns": 0, "request_p99_ns": 0},
    "overhead": {"cycles_identical": True, "overhead_pct": 2.0},
}

#: (gate, metric) -> the value just past the threshold.
PAST_THRESHOLD = {
    ("vm2", "identity_ok"): False,
    ("vm2", "scratch_sunk"): 0,
    ("vm2", "scratch_collections_sunk"): 1,
    ("vm2", "speedup"): 1.4999,
    ("exec", "tables_identical"): False,
    ("exec", "warm_hit_rate"): 0.9999,
    ("exec", "speedup"): 1.9999,
    ("serve", "byte_identity"): False,
    ("serve", "chaos_identical"): False,
    ("serve", "request_p50_ns"): None,
    ("serve", "request_p99_ns"): None,
    ("overhead", "cycles_identical"): False,
    ("overhead", "overhead_pct"): 2.0001,
}


class TestJudge:
    def test_every_rule_has_a_threshold_case(self):
        history_rules = {("*", "counts"), ("obs", "wall_s")}
        assert ({(r.gate, r.metric) for r in RULES} - history_rules
                == set(PAST_THRESHOLD))

    @pytest.mark.parametrize("gate", sorted(AT_THRESHOLD))
    def test_passes_at_every_threshold(self, gate):
        checks = judge(make_record(gate, "t", dict(AT_THRESHOLD[gate])))
        assert checks and all(c["ok"] for c in checks)
        assert exit_code(checks) == 0

    @pytest.mark.parametrize("gate, metric", sorted(PAST_THRESHOLD))
    def test_fails_just_past_each_threshold(self, gate, metric):
        rule, = [r for r in RULES if (r.gate, r.metric) == (gate, metric)]
        metrics = dict(AT_THRESHOLD[gate], **{metric: PAST_THRESHOLD[
            (gate, metric)]})
        checks = judge(make_record(gate, "t", metrics))
        assert [c["rule"] for c in checks if not c["ok"]] == [metric]
        assert exit_code(checks) == rule.exit_code
        assert rule.exit_code == (2 if metric in ("identity_ok",
                                                  "cycles_identical") else 1)

    def test_a_missing_metric_fails_its_rule(self):
        metrics = dict(AT_THRESHOLD["exec"])
        del metrics["speedup"]
        assert exit_code(judge(make_record("exec", "t", metrics))) == 1

    def _obs(self, wall_s, counts=None, label="r"):
        return make_record("obs", label, {"wall_s": wall_s}, workload="w",
                           config="O", model="ss10",
                           counts=counts or {"cycles": 10, "checks": 0})

    def test_count_drift_fails_with_exit_2(self):
        history = [self._obs(1.0, label="a"),
                   self._obs(1.0, {"cycles": 11}, label="b")]
        checks = [c for c in judge(self._obs(1.0), history)
                  if c["rule"] == "counts"]
        assert [(c["against"], c["ok"]) for c in checks] == [("a", True),
                                                             ("b", False)]
        assert "cycles: 11 -> 10" in checks[1]["detail"]
        assert exit_code(checks) == 2

    def test_counts_compare_only_shared_keys(self):
        vm2 = make_record("vm2", "v", {}, workload="w", config="O",
                          model="ss10", counts={"cycles": 10})
        checks = judge(self._obs(1.0), [vm2])
        assert [c["ok"] for c in checks if c["rule"] == "counts"] == [True]

    def test_wall_bound_is_advisory(self):
        # History [2.0]: MAD 0, so the bound is the slack floor, 3.0.
        at, past = (judge(self._obs(w), [self._obs(2.0)])
                    for w in (3.0, 3.0001))
        wall_at, = [c for c in at if c["rule"] == "wall_s"]
        wall_past, = [c for c in past if c["rule"] == "wall_s"]
        assert wall_at["ok"] and wall_at["bound"] == 3.0
        assert not wall_past["ok"] and wall_past["advisory"]
        assert exit_code(past) == 0

    def test_wall_bound_takes_mad_when_larger(self):
        # median 1.5, MAD 0.5: 3 * MAD = 1.5 beats 0.5 * median = 0.75.
        history = [self._obs(w) for w in (0.5, 1.0, 1.5, 2.0, 9.0)]
        wall, = [c for c in judge(self._obs(1.0), history)
                 if c["rule"] == "wall_s"]
        assert wall["bound"] == 3.0


# -- append-only writes -------------------------------------------------------

class TestAppendRecord:
    def _exec(self, **changes):
        return make_record("exec", "e", dict(AT_THRESHOLD["exec"],
                                             **changes), model="ss10")

    def test_appends_exactly_one_line(self, tmp_path):
        path = tmp_path / "t.jsonl"
        assert exit_code(append_record(str(path), self._exec())) == 0
        before = path.read_bytes()
        assert exit_code(append_record(str(path), self._exec())) == 0
        after = path.read_bytes()
        assert after.startswith(before)
        assert after[len(before):].count(b"\n") == 1
        assert len(read_trajectory(str(path))[0]) == 2

    def test_failing_record_is_not_appended(self, tmp_path):
        path = tmp_path / "t.jsonl"
        append_record(str(path), self._exec())
        before = path.read_bytes()
        checks = append_record(str(path), self._exec(speedup=1.0))
        assert exit_code(checks) == 1
        assert path.read_bytes() == before

    def test_count_drift_is_not_appended(self, tmp_path):
        path = tmp_path / "t.jsonl"
        cell = dict(workload="w", config="O", model="ss10")
        append_record(str(path), make_record("obs", "a", {}, **cell,
                                             counts={"cycles": 1}))
        before = path.read_bytes()
        checks = append_record(str(path), make_record(
            "obs", "b", {}, **cell, counts={"cycles": 2}))
        assert exit_code(checks) == 2
        assert path.read_bytes() == before

    def test_malformed_file_is_not_appended_to(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text("{broken\n")
        checks = append_record(str(path), self._exec())
        assert exit_code(checks) == 1
        assert path.read_text() == "{broken\n"

    def test_invalid_record_raises(self, tmp_path):
        with pytest.raises(ValueError):
            append_record(str(tmp_path / "t.jsonl"),
                          make_record("bogus", "b", {}))


# -- the sentinel -------------------------------------------------------------

class TestRunSentinel:
    def test_green_against_matching_history(self, tmp_path):
        path = _write(tmp_path / "t.jsonl", _fresh_records(tmp_path))
        verdict = _sentinel(path, repeats=2)
        assert verdict["schema"] == "repro-obs-sentinel/1"
        assert verdict["ok"] and verdict["wall_ok"] is not None
        assert {c["rule"] for c in verdict["checks"]} == {"counts", "wall_s"}
        assert all(c["ok"] for c in verdict["checks"]
                   if c["rule"] == "counts")
        # The fresh measurement ships its metrics snapshot along.
        assert verdict["metrics"]["metrics"]["vm.runs"]["value"] == 2

    def test_count_drift_fails_hard(self, tmp_path):
        records = _fresh_records(tmp_path)
        records[0]["counts"]["cycles"] += 1
        verdict = _sentinel(_write(tmp_path / "t.jsonl", records))
        assert not verdict["ok"]
        bad = [c for c in verdict["checks"] if not c["ok"]]
        assert bad and "cycles" in bad[0]["detail"]

    def test_drifted_vm2_record_fails_the_count_gate(self, tmp_path):
        obs, = _fresh_records(tmp_path)
        vm2 = make_record("vm2", "drifted", dict(AT_THRESHOLD["vm2"]),
                          workload="tiny", config="O", model="ss10",
                          counts={"cycles": obs["counts"]["cycles"],
                                  "collections":
                                      obs["counts"]["collections"] + 1})
        verdict = _sentinel(_write(tmp_path / "t.jsonl", [vm2]))
        assert not verdict["ok"]
        bad, = [c for c in verdict["checks"] if not c["ok"]]
        assert bad["rule"] == "counts" and bad["against"] == "drifted"
        assert "collections" in bad["detail"]

    def test_wall_breach_is_advisory(self, tmp_path):
        records = _fresh_records(tmp_path)
        records[0]["metrics"]["wall_s"] = 1e-07  # unreachable bound
        verdict = _sentinel(_write(tmp_path / "t.jsonl", records))
        assert verdict["ok"] and not verdict["wall_ok"]

    def test_malformed_trajectory_fails_validation(self, tmp_path):
        p = tmp_path / "t.jsonl"
        p.write_text("{broken\n")
        verdict = _sentinel(p)
        assert not verdict["ok"]
        assert any(c["rule"] == "validate" and not c["ok"]
                   for c in verdict["checks"])

    def test_failing_committed_record_fails_the_verdict(self, tmp_path):
        bad = make_record("exec", "slow", dict(AT_THRESHOLD["exec"],
                                               speedup=1.0))
        verdict = _sentinel(_write(tmp_path / "t.jsonl", [bad]))
        assert not verdict["ok"]

    def test_append_grows_the_trajectory(self, tmp_path):
        path = _write(tmp_path / "t.jsonl", _fresh_records(tmp_path))
        verdict = _sentinel(path, append=True, label="fresh")
        assert verdict["appended"] == 1 and verdict["appended_to"] == path
        records, issues = read_trajectory(path)
        assert issues == [] and len(records) == 2
        assert records[-1]["label"] == "fresh"

    def test_caller_registry_is_restored(self, tmp_path):
        mine = runtime.set_metrics(MetricsRegistry())
        try:
            mine.counter("caller.marker").inc(7)
            _fresh_records(tmp_path)
            assert runtime.get_metrics() is mine
            # ...and the sentinel's VM runs did not leak into it.
            assert mine.get("vm.runs") is None
            assert mine.get("caller.marker").value == 7
        finally:
            runtime.set_metrics(None)

    def test_measure_releases_every_vm(self, monkeypatch):
        alive = []

        class TrackedVM(sentinel.VM):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                alive.append(weakref.ref(self))

        monkeypatch.setattr(sentinel, "VM", TrackedVM)
        was_enabled = pygc.isenabled()
        pygc.disable()
        try:
            sentinel._measure(TINY, "", "O", "ss10", 0, 3)
            assert len(alive) == 3
            assert [ref() for ref in alive] == [None] * 3
        finally:
            if was_enabled:
                pygc.enable()


class TestTrajectoryCheckCLI:
    def test_check_ok(self, tmp_path, capsys):
        path = _write(tmp_path / "t.jsonl", _fresh_records(tmp_path))
        assert obs_main(["trajectory", "--check", path]) == 0
        assert "1 file(s) valid" in capsys.readouterr().out

    def test_check_fails_on_malformed(self, tmp_path, capsys):
        p = tmp_path / "t.jsonl"
        p.write_text("{broken\n")
        assert obs_main(["trajectory", "--check", str(p)]) == 1
        assert "FAIL" in capsys.readouterr().err

    def test_check_fails_on_empty_trajectory(self, tmp_path, capsys):
        p = tmp_path / "t.jsonl"
        p.write_text("")
        assert obs_main(["trajectory", "--check", str(p)]) == 1
        assert "empty trajectory" in capsys.readouterr().err

    def test_check_fails_on_a_failing_record(self, tmp_path, capsys):
        bad = make_record("exec", "slow", dict(AT_THRESHOLD["exec"],
                                               speedup=1.0))
        path = _write(tmp_path / "t.jsonl", [bad])
        assert obs_main(["trajectory", "--check", path]) == 1
        assert "speedup" in capsys.readouterr().err

    def test_check_repo_defaults(self):
        # The committed BENCH.jsonl must stay valid (CI runs this exact
        # invocation from the repo root).
        assert obs_main(["trajectory", "--check", "--quiet"]) == 0


class TestTopCLI:
    def test_once_renders_latest_snapshot(self, tmp_path, capsys):
        path = str(tmp_path / "m.jsonl")
        reg = MetricsRegistry()
        reg.counter("vm.runs").inc(3)
        reg.write_jsonl(path, append=False)
        assert obs_main(["top", path, "--once"]) == 0
        out = capsys.readouterr().out
        assert "vm.runs" in out and "live metric(s)" in out

    def test_once_missing_file_exits_nonzero(self, tmp_path, capsys):
        assert obs_main(["top", str(tmp_path / "none.jsonl"),
                         "--once"]) == 1
