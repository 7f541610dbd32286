"""Campaign orchestration and the ``python -m repro.fuzz`` CLI."""

import hashlib
import subprocess
import sys
from pathlib import Path

import pytest

from repro.fuzz import run_campaign
from repro.fuzz.brokenpass import rebroken_addrfold

REPO_SRC = str(Path(__file__).resolve().parents[2] / "src")


class TestCampaign:
    @pytest.mark.fuzz
    def test_small_campaign_is_clean(self):
        result = run_campaign(seed=0, iters=4, models=("ss10",))
        assert result.ok
        assert result.iterations == 4
        # 5 plain (ref counted) + 4 adversarial + 3 sink + 2 sink-adv
        assert result.cells == 4 * 14

    @pytest.mark.fuzz
    @pytest.mark.slow
    def test_rebroken_campaign_finds_reduces_and_persists(self, tmp_path):
        with rebroken_addrfold():
            result = run_campaign(seed=0, iters=40, models=("ss10",),
                                  reduce=True, out_dir=str(tmp_path),
                                  stop_after=1)
        assert not result.ok, "no finding in 40 iterations with a broken pass"
        finding = result.findings[0]
        assert finding.reduced is not None
        assert finding.reduce_stats.lines_after < finding.reduce_stats.lines_before
        written = sorted(p.name for p in tmp_path.iterdir())
        stem = f"finding-{finding.seed}-{finding.iteration}"
        assert f"{stem}.c" in written
        assert f"{stem}.min.c" in written
        assert f"{stem}.txt" in written

    def test_campaign_is_deterministic(self):
        a = run_campaign(seed=5, iters=2, models=("ss10",))
        b = run_campaign(seed=5, iters=2, models=("ss10",))
        assert (a.iterations, a.cells, a.ok) == (b.iterations, b.cells, b.ok)


class TestCLI:
    def run_cli(self, *args):
        return subprocess.run(
            [sys.executable, "-m", "repro.fuzz", *args],
            capture_output=True, text=True,
            env={"PYTHONPATH": REPO_SRC, "PATH": "/usr/bin:/bin"})

    @pytest.mark.fuzz
    @pytest.mark.slow
    def test_clean_campaign_exits_zero(self):
        proc = self.run_cli("--seed", "0", "--iters", "2", "--models", "ss10")
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "zero differential mismatches" in proc.stdout

    @pytest.mark.fuzz
    def test_json_envelope_bytes_pinned(self):
        # GCStats holds only simulated counts, so the envelope carries
        # them whole: these bytes must not move with telemetry changes.
        proc = self.run_cli("--seed", "0", "--iters", "5", "--json")
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert hashlib.sha256(proc.stdout.encode()).hexdigest() == (
            "1c1e3bce2b62d059cdd3f77427c012b25fd8e7c6e0edc6dcd50be5ec0722edc6")

    @pytest.mark.fuzz
    @pytest.mark.slow
    def test_rebroken_campaign_exits_nonzero(self):
        proc = self.run_cli("--seed", "0", "--iters", "40", "--models", "ss10",
                            "--rebreak-addrfold")
        assert proc.returncode == 1, proc.stdout + proc.stderr
        assert "MISMATCH" in proc.stdout

    @pytest.mark.fuzz
    @pytest.mark.slow
    def test_replay_of_corpus_file_is_clean(self):
        corpus = Path(__file__).parent / "corpus" / "addrfold_alias.c"
        proc = self.run_cli("--replay", str(corpus), "--models", "ss10")
        assert proc.returncode == 0, proc.stdout + proc.stderr
