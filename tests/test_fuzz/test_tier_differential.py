"""The two VM tiers against each other on whole programs: the regression
corpus and generated programs, under every config on ss10, run as plain
closures and with every run fused on its first entry, agree on every
observable."""

from pathlib import Path

import pytest

from repro.fuzz.gen import generate_program
from repro.machine import superinst
from repro.machine.driver import CONFIGS, CompileConfig, compile_source
from repro.machine.models import MODELS
from repro.machine.vm import run_program

CORPUS = sorted((Path(__file__).parent / "corpus").glob("*.c"))
SOURCES = ([(path.stem, path.read_text()) for path in CORPUS]
           + [(f"gen{seed}", None) for seed in range(20)])


def observables(result):
    return (result.status, result.exit_code, result.output,
            result.instructions, result.cycles, result.collections,
            result.checks)


@pytest.mark.parametrize("name, source", SOURCES, ids=[n for n, _ in SOURCES])
def test_plain_and_fused_runs_agree(name, source, monkeypatch):
    if source is None:
        source = generate_program(int(name[3:]))
    model = MODELS["ss10"]
    fused_runs = []
    compile_run = superinst._compile_run

    def counting_compile_run(*args):
        fused_runs.append(args[2])
        return compile_run(*args)

    monkeypatch.setattr(superinst, "_compile_run", counting_compile_run)
    for config in CONFIGS:
        program = compile_source(source, CompileConfig.named(config, model))
        results = []
        for fuse_after in (0, 1):
            monkeypatch.setattr(superinst, "FUSE_AFTER", fuse_after)
            del fused_runs[:]
            results.append(run_program(program.asm, model,
                                       max_instructions=5_000_000))
        assert fused_runs, f"{name}/{config}: nothing fused"
        plain, fused = results
        assert plain.status == "ok", f"{name}/{config}: {plain.describe()}"
        assert observables(plain) == observables(fused), f"{name}/{config}"
