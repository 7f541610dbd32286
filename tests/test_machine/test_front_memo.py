"""The compile split: one front half (cpp through optimize) linked for
several machine models must give the code that compiling each model
from scratch gives, and the oracle's per-call memo of front halves must
change no verdict and outlive no call."""

from contextlib import nullcontext
from pathlib import Path

import pytest

from repro.fuzz import oracle
from repro.fuzz.brokenpass import _broken_run, rebroken_addrfold
from repro.machine import driver
from repro.machine import opt as opt_pipeline
from repro.machine.driver import (CONFIGS, CompileConfig, compile_source,
                                  front_memo)
from repro.machine.models import MODELS
from repro.workloads import load_workload

CORPUS = sorted((Path(__file__).parents[1] / "test_fuzz" / "corpus")
                .glob("*.c"))
WORKLOADS = ("cordtest", "cfrac", "miniawk", "minips", "gcbench", "scratch")
MODEL_ORDERS = (("ss2", "ss10", "p90"), ("p90", "ss10", "ss2"))


def _compile(source, config, model):
    return compile_source(source, CompileConfig.named(config, MODELS[model]))


def _assert_one_front_half_serves_every_model(source, config):
    fresh = {m: _compile(source, config, m) for m in MODEL_ORDERS[0]}
    for order in MODEL_ORDERS:
        with front_memo():
            linked = {m: _compile(source, config, m) for m in order}
        for m in order:
            assert linked[m].render_asm() == fresh[m].render_asm(), (order, m)
            assert linked[m].keep_lives == fresh[m].keep_lives, (order, m)


@pytest.mark.parametrize("config", CONFIGS)
@pytest.mark.parametrize("path", CORPUS, ids=lambda p: p.stem)
def test_shared_front_half_matches_fresh_compiles_corpus(path, config):
    _assert_one_front_half_serves_every_model(path.read_text(), config)


@pytest.mark.slow
@pytest.mark.parametrize("config", CONFIGS)
@pytest.mark.parametrize("workload", WORKLOADS)
def test_shared_front_half_matches_fresh_compiles_workloads(workload,
                                                            config):
    _assert_one_front_half_serves_every_model(load_workload(workload),
                                              config)


def test_each_config_is_parsed_once_per_check(monkeypatch):
    parses, compiles = [], []
    real_parse, real_compile = driver.parse, oracle.compile_source
    monkeypatch.setattr(driver, "parse",
                        lambda src: parses.append(1) or real_parse(src))
    monkeypatch.setattr(oracle, "compile_source",
                        lambda *a: compiles.append(1) or real_compile(*a))
    report = oracle.check_program(CORPUS[0].read_text())
    assert report.ok and report.runs == 24
    assert (len(parses), len(compiles)) == (len(CONFIGS), 24)


def _verdict(report):
    return ([m.describe() for m in report.mismatches], report.runs,
            report.gc_totals.to_dict())


@pytest.mark.parametrize("path", CORPUS, ids=lambda p: p.stem)
def test_memo_changes_no_verdict(path, monkeypatch):
    source = path.read_text()
    shared = _verdict(oracle.check_program(source))
    monkeypatch.setattr(oracle, "front_memo", nullcontext)
    assert _verdict(oracle.check_program(source)) == shared


def test_memo_changes_no_mismatch(monkeypatch):
    source = (CORPUS[0].parent / "addrfold_alias.c").read_text()
    with rebroken_addrfold():
        shared = _verdict(oracle.check_program(source))
        monkeypatch.setattr(oracle, "front_memo", nullcontext)
        assert _verdict(oracle.check_program(source)) == shared
    assert shared[0], "the re-broken pass should miscompile this program"


def test_no_front_half_outlives_check_program(monkeypatch):
    source = (CORPUS[0].parent / "addrfold_alias.c").read_text()
    assert oracle.check_program(source).ok
    assert driver._front_halves.get() is None
    with rebroken_addrfold():
        assert not oracle.check_program(source).ok
    assert oracle.check_program(source).ok
    # A pass swapped in without a salt changes no memo key: only a memo
    # that died with the previous call makes the swap visible.
    monkeypatch.setitem(opt_pipeline._PASS_FNS, "addrfold", _broken_run)
    assert not oracle.check_program(source).ok
