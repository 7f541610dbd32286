"""The compile split: inside one ``front_memo``, each stage computed once
per distinct input (tokens, unannotated unit, optimized IR, back half)
must give every build the code that compiling it from scratch gives,
and the oracle's per-call memo must change no verdict and outlive no
call."""

from contextlib import nullcontext
from dataclasses import fields, replace
from itertools import product
from pathlib import Path

import pytest

from repro.cfront.cpp import Preprocessor
from repro.cfront.lexer import Lexer
from repro.cfront.parser import Parser
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


def _config(config, model, sink):
    return replace(CompileConfig.named(config, MODELS[model]), sink=sink)


def _build(compiled):
    return (compiled.render_asm(), compiled.keep_lives,
            compiled.peephole_stats, compiled.sink_stats)


# Each (model order, config order) pair compiled in one memo: the
# unannotated configs read one AST and ss2 and ss10 one back half in
# either order.
ORDERS = [(models, configs) for models in MODEL_ORDERS
          for configs in (CONFIGS, CONFIGS[::-1])]
ORDER_IDS = [f"{models[0]}-first-"
             f"{'forward' if configs == CONFIGS else 'reversed'}"
             for models, configs in ORDERS]


@pytest.fixture(scope="module")
def fresh_builds():
    """Every (config, model, sink) build of a source compiled from
    scratch, once per source for the module's tests."""
    builds = {}

    def of(source):
        if source not in builds:
            builds[source] = {
                cell: _build(compile_source(source, _config(*cell)))
                for cell in product(CONFIGS, MODEL_ORDERS[0], (False, True))}
        return builds[source]
    return of


def _assert_one_memo_serves_every_build(source, models, configs, fresh):
    """Every (config, model, sink) compiled in one memo, in the given
    orders, equals a fresh compile and carries the config it asked for."""
    with front_memo():
        for cell in product(configs, models, (False, True)):
            config = _config(*cell)
            compiled = compile_source(source, config)
            assert compiled.config is config, cell
            assert _build(compiled) == fresh[cell], cell


@pytest.mark.parametrize("models, configs", ORDERS, ids=ORDER_IDS)
@pytest.mark.parametrize("path", CORPUS, ids=lambda p: p.stem)
def test_one_memo_matches_fresh_compiles_corpus(path, models, configs,
                                                fresh_builds):
    source = path.read_text()
    _assert_one_memo_serves_every_build(source, models, configs,
                                        fresh_builds(source))


@pytest.mark.slow
@pytest.mark.parametrize("models, configs", ORDERS, ids=ORDER_IDS)
@pytest.mark.parametrize("workload", WORKLOADS)
def test_one_memo_matches_fresh_compiles_workloads(workload, models, configs,
                                                   fresh_builds):
    source = load_workload(workload)
    _assert_one_memo_serves_every_build(source, models, configs,
                                        fresh_builds(source))


def _every_cost_changed(model):
    """``model`` with its register count kept and every other field
    changed."""
    return replace(model, name=f"{model.name}, costs changed", **{
        f.name: getattr(model, f.name) + 1 for f in fields(model)
        if f.name not in ("name", "num_regs")})


@pytest.mark.slow
def test_the_back_half_reads_only_the_register_count():
    """The back-half key holds ``model.num_regs`` and no other field of
    the model: a model that differs from ss10 only elsewhere gets ss10's
    code, and p90's 6 registers change some build."""
    ss10, p90 = MODELS["ss10"], MODELS["p90"]
    variant = _every_cost_changed(ss10)
    p90_differs = False
    for workload in WORKLOADS:
        source = load_workload(workload)
        for config in CONFIGS:
            asm = {model.name: compile_source(
                source, CompileConfig.named(config, model)).render_asm()
                for model in (ss10, variant, p90)}
            assert asm[variant.name] == asm[ss10.name], (workload, config)
            p90_differs |= asm[p90.name] != asm[ss10.name]
    assert p90_differs


def _counting(monkeypatch, owner, name, counts):
    real = getattr(owner, name)
    counts[name] = 0

    def counted(*args, **kwargs):
        counts[name] += 1
        return real(*args, **kwargs)
    monkeypatch.setattr(owner, name, counted)


def test_check_program_runs_each_stage_once_per_distinct_input(monkeypatch):
    """One cpp and one lex per program, one parse per annotation mode
    (none, safe, checked), one back half per (config, register file,
    sink), and still one compile_source call per cell."""
    counts = {}
    for owner, name in ((Preprocessor, "preprocess"), (Lexer, "tokenize"),
                        (Parser, "parse"), (driver, "generate_program"),
                        (oracle, "compile_source")):
        _counting(monkeypatch, owner, name, counts)
    report = oracle.check_program(CORPUS[0].read_text())
    assert report.ok and report.runs == 24
    assert counts == {"preprocess": 1, "tokenize": 1, "parse": 3,
                      "generate_program": 13, "compile_source": 24}


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
    assert driver._stages.get() is None
    with rebroken_addrfold():
        assert not oracle.check_program(source).ok
    assert oracle.check_program(source).ok
    # A pass swapped in without a salt changes no memo key: only a memo
    # that died with the previous call makes the swap visible.
    monkeypatch.setitem(opt_pipeline._PASS_FNS, "addrfold", _broken_run)
    assert not oracle.check_program(source).ok
