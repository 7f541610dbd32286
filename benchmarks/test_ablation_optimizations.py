"""Ablation of the paper's "Optimizations" section, (1)-(4).

The paper argues each annotation-level optimization matters:

1. copy suppression avoids "many unnecessary KEEP_LIVE calls";
2. specialized ++/-- expansion avoids "forcing e to memory";
3. the slowly-varying-base heuristic frees the optimizer to use
   "indexed loads based on s and t";
4. restricting collections to call sites "could often be reduced
   dramatically" the number of KEEP_LIVE invocations.

Each ablation row measures KEEP_LIVE counts and run cycles with one
optimization disabled against the full annotator.  One more row
measures the opt-in induction-variable pass (``opt/indvar.py``), the
paper's second named source of disguised pointers.
"""

import dataclasses

import pytest

from repro.core.annotate import AnnotateOptions
from repro.machine.driver import CompileConfig, compile_source
from repro.machine.models import SPARC_10
from repro.machine.opt import DEFAULT_PASSES
from repro.machine.vm import VM, run_program
from repro.workloads import WORKLOADS, load_workload

VARIANTS = {
    "full": AnnotateOptions(),
    "no_copy_suppression": AnnotateOptions(suppress_copies=False),
    "no_incdec_expansion": AnnotateOptions(expand_incdec=False),
    "no_base_heuristic": AnnotateOptions(base_heuristic=False),
    "call_safe_points": AnnotateOptions(call_safe_points=True),
}


def _measure(workload: str, variant: str):
    options = AnnotateOptions(**vars(VARIANTS[variant]))
    config = CompileConfig(optimize=True, safe=True, model=SPARC_10,
                           annotate_options=options)
    compiled = compile_source(load_workload(workload), config)
    vm = VM(compiled.asm, SPARC_10)
    vm.stdin = WORKLOADS[workload].stdin
    run = vm.run()
    return compiled, run


@pytest.mark.parametrize("workload", ("cordtest", "miniawk"))
def test_ablation_keep_live_counts(benchmark, workload):
    results = benchmark.pedantic(
        lambda: {v: _measure(workload, v) for v in VARIANTS},
        rounds=1, iterations=1)
    full_compiled, full_run = results["full"]
    counts = {v: c.keep_lives for v, (c, _) in results.items()}
    cycles = {v: r.cycles for v, (_, r) in results.items()}
    benchmark.extra_info["keep_lives"] = counts
    # Every variant still computes the same answer.
    codes = {r.exit_code for _, r in results.values()}
    assert len(codes) == 1, codes
    # (1) suppressing copies removes KEEP_LIVEs.
    assert counts["no_copy_suppression"] > counts["full"]
    # (4) call-site-only collection needs at most as many KEEP_LIVEs.
    assert counts["call_safe_points"] <= counts["full"]


def test_ablation_base_heuristic_cost(benchmark):
    """(3): without the slowly-varying-base heuristic the safe code
    must not get faster (the heuristic can only relax constraints)."""
    with_h, without_h = benchmark.pedantic(
        lambda: (_measure("cordtest", "full")[1],
                 _measure("cordtest", "no_base_heuristic")[1]),
        rounds=1, iterations=1)
    benchmark.extra_info["cycles"] = {
        "with_heuristic": with_h.cycles, "without": without_h.cycles}
    assert with_h.exit_code == without_h.exit_code
    assert with_h.cycles <= without_h.cycles * 1.02


def test_ablation_incdec_expansion_cost(benchmark):
    """(2): the specialized ++/-- expansion should not lose to the
    general temporary-through-memory expansion."""
    fast, slow = benchmark.pedantic(
        lambda: (_measure("cordtest", "full")[1],
                 _measure("cordtest", "no_incdec_expansion")[1]),
        rounds=1, iterations=1)
    benchmark.extra_info["cycles"] = {"specialized": fast.cycles,
                                      "general": slow.cycles}
    assert fast.exit_code == slow.exit_code
    assert fast.cycles <= slow.cycles * 1.02


def test_ablation_naive_keep_live(benchmark):
    """The paper's strawman KEEP_LIVE ("a call to an external function
    ... is, of course, terribly inefficient") versus the inline-asm
    barrier.  The call version must cost several times more."""
    from repro.machine.driver import CompileConfig, compile_source
    from repro.machine.models import SPARC_10
    from repro.machine.vm import VM
    from repro.workloads import load_workload

    def measure():
        source = load_workload("cordtest")
        results = {}
        base = compile_source(source, CompileConfig.named("O"))
        results["O"] = VM(base.asm, SPARC_10).run()
        for name, naive in (("barrier", False), ("naive_call", True)):
            config = CompileConfig.named("O_safe")
            config.naive_keep_live = naive
            compiled = compile_source(source, config)
            results[name] = VM(compiled.asm, SPARC_10).run()
        return results

    results = benchmark.pedantic(measure, rounds=1, iterations=1)
    base = results["O"].cycles
    barrier_pct = 100.0 * (results["barrier"].cycles - base) / base
    naive_pct = 100.0 * (results["naive_call"].cycles - base) / base
    benchmark.extra_info["keep_live_impl"] = {
        "barrier_pct": round(barrier_pct, 1), "naive_pct": round(naive_pct, 1)}
    assert results["barrier"].exit_code == results["naive_call"].exit_code \
        == results["O"].exit_code
    assert naive_pct > 3 * barrier_pct, (
        f"naive call ({naive_pct:.0f}%) should dwarf the barrier "
        f"({barrier_pct:.0f}%)")


# The default pipeline with indvar run before deadcode, which removes
# the address arithmetic the walking pointer replaces.
INDVAR_PASSES = tuple(p for p in DEFAULT_PASSES if p != "deadcode") + (
    "indvar", "deadcode")


def test_ablation_indvar(benchmark):
    """The opt-in induction-variable pass keeps every paper workload's
    answer at O and O_safe, and it transforms the O and O_safe code of
    cfrac and miniawk.  Their O_safe code with it survives a collection
    at every instruction with reclaimed objects poisoned: the ``keep``
    barrier's base operand keeps the base live while the walking
    pointer steps."""

    def measure():
        rows = {}
        for workload, spec in WORKLOADS.items():
            source = load_workload(workload)
            for name in ("O", "O_safe"):
                base = CompileConfig.named(name)
                for passes in (base.passes, INDVAR_PASSES):
                    config = dataclasses.replace(base, passes=passes)
                    compiled = compile_source(source, config)
                    rows[workload, name, passes] = (compiled, run_program(
                        compiled.asm, SPARC_10, stdin=spec.stdin))
        return rows

    rows = benchmark.pedantic(measure, rounds=1, iterations=1)
    benchmark.extra_info["indvar"] = {
        f"{w}/{c}": {"code_size": [rows[w, c, p][0].code_size
                                   for p in (DEFAULT_PASSES, INDVAR_PASSES)],
                     "cycles": [rows[w, c, p][1].cycles
                                for p in (DEFAULT_PASSES, INDVAR_PASSES)]}
        for w, c, p in rows if p == DEFAULT_PASSES}
    for (workload, name, passes), (_, result) in rows.items():
        base = rows[workload, name, DEFAULT_PASSES][1]
        assert result.status == base.status == "ok", (workload, name)
        assert (result.exit_code, result.output) == (
            base.exit_code, base.output), (workload, name)
    for workload in ("cfrac", "miniawk"):
        for name in ("O", "O_safe"):
            base, with_indvar = (rows[workload, name, p][0].asm.render()
                                 for p in (DEFAULT_PASSES, INDVAR_PASSES))
            assert with_indvar != base, (workload, name)
        source, stdin = load_workload(workload), WORKLOADS[workload].stdin
        g = run_program(compile_source(source, CompileConfig.named("g")).asm,
                        SPARC_10, stdin=stdin)
        safe = compile_source(source, dataclasses.replace(
            CompileConfig.named("O_safe"), passes=INDVAR_PASSES))
        adversarial = run_program(safe.asm, SPARC_10, stdin=stdin,
                                  gc_interval=1, poison=True)
        assert adversarial.status == g.status == "ok", workload
        assert (adversarial.exit_code, adversarial.output) == (
            g.exit_code, g.output), workload
