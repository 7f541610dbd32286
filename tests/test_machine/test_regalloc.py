"""Register allocation tests: intervals, call-crossing, spilling."""

import pytest

from repro.cfront import parse, typecheck
from repro.machine.driver import CompileConfig, compile_source
from repro.machine.lower import lower_unit
from repro.machine.models import MachineModel, PENTIUM_90, SPARC_10
from repro.machine.opt import optimize
from repro.machine.regalloc import allocate, build_intervals
from repro.workloads import load_workload


def lowered(source, fn_name, opt=True):
    tu = parse(source)
    syms = typecheck(tu)
    fn = lower_unit(tu, syms).functions[fn_name]
    if opt:
        optimize(fn)
    return fn


class TestIntervals:
    def test_param_starts_before_body(self):
        fn = lowered("int f(int a) { return a + 1; }", "f")
        intervals, _ = build_intervals(fn)
        assert intervals[fn.params[0]].start == -1

    def test_loop_extends_liveness(self):
        fn = lowered("int f(int n) { int i, s = 0; "
                     "for (i = 0; i < n; i++) s = s + i; return s; }", "f")
        intervals, _ = build_intervals(fn)
        # The accumulator must stay live across the back edge: its
        # interval covers the whole loop.
        label_positions = [2 * i for i, inst in enumerate(fn.insts)
                           if inst.op == "label"]
        s_like = [iv for iv in intervals.values()
                  if iv.start < min(label_positions) and
                  iv.end > max(label_positions)]
        assert s_like, "no interval spans the loop"

    def test_call_crossing_flag(self):
        fn = lowered("int g(void);\n"
                     "int f(int a) { int x = a + 1; g(); return x; }", "f")
        intervals, calls = build_intervals(fn)
        assert calls
        crossing = [iv for iv in intervals.values() if iv.crosses_call]
        assert crossing

    @pytest.mark.parametrize("config", ["O0", "O_safe", "g"])
    def test_call_crossing_matches_a_scan_of_every_call(self, config):
        ir = compile_source(load_workload("cordtest"),
                            CompileConfig.named(config)).ir
        for fn in ir.functions.values():
            intervals, calls = build_intervals(fn)
            assert calls == sorted(calls)
            for iv in intervals.values():
                assert iv.crosses_call == any(iv.start < c < iv.end
                                              for c in calls), iv


class TestAllocation:
    def test_no_spills_for_small_function(self):
        fn = lowered("int f(int a, int b) { return a * b + a - b; }", "f")
        alloc = allocate(fn, SPARC_10)
        assert alloc.spill_count == 0

    def test_call_crossing_gets_callee_saved(self):
        fn = lowered("int g(void);\n"
                     "int f(int a) { int x = a + 7; g(); return x; }", "f")
        alloc = allocate(fn, SPARC_10)
        crossing = [iv for iv in alloc.intervals.values()
                    if iv.crosses_call and iv.reg is not None]
        assert crossing
        assert all(iv.reg.startswith("s") for iv in crossing)

    def test_pressure_forces_spills_on_pentium(self):
        # 12 simultaneously-live values cannot fit in 6 registers.
        decls = "; ".join(f"int v{i} = a + {i}" for i in range(12))
        uses = " + ".join(f"v{i}" for i in range(12))
        fn = lowered(f"int f(int a) {{ {decls}; return {uses}; }}", "f")
        slots = dict(fn.slots)
        p90_alloc = allocate(fn, PENTIUM_90)
        assert p90_alloc.spill_count > 0
        # Spill slots live on the Allocation, so the IR frame stays fit
        # for allocating the same function for another model.
        assert fn.slots == slots
        assert all(p90_alloc.intervals[v].spill_slot in
                   p90_alloc.spill_slots for v in p90_alloc.intervals
                   if p90_alloc.intervals[v].reg is None)

    def test_same_function_fits_on_sparc(self):
        decls = "; ".join(f"int v{i} = a + {i}" for i in range(12))
        uses = " + ".join(f"v{i}" for i in range(12))
        fn = lowered(f"int f(int a) {{ {decls}; return {uses}; }}", "f")
        ss_alloc = allocate(fn, SPARC_10)
        assert ss_alloc.spill_count == 0

    def test_every_live_vreg_gets_location(self):
        fn = lowered("int f(int a, int b) { int c = a * b; "
                     "return c + a + b; }", "f")
        alloc = allocate(fn, SPARC_10)
        for iv in alloc.intervals.values():
            assert iv.reg is not None or iv.spill_slot is not None

    def test_overlapping_intervals_get_distinct_registers(self):
        fn = lowered("int f(int a, int b, int c) { return a*b + b*c + a*c; }",
                     "f")
        alloc = allocate(fn, SPARC_10)
        ivs = sorted((iv for iv in alloc.intervals.values()
                      if iv.reg is not None), key=lambda iv: iv.start)
        for i, one in enumerate(ivs):
            for other in ivs[i + 1:]:
                overlap = one.start < other.end and other.start < one.end
                if overlap and one.reg == other.reg:
                    raise AssertionError(
                        f"{one.vreg} and {other.vreg} share {one.reg} "
                        f"({one.start}-{one.end} vs {other.start}-{other.end})")

    def test_keep_hint_coalesces(self):
        from repro.core.annotate import Annotator, AnnotateOptions
        tu = parse("char *f(char *p, int i) { char *q; q = p + i; return q; }")
        typecheck(tu)
        Annotator(tu, AnnotateOptions()).run()
        syms = typecheck(tu)
        fn = lower_unit(tu, syms).functions["f"]
        optimize(fn)
        alloc = allocate(fn, SPARC_10)
        keeps = [inst for inst in fn.insts if inst.op == "keep"]
        assert keeps
        for keep in keeps:
            src_iv = alloc.intervals[keep.args[0]]
            dst_iv = alloc.intervals.get(keep.dst)
            if dst_iv is not None and dst_iv.reg and src_iv.reg:
                assert dst_iv.reg == src_iv.reg  # the gcc "0" constraint


class TestSpilledExecution:
    def test_spilled_code_still_correct(self):
        from repro.machine import CompileConfig, VM, compile_source
        decls = "; ".join(f"int v{i} = a + {i}" for i in range(14))
        uses = " + ".join(f"v{i}" for i in range(14))
        src = (f"int f(int a) {{ {decls}; return {uses}; }}\n"
               f"int main(void) {{ return f(1) & 0xFF; }}")
        expected = (sum(1 + i for i in range(14))) & 0xFF
        for model in (SPARC_10, PENTIUM_90):
            compiled = compile_source(src, CompileConfig(model=model))
            assert VM(compiled.asm, model).run().exit_code == expected

    def test_spill_cost_visible_in_cycles(self):
        from repro.machine import CompileConfig, VM, compile_source
        decls = "; ".join(f"int v{i} = a + {i}" for i in range(14))
        uses = " + ".join(f"v{i}" for i in range(14))
        src = (f"int f(int a) {{ {decls}; return {uses}; }}\n"
               f"int main(void) {{ int i, s = 0; "
               f"for (i = 0; i < 50; i++) s += f(i); return 0; }}")
        ss = compile_source(src, CompileConfig(model=SPARC_10))
        p90 = compile_source(src, CompileConfig(model=PENTIUM_90))
        r_ss = VM(ss.asm, SPARC_10).run()
        r_p90 = VM(p90.asm, PENTIUM_90).run()
        assert r_p90.instructions > r_ss.instructions  # spill traffic
