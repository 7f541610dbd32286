"""The virtual machine: executes generated machine code against the
simulated memory, with the conservative collector scanning its
registers, stack, and static data as GC-roots.

The VM counts instructions and cycles (per the active machine model) —
those counts are the "running time" of every benchmark table.  An
``gc_interval`` makes collections fire asynchronously every N
instructions, the paper's multi-threaded/asynchronous-collection threat
model under which GC-safety failures become observable.

Execution engine
----------------

The VM is a *threaded-code* interpreter: at link time every
:class:`MInst` is compiled once into a small closure with its operands,
branch targets, cycle cost, and callee already resolved, so the
per-instruction dispatch loop is just ``pc = ops[pc](pc)`` plus the
instruction accounting.  Counts are identical to a naive
decode-per-instruction loop — the benchmark tables depend on exact
cycle and instruction totals — only the Python-level interpretation
overhead changes.

Hot code goes one step further: a straight-line run of closures that
is entered often enough is replaced by one ``exec``-compiled
superinstruction with the same counts (``machine/superinst.py``).
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field

from ..gc.collector import Collector, GCCheckError, RootRange
from ..gc.memory import Memory, MemoryFault, PAGE_SIZE, STACK_TOP, STATIC_BASE
from ..obs import clock as obs_clock
from ..obs import metrics as obs_metrics
from ..obs import runtime as obs_runtime
from ..obs.vmprof import CHECK_BUILTINS, VMProfile
from .asm import ALU_OPS, ARG_REGS, BRANCH_OPS, FP, MInst, MProgram, RV, SCRATCH, SP, UNARY_OPS
from .models import MachineModel, SPARC_10

FUNC_BASE = 0x0400_0000
_MASK = 0xFFFFFFFF

# Sentinel pc returned by ``ret`` closures: always >= len(ops), so the
# execution loop's ``pc < n`` test exits.
_RET_PC = 1 << 30


class VMError(Exception):
    pass


class ExitProgram(Exception):
    def __init__(self, code: int):
        self.code = code
        super().__init__(f"exit({code})")


@dataclass
class RunResult:
    exit_code: int
    instructions: int
    cycles: int
    output: str
    collections: int
    checks: int

    def __repr__(self) -> str:
        return (f"RunResult(exit={self.exit_code}, insts={self.instructions}, "
                f"cycles={self.cycles}, collections={self.collections})")


def _s32(x: int) -> int:
    """Signed view of an already-masked 32-bit value."""
    return x - 0x1_0000_0000 if x >= 0x8000_0000 else x


def _alu_div(a: int, b: int) -> int:
    sa, sb = _s32(a), _s32(b)
    if sb == 0:
        raise VMError("integer division by zero in div")
    q = abs(sa) // abs(sb)
    return (q if (sa < 0) == (sb < 0) else -q) & _MASK


def _alu_mod(a: int, b: int) -> int:
    sa, sb = _s32(a), _s32(b)
    if sb == 0:
        raise VMError("integer division by zero in mod")
    q = abs(sa) // abs(sb)
    q = q if (sa < 0) == (sb < 0) else -q
    return (sa - q * sb) & _MASK


# Two-operand ALU semantics on masked 32-bit values (C truncating
# division; the same semantics `opt.local.eval_bin` folds with).
ALU_FUNCS = {
    "add": lambda a, b: (a + b) & _MASK,
    "sub": lambda a, b: (a - b) & _MASK,
    "mul": lambda a, b: (a * b) & _MASK,
    "div": _alu_div,
    "mod": _alu_mod,
    "and": lambda a, b: a & b,
    "or": lambda a, b: a | b,
    "xor": lambda a, b: a ^ b,
    "shl": lambda a, b: (a << (b & 31)) & _MASK,
    "shr": lambda a, b: (_s32(a) >> (b & 31)) & _MASK,
    "srl": lambda a, b: a >> (b & 31),
    "seq": lambda a, b: int(a == b),
    "sne": lambda a, b: int(a != b),
    "slt": lambda a, b: int(_s32(a) < _s32(b)),
    "sle": lambda a, b: int(_s32(a) <= _s32(b)),
    "sgt": lambda a, b: int(_s32(a) > _s32(b)),
    "sge": lambda a, b: int(_s32(a) >= _s32(b)),
    "sltu": lambda a, b: int(a < b),
    "sleu": lambda a, b: int(a <= b),
    "sgtu": lambda a, b: int(a > b),
    "sgeu": lambda a, b: int(a >= b),
}

UNARY_FUNCS = {
    "neg": lambda a: (-a) & _MASK,
    "not": lambda a: int(a == 0),
    "bnot": lambda a: (~a) & _MASK,
    "sext8": lambda a: ((a & 0xFF) - 0x100 if a & 0x80 else a & 0xFF) & _MASK,
    "zext8": lambda a: a & 0xFF,
    "sext16": lambda a: ((a & 0xFFFF) - 0x10000 if a & 0x8000 else a & 0xFFFF) & _MASK,
    "zext16": lambda a: a & 0xFFFF,
}


class VM:
    def __init__(self, program: MProgram, model: MachineModel = SPARC_10,
                 collector: Collector | None = None,
                 gc_interval: int = 0, stack_size: int = 1 << 20,
                 max_instructions: int = 500_000_000,
                 profile: VMProfile | None = None):
        self.program = program
        self.model = model
        self.gc = collector if collector is not None else Collector()
        # Hot-spot profiling is strictly opt-in: either an explicit
        # profile or the process-wide sink (``repro.obs`` --profile).
        # When None, the compiled closures carry no attribution shims.
        self._profile = (profile if profile is not None
                         else obs_runtime.session_profile())
        self.memory: Memory = self.gc.memory
        self.gc_interval = gc_interval
        self.max_instructions = max_instructions
        # The register file dict is created once and mutated in place:
        # the compiled closures capture it, and the collector's root
        # provider reads it.
        self.regs: dict[str, int] = {}
        self.output: list[str] = []
        self.stdin = ""
        self._stdin_pos = 0
        # [instructions, cycles] — shared mutable cell the compiled
        # closures and execution loop update.
        self._st = [0, 0]
        self._rand_state = 0x2545F491

        self._link(stack_size)
        self._compile_all()
        self.gc.add_root_provider(self._register_roots)
        self.gc.add_range_provider(self._stack_and_static_ranges)

    # Instruction/cycle counters live in ``_st`` for speed; expose the
    # original attribute API.

    @property
    def instructions(self) -> int:
        return self._st[0]

    @instructions.setter
    def instructions(self, value: int) -> None:
        self._st[0] = value

    @property
    def cycles(self) -> int:
        return self._st[1]

    @cycles.setter
    def cycles(self, value: int) -> None:
        self._st[1] = value

    # -- linking -----------------------------------------------------------

    def _link(self, stack_size: int) -> None:
        addr = STATIC_BASE
        self.global_addr: dict[str, int] = {}
        for name, gvar in self.program.globals.items():
            align = max(gvar.align, 1)
            addr = (addr + align - 1) // align * align
            gvar.address = addr
            self.global_addr[name] = addr
            self.memory.map_range(addr, max(gvar.size, 1))
            if gvar.init_bytes:
                self.memory.write_bytes(addr, gvar.init_bytes)
            addr += gvar.size
        self.static_end = addr
        for name, gvar in self.program.globals.items():
            for offset, symbol in getattr(gvar, "relocs", []):
                self.memory.store_word(gvar.address + offset,
                                       self.global_addr[symbol])
        # Function entry points get fake, non-heap addresses.
        self.func_addr: dict[str, int] = {}
        self.addr_func: dict[int, str] = {}
        names = list(self.program.functions) + sorted(BUILTINS)
        for i, name in enumerate(names):
            fa = FUNC_BASE + i * 16
            self.func_addr[name] = fa
            self.addr_func[fa] = name
        # Flatten code.
        self.code: dict[str, list[MInst]] = {}
        self.labels: dict[str, dict[str, int]] = {}
        for name, mf in self.program.functions.items():
            self.code[name] = mf.insts
            self.labels[name] = {inst.symbol: i for i, inst in enumerate(mf.insts)
                                 if inst.op == "label"}
        # Stack: reserved, so only the pages a run touches get mapped.
        self.stack_base = STACK_TOP - stack_size
        self.memory.reserve(self.stack_base, stack_size)

    # -- roots -------------------------------------------------------------

    def _register_roots(self):
        return list(self.regs.values())

    def _stack_and_static_ranges(self):
        sp = self.regs.get(SP, STACK_TOP)
        yield RootRange(max(sp, self.stack_base), STACK_TOP, "stack")
        yield RootRange(STATIC_BASE, self.static_end, "static")

    # -- instruction compilation -------------------------------------------

    def _compile_all(self) -> None:
        self._ops: dict[str, list] = {}
        # Superinstructions installed so far: every fusable run fuses
        # itself on its FUSE_AFTER-th entry (machine.superinst).
        # Fusion batches counter updates, so it stays off when
        # gc_interval must observe every instruction boundary, and
        # when a profile wraps every instruction for attribution.
        self.fused_runs = 0
        install = None
        if not self.gc_interval and self._profile is None:
            from . import superinst
            if superinst.FUSE_AFTER:
                install = superinst.install_leaders
        for name, insts in self.code.items():
            ops = self._compile_function(insts, self.labels[name])
            if install is not None:
                install(self, insts, self.labels[name], ops)
            elif self._profile is not None:
                ops = self._wrap_profiled(name, insts, ops)
            self._ops[name] = ops

    def _wrap_profiled(self, name: str, insts: list[MInst],
                       ops: list) -> list:
        """Wrap each compiled closure with a cycle-attribution shim (see
        ``obs.vmprof`` for the attribution rules).  The shims only read
        the shared counters, so instruction/cycle totals are identical
        with and without profiling."""
        prof = self._profile
        st = self._st
        regs = self.regs
        vm = self
        call_cost = self.model.cycles_for("call")
        callr_cost = self.model.cycles_for("callr")

        # Basic block of instruction i: the latest preceding label.
        block = "entry"
        block_of: list[str] = []
        for inst in insts:
            if inst.op == "label":
                block = inst.symbol
            block_of.append(block)

        fcell = prof.func_cell(name)
        wrapped: list = []
        for i, (inst, op) in enumerate(zip(insts, ops)):
            bcell = prof.block_cell(name, block_of[i])
            if inst.op == "call" and inst.symbol not in BUILTINS:
                # Compiled callee runs *inside* op(): attribute only the
                # static call cost here; the callee's shims do the rest.
                ccell = prof.func_cell(inst.symbol)

                def w(pc, _op=op, _f=fcell, _b=bcell, _c=ccell,
                      _cost=call_cost):
                    # Attribute before executing: the callee may unwind
                    # via exit() and never return here.
                    _c[2] += 1
                    _f[0] += _cost
                    _f[1] += 1
                    _b[0] += _cost
                    _b[1] += 1
                    return _op(pc)
            elif inst.op == "callr":
                rs1 = inst.rs1
                site_block = block_of[i]

                def w(pc, _op=op, _f=fcell, _b=bcell, _rs1=rs1, _i=i,
                      _blk=site_block, _cost=callr_cost):
                    callee = vm.addr_func.get(regs[_rs1])
                    if callee is not None and callee not in BUILTINS:
                        prof.func_cell(callee)[2] += 1
                        _f[0] += _cost
                        _f[1] += 1
                        _b[0] += _cost
                        _b[1] += 1
                        return _op(pc)
                    before = st[1]
                    npc = _op(pc)
                    d = st[1] - before
                    if callee in CHECK_BUILTINS:
                        prof.check_cell(name, _blk, _i, callee)[0] += 1
                    _f[0] += d
                    _f[1] += 1
                    _b[0] += d
                    _b[1] += 1
                    return npc
            else:
                # Plain instructions and builtin calls: the measured
                # cycle delta is exactly this instruction's cost (plus
                # the builtin's extra cycles — builtins are leaves).
                site = None
                if inst.op == "call" and inst.symbol in CHECK_BUILTINS:
                    site = prof.check_cell(name, block_of[i], i, inst.symbol)

                def w(pc, _op=op, _f=fcell, _b=bcell, _site=site):
                    before = st[1]
                    npc = _op(pc)
                    d = st[1] - before
                    _f[0] += d
                    _f[1] += 1
                    _b[0] += d
                    _b[1] += 1
                    if _site is not None:
                        _site[0] += 1
                    return npc
            wrapped.append(w)
        return wrapped

    def _compile_function(self, insts: list[MInst], labels: dict[str, int]) -> list:
        """Translate an instruction list into a parallel list of
        closures; closure i executes inst i and returns the next pc."""
        regs = self.regs
        st = self._st
        mem = self.memory
        pages = mem._pages
        model = self.model
        vm = self

        def op_skip(pc):  # label / nop / keepsafe: zero cost
            return pc + 1

        def make_li(rd, val, cost):
            def op(pc):
                regs[rd] = val
                st[1] += cost
                return pc + 1
            return op

        def make_mov(rd, rs1, cost):
            def op(pc):
                regs[rd] = regs[rs1]
                st[1] += cost
                return pc + 1
            return op

        def make_undef_symbol(symbol):
            def op(pc):
                raise VMError(f"undefined symbol {symbol!r}")
            return op

        def make_add_ri(rd, rs1, imm, cost):
            def op(pc):
                regs[rd] = (regs[rs1] + imm) & _MASK
                st[1] += cost
                return pc + 1
            return op

        def make_add_rr(rd, rs1, rs2, cost):
            def op(pc):
                regs[rd] = (regs[rs1] + regs[rs2]) & _MASK
                st[1] += cost
                return pc + 1
            return op

        def make_sub_ri(rd, rs1, imm, cost):
            def op(pc):
                regs[rd] = (regs[rs1] - imm) & _MASK
                st[1] += cost
                return pc + 1
            return op

        def make_sub_rr(rd, rs1, rs2, cost):
            def op(pc):
                regs[rd] = (regs[rs1] - regs[rs2]) & _MASK
                st[1] += cost
                return pc + 1
            return op

        def make_alu_ri(fn, rd, rs1, imm, cost):
            def op(pc):
                regs[rd] = fn(regs[rs1], imm)
                st[1] += cost
                return pc + 1
            return op

        def make_alu_rr(fn, rd, rs1, rs2, cost):
            def op(pc):
                regs[rd] = fn(regs[rs1], regs[rs2])
                st[1] += cost
                return pc + 1
            return op

        def make_unary(fn, rd, rs1, cost):
            def op(pc):
                regs[rd] = fn(regs[rs1])
                st[1] += cost
                return pc + 1
            return op

        def make_ld_word(rd, rs1, rs2, imm, cost):
            # The dominant load: aligned-in-page 4-byte word.  Falls
            # back to Memory.load for page-crossing or unmapped access.
            def op(pc):
                a = (regs[rs1] + (regs[rs2] if rs2 else imm)) & _MASK
                off = a & 0xFFF
                page = pages.get(a >> 12)
                if page is None or off > 0xFFC:
                    try:
                        v = mem.load(a, 4, False)
                    except MemoryFault:
                        raise VMError(f"load fault at 0x{a:08x}") from None
                    regs[rd] = v & _MASK
                else:
                    regs[rd] = int.from_bytes(page[off:off + 4], "little")
                st[1] += cost
                return pc + 1
            return op

        def make_ld(rd, rs1, rs2, imm, width, signed, cost):
            def op(pc):
                a = (regs[rs1] + (regs[rs2] if rs2 else imm)) & _MASK
                off = a & 0xFFF
                page = pages.get(a >> 12)
                if page is None or off + width > 0x1000:
                    try:
                        v = mem.load(a, width, signed)
                    except MemoryFault:
                        raise VMError(f"load fault at 0x{a:08x}") from None
                    regs[rd] = v & _MASK
                else:
                    regs[rd] = int.from_bytes(
                        page[off:off + width], "little", signed=signed) & _MASK
                st[1] += cost
                return pc + 1
            return op

        def make_st(rd, rs1, rs2, imm, width, cost):
            nbytes = width
            vmask = (1 << (8 * width)) - 1
            def op(pc):
                a = (regs[rs1] + (regs[rs2] if rs2 else imm)) & _MASK
                off = a & 0xFFF
                page = pages.get(a >> 12)
                if page is None or off + nbytes > 0x1000:
                    try:
                        mem.store(a, regs[rd], nbytes)
                    except MemoryFault:
                        raise VMError(f"store fault at 0x{a:08x}") from None
                else:
                    page[off:off + nbytes] = (regs[rd] & vmask).to_bytes(nbytes, "little")
                st[1] += cost
                return pc + 1
            return op

        def make_jmp(target, cost):
            def op(pc):
                st[1] += cost
                return target
            return op

        def make_bad_label(symbol):
            def op(pc):
                raise VMError(f"branch to undefined label {symbol!r}")
            return op

        def make_bz(rs1, target, cost_not, cost_taken):
            def op(pc):
                if regs[rs1] == 0:
                    st[1] += cost_taken
                    return target
                st[1] += cost_not
                return pc + 1
            return op

        def make_bnz(rs1, target, cost_not, cost_taken):
            def op(pc):
                if regs[rs1] != 0:
                    st[1] += cost_taken
                    return target
                st[1] += cost_not
                return pc + 1
            return op

        def make_call_builtin(fn, cost):
            a0, a1, a2, a3, a4, a5 = ARG_REGS
            def op(pc):
                st[1] += cost
                value, extra = fn(vm, [regs[a0], regs[a1], regs[a2],
                                       regs[a3], regs[a4], regs[a5]])
                regs[RV] = value & _MASK
                st[1] += extra
                return pc + 1
            return op

        def make_call_compiled(name, cost):
            # The callee may not be compiled yet (mutual recursion /
            # forward reference); resolve once on first execution.
            cell = []
            def op(pc):
                if not cell:
                    target = vm._ops.get(name)
                    if target is None:
                        raise VMError(f"call to undefined function {name!r}")
                    cell.append(target)
                st[1] += cost
                _exec_loop(vm, cell[0])
                return pc + 1
            return op

        def make_callr(rs1, cost):
            def op(pc):
                fa = regs[rs1]
                name = vm.addr_func.get(fa)
                if name is None:
                    raise VMError(f"indirect call to non-function address "
                                  f"0x{fa:08x}")
                builtin = BUILTINS.get(name)
                st[1] += cost
                if builtin is not None:
                    value, extra = builtin(vm, [regs[r] for r in ARG_REGS])
                    regs[RV] = value & _MASK
                    st[1] += extra
                else:
                    target = vm._ops.get(name)
                    if target is None:
                        raise VMError(f"call to undefined function {name!r}")
                    _exec_loop(vm, target)
                return pc + 1
            return op

        def make_ret(cost):
            def op(pc):
                st[1] += cost
                return _RET_PC
            return op

        ops: list = []
        for inst in insts:
            op = inst.op
            cost = model.cycles_for(op)
            if op == "label" or op == "nop" or op == "keepsafe":
                ops.append(op_skip)
            elif op == "li":
                ops.append(make_li(inst.rd, (inst.imm or 0) & _MASK, cost))
            elif op == "la":
                addr = self.global_addr.get(inst.symbol)
                if addr is None:
                    addr = self.func_addr.get(inst.symbol)
                if addr is None:
                    ops.append(make_undef_symbol(inst.symbol))
                else:
                    ops.append(make_li(inst.rd, addr, cost))
            elif op == "mov":
                ops.append(make_mov(inst.rd, inst.rs1, cost))
            elif op in ALU_OPS:
                if inst.rs2 is not None:
                    if op == "add":
                        ops.append(make_add_rr(inst.rd, inst.rs1, inst.rs2, cost))
                    elif op == "sub":
                        ops.append(make_sub_rr(inst.rd, inst.rs1, inst.rs2, cost))
                    else:
                        ops.append(make_alu_rr(ALU_FUNCS[op], inst.rd,
                                               inst.rs1, inst.rs2, cost))
                else:
                    imm = (inst.imm or 0) & _MASK
                    if op == "add":
                        ops.append(make_add_ri(inst.rd, inst.rs1, imm, cost))
                    elif op == "sub":
                        ops.append(make_sub_ri(inst.rd, inst.rs1, imm, cost))
                    else:
                        ops.append(make_alu_ri(ALU_FUNCS[op], inst.rd,
                                               inst.rs1, imm, cost))
            elif op in UNARY_OPS:
                ops.append(make_unary(UNARY_FUNCS[op], inst.rd, inst.rs1, cost))
            elif op == "ld":
                if inst.width == 4:  # signedness is irrelevant under the 32-bit mask
                    ops.append(make_ld_word(inst.rd, inst.rs1, inst.rs2,
                                            inst.imm or 0, cost))
                else:
                    ops.append(make_ld(inst.rd, inst.rs1, inst.rs2,
                                       inst.imm or 0, inst.width, inst.signed, cost))
            elif op == "st":
                ops.append(make_st(inst.rd, inst.rs1, inst.rs2,
                                   inst.imm or 0, inst.width, cost))
            elif op == "jmp":
                # A taken branch resumes at the instruction *after* the
                # label (the decode loop did pc = label; pc += 1).
                target = labels.get(inst.symbol)
                taken_cost = model.cycles_for(op, taken=True)
                ops.append(make_jmp(target + 1, taken_cost) if target is not None
                           else make_bad_label(inst.symbol))
            elif op == "bz" or op == "bnz":
                target = labels.get(inst.symbol)
                if target is None:
                    ops.append(make_bad_label(inst.symbol))
                else:
                    taken_cost = model.cycles_for(op, taken=True)
                    maker = make_bz if op == "bz" else make_bnz
                    ops.append(maker(inst.rs1, target + 1, cost, taken_cost))
            elif op == "call":
                builtin = BUILTINS.get(inst.symbol)
                if builtin is not None:
                    ops.append(make_call_builtin(builtin, cost))
                else:
                    ops.append(make_call_compiled(inst.symbol, cost))
            elif op == "callr":
                ops.append(make_callr(inst.rs1, cost))
            elif op == "ret":
                ops.append(make_ret(cost))
            else:
                raise VMError(f"cannot execute {op!r}")
        return ops

    # -- execution ------------------------------------------------------------

    def run(self, entry: str = "main", args: tuple[int, ...] = ()) -> RunResult:
        # Compiled closures (and root providers) hold a reference to the
        # register dict: reset it in place.
        # Python recursion mirrors the C call stack; leave generous
        # headroom for deeply recursive workloads.
        limit = sys.getrecursionlimit()
        if limit < 20000:
            sys.setrecursionlimit(20000)
        regs = self.regs
        regs.clear()
        regs[SP] = STACK_TOP - 64
        regs[FP] = STACK_TOP - 64
        regs[RV] = 0
        for reg in ARG_REGS + SCRATCH:
            regs[reg] = 0
        for i in range(16):  # allocatable pools (model-sized subsets used)
            regs[f"t{i}"] = 0
            regs[f"s{i}"] = 0
        for i, a in enumerate(args):
            regs[ARG_REGS[i]] = a & _MASK
        start_checks = self.gc.stats.checks_performed
        start_colls = self.gc.stats.collections
        start_insts, start_cycles = self._st
        if self._profile is not None:
            self._profile.func_cell(entry)[2] += 1
        tracer = obs_runtime.get_tracer()
        # Metrics are sampled at run() granularity only: per-instruction
        # observation would dominate the dispatch loop, and the disabled
        # path must stay one ``is None`` test.
        metrics = obs_runtime.get_metrics()
        t0_ns = obs_clock.now_ns() if metrics is not None else 0
        span = tracer.span("vm.run", entry=entry, model=self.model.name,
                           gc_interval=self.gc_interval)
        with span:
            try:
                self._call(entry)
                code = _signed(regs[RV])
            except ExitProgram as ex:
                code = ex.code
            result = RunResult(code, self._st[0], self._st[1],
                               "".join(self.output),
                               self.gc.stats.collections - start_colls,
                               self.gc.stats.checks_performed - start_checks)
            span.set(exit_code=result.exit_code,
                     instructions=result.instructions - start_insts,
                     cycles=result.cycles - start_cycles,
                     collections=result.collections, checks=result.checks)
        if metrics is not None:
            cycles = result.cycles - start_cycles
            metrics.counter("vm.runs").inc()
            metrics.counter("vm.instructions").inc(
                result.instructions - start_insts)
            metrics.counter("vm.cycles").inc(cycles)
            metrics.counter("vm.collections").inc(result.collections)
            metrics.counter("vm.checks").inc(result.checks)
            metrics.histogram("vm.run_cycles",
                              bounds=obs_metrics.COUNT_BUCKETS,
                              det=True).observe(cycles)
            metrics.histogram("vm.run_wall_ns").observe(
                obs_clock.now_ns() - t0_ns)
        if self._profile is not None:
            self._profile.runs += 1
        return result

    def release(self) -> None:
        """Drop the compiled code of a VM that is done running.

        The compiled closures and the collector's root providers refer
        back to the VM, so a finished VM is otherwise freed only by
        Python's cyclic collector: dead VMs (thousands of closures each)
        pile up between its full collections and lengthen every one of
        them.  Releasing breaks those cycles, so the VM is freed as soon
        as its last user drops it.  Results, memory and collector stay
        readable; the VM cannot run again.
        """
        for ops in self._ops.values():
            ops.clear()  # a call closure may hold another function's ops
        self._ops = {}
        collector = self.gc
        collector.dynamic_root_providers = [
            p for p in collector.dynamic_root_providers
            if getattr(p, "__self__", None) is not self]
        collector.range_providers = [
            p for p in collector.range_providers
            if getattr(p, "__self__", None) is not self]

    def _call(self, name: str) -> None:
        """Execute function ``name`` until it returns (recursive VM calls
        mirror the call stack; Python recursion depth bounds C depth)."""
        builtin = BUILTINS.get(name)
        if builtin is not None:
            self._run_builtin(name, builtin)
            return
        ops = self._ops.get(name)
        if ops is None:
            raise VMError(f"call to undefined function {name!r}")
        _exec_loop(self, ops)

    def _symbol_addr(self, symbol: str) -> int:
        addr = self.global_addr.get(symbol)
        if addr is not None:
            return addr
        fa = self.func_addr.get(symbol)
        if fa is not None:
            return fa
        raise VMError(f"undefined symbol {symbol!r}")

    def _load(self, addr: int, width: int, signed: bool) -> int:
        try:
            return self.memory.load(addr, width, signed) & _MASK
        except MemoryFault:
            raise VMError(f"load fault at 0x{addr:08x}") from None

    def _store(self, addr: int, value: int, width: int) -> None:
        try:
            self.memory.store(addr, value, width)
        except MemoryFault:
            raise VMError(f"store fault at 0x{addr:08x}") from None

    # -- builtins ------------------------------------------------------------

    def _run_builtin(self, name: str, fn) -> None:
        args = [self.regs[r] for r in ARG_REGS]
        value, extra_cycles = fn(self, args)
        self.regs[RV] = value & _MASK
        self._st[1] += extra_cycles

    # I/O helpers used by builtins.

    def _emit_out(self, text: str) -> None:
        self.output.append(text)

    def _getchar(self) -> int:
        if self._stdin_pos >= len(self.stdin):
            return 0xFFFFFFFF  # EOF (-1)
        ch = self.stdin[self._stdin_pos]
        self._stdin_pos += 1
        return ord(ch) & 0xFF


def _exec_loop(vm: VM, ops: list) -> None:
    """The interpreter inner loop: run one compiled function until it
    returns.  Instruction counting, the instruction budget, and the
    asynchronous-collection trigger live here so every closure stays
    minimal; the accounting matches the original decode loop exactly
    (count first, then collect, then execute)."""
    st = vm._st
    n = len(ops)
    pc = 0
    budget = vm.max_instructions
    interval = vm.gc_interval
    if interval:
        collect = vm.gc.collect
        while pc < n:
            ic = st[0] + 1
            st[0] = ic
            if ic > budget:
                raise VMError("instruction budget exceeded (runaway program?)")
            if not ic % interval:
                collect()
            pc = ops[pc](pc)
    else:
        while pc < n:
            ic = st[0] + 1
            st[0] = ic
            if ic > budget:
                raise VMError("instruction budget exceeded (runaway program?)")
            pc = ops[pc](pc)
    # Fell off the end (or hit ret): treat as return.


def _signed(x: int) -> int:
    x &= _MASK
    return x - (1 << 32) if x >= 1 << 31 else x


# ---------------------------------------------------------------------------
# Builtin library ("Standard C libraries were not preprocessed").
# Each builtin: fn(vm, args[6]) -> (return value, extra cycles).
# ---------------------------------------------------------------------------


def _bi_gc_malloc(vm: VM, args):
    addr = vm.gc.malloc(_signed(args[0]))
    return addr, 30


def _bi_gc_malloc_atomic(vm: VM, args):
    addr = vm.gc.malloc_atomic(_signed(args[0]))
    return addr, 30


def _bi_calloc(vm: VM, args):
    addr = vm.gc.malloc(_signed(args[0]) * _signed(args[1]))
    return addr, 30


def _bi_realloc(vm: VM, args):
    return vm.gc.realloc(args[0], _signed(args[1])), 40


def _bi_free(vm: VM, args):
    return 0, 2  # the collector reclaims; free is a no-op


def _bi_gc_collect(vm: VM, args):
    vm.gc.collect()
    return 0, 200


def _bi_same_obj(vm: VM, args):
    return vm.gc.same_obj(args[0], args[1]), vm.model.builtin_check_cycles


def _bi_pre_incr(vm: VM, args):
    return (vm.gc.pre_incr(args[0], _signed(args[1])),
            vm.model.builtin_check_cycles + 2 * vm.model.load_cycles)


def _bi_post_incr(vm: VM, args):
    return (vm.gc.post_incr(args[0], _signed(args[1])),
            vm.model.builtin_check_cycles + 2 * vm.model.load_cycles)


def _bi_gc_base(vm: VM, args):
    return vm.gc.base(args[0]) or 0, vm.model.builtin_check_cycles


def _bi_gc_check_base(vm: VM, args):
    return vm.gc.check_base(args[0]), vm.model.builtin_check_cycles


def _bi_keep_live_identity(vm: VM, args):
    """The naive KEEP_LIVE: returns its first argument.  Being a real
    call, its cost is the call overhead itself (already charged by the
    call instruction) plus a couple of cycles."""
    return args[0], 2


def _bi_putchar(vm: VM, args):
    vm._emit_out(chr(args[0] & 0xFF))
    return args[0], 10


def _bi_puts(vm: VM, args):
    s = vm.memory.read_cstring(args[0])
    vm._emit_out(s + "\n")
    return 0, 10 + len(s)


def _bi_getchar(vm: VM, args):
    return vm._getchar(), 10


def _bi_printf(vm: VM, args):
    fmt = vm.memory.read_cstring(args[0])
    rendered = _format(vm, fmt, args, 1)
    vm._emit_out(rendered)
    return len(rendered), 20 + 2 * len(rendered)


def _bi_strlen(vm: VM, args):
    s = vm.memory.read_cstring(args[0])
    return len(s), 4 + 2 * len(s)


def _bi_strcpy(vm: VM, args):
    s = vm.memory.read_cstring(args[1])
    vm.memory.write_bytes(args[0], s.encode("latin-1") + b"\0")
    return args[0], 4 + 3 * len(s)


def _bi_strcmp(vm: VM, args):
    a = vm.memory.read_cstring(args[0])
    b = vm.memory.read_cstring(args[1])
    result = 0 if a == b else (-1 if a < b else 1)
    return result & _MASK, 4 + 2 * min(len(a), len(b))


def _bi_strncmp(vm: VM, args):
    n = _signed(args[2])
    a = vm.memory.read_cstring(args[0])[:n]
    b = vm.memory.read_cstring(args[1])[:n]
    result = 0 if a == b else (-1 if a < b else 1)
    return result & _MASK, 4 + 2 * min(len(a), len(b))


def _bi_strcat(vm: VM, args):
    a = vm.memory.read_cstring(args[0])
    b = vm.memory.read_cstring(args[1])
    vm.memory.write_bytes(args[0] + len(a), b.encode("latin-1") + b"\0")
    return args[0], 4 + 3 * len(b)


def _bi_strchr(vm: VM, args):
    s = vm.memory.read_cstring(args[0])
    ch = chr(args[1] & 0xFF)
    pos = s.find(ch)
    return (0 if pos < 0 else args[0] + pos), 4 + 2 * (pos if pos >= 0 else len(s))


def _bi_memcpy(vm: VM, args):
    n = _signed(args[2])
    data = vm.memory.read_bytes(args[1], n)
    vm.memory.write_bytes(args[0], data)
    return args[0], 4 + n


def _bi_memset(vm: VM, args):
    n = _signed(args[2])
    vm.memory.fill(args[0], n, args[1] & 0xFF)
    return args[0], 4 + n


def _bi_abs(vm: VM, args):
    return abs(_signed(args[0])) & _MASK, 2


def _bi_atoi(vm: VM, args):
    s = vm.memory.read_cstring(args[0]).strip()
    sign = 1
    if s[:1] in "+-":
        sign = -1 if s[0] == "-" else 1
        s = s[1:]
    digits = ""
    for ch in s:
        if not ch.isdigit():
            break
        digits += ch
    return (sign * int(digits or "0")) & _MASK, 10 + 2 * len(digits)


def _bi_exit(vm: VM, args):
    raise ExitProgram(_signed(args[0]))


def _bi_abort(vm: VM, args):
    raise VMError("abort() called")


def _bi_rand(vm: VM, args):
    vm._rand_state = (vm._rand_state * 1103515245 + 12345) & _MASK
    return (vm._rand_state >> 16) & 0x7FFF, 8


def _bi_srand(vm: VM, args):
    vm._rand_state = args[0] or 1
    return 0, 2


def _format(vm: VM, fmt: str, args, argi: int) -> str:
    out: list[str] = []
    i = 0
    while i < len(fmt):
        ch = fmt[i]
        if ch != "%":
            out.append(ch)
            i += 1
            continue
        i += 1
        width = ""
        while i < len(fmt) and (fmt[i].isdigit() or fmt[i] == "-"):
            width += fmt[i]
            i += 1
        spec = fmt[i] if i < len(fmt) else "%"
        i += 1
        if argi >= len(args):
            argi = len(args) - 1
        if spec == "d":
            text = str(_signed(args[argi])); argi += 1
        elif spec == "u":
            text = str(args[argi] & _MASK); argi += 1
        elif spec == "x":
            text = format(args[argi] & _MASK, "x"); argi += 1
        elif spec == "c":
            text = chr(args[argi] & 0xFF); argi += 1
        elif spec == "s":
            text = vm.memory.read_cstring(args[argi]); argi += 1
        elif spec == "%":
            text = "%"
        else:
            text = "%" + spec
        if width:
            try:
                w = int(width)
                text = text.ljust(-w) if w < 0 else text.rjust(w)
            except ValueError:
                pass
        out.append(text)
    return "".join(out)


def _bi_sprintf(vm: VM, args):
    fmt = vm.memory.read_cstring(args[1])
    rendered = _format(vm, fmt, args, 2)
    vm.memory.write_bytes(args[0], rendered.encode("latin-1") + b"\0")
    return len(rendered), 20 + 2 * len(rendered)


def _bi_strncpy(vm: VM, args):
    n = _signed(args[2])
    s = vm.memory.read_cstring(args[1])[:n]
    data = s.encode("latin-1")
    data = data + b"\0" * (n - len(data))
    vm.memory.write_bytes(args[0], data)
    return args[0], 4 + 3 * n


def _bi_strstr(vm: VM, args):
    hay = vm.memory.read_cstring(args[0])
    needle = vm.memory.read_cstring(args[1])
    pos = hay.find(needle)
    return (0 if pos < 0 else args[0] + pos), 6 + 2 * len(hay)


def _ctype_builtin(predicate):
    def bi(vm: VM, args):
        c = args[0] & 0xFF
        return int(predicate(chr(c))), 4
    return bi


def _bi_toupper(vm: VM, args):
    return ord(chr(args[0] & 0xFF).upper()), 4


def _bi_tolower(vm: VM, args):
    return ord(chr(args[0] & 0xFF).lower()), 4


def _bi_assert_fail(vm: VM, args):
    msg = vm.memory.read_cstring(args[0]) if args[0] else "?"
    raise VMError(f"assertion failed: {msg}")


BUILTINS = {
    "GC_malloc": _bi_gc_malloc,
    "GC_malloc_atomic": _bi_gc_malloc_atomic,
    "GC_realloc": _bi_realloc,
    "GC_free": _bi_free,
    "GC_collect": _bi_gc_collect,
    "GC_gcollect": _bi_gc_collect,
    "GC_same_obj": _bi_same_obj,
    "GC_pre_incr": _bi_pre_incr,
    "GC_post_incr": _bi_post_incr,
    "GC_base": _bi_gc_base,
    "GC_check_base": _bi_gc_check_base,
    "KEEP_LIVE": _bi_keep_live_identity,
    "malloc": _bi_gc_malloc,
    "calloc": _bi_calloc,
    "realloc": _bi_realloc,
    "free": _bi_free,
    "putchar": _bi_putchar,
    "puts": _bi_puts,
    "getchar": _bi_getchar,
    "printf": _bi_printf,
    "strlen": _bi_strlen,
    "strcpy": _bi_strcpy,
    "strcmp": _bi_strcmp,
    "strncmp": _bi_strncmp,
    "strcat": _bi_strcat,
    "strchr": _bi_strchr,
    "memcpy": _bi_memcpy,
    "memmove": _bi_memcpy,
    "memset": _bi_memset,
    "abs": _bi_abs,
    "atoi": _bi_atoi,
    "sprintf": _bi_sprintf,
    "strncpy": _bi_strncpy,
    "strstr": _bi_strstr,
    "isdigit": _ctype_builtin(str.isdigit),
    "isalpha": _ctype_builtin(str.isalpha),
    "isalnum": _ctype_builtin(str.isalnum),
    "isspace": _ctype_builtin(str.isspace),
    "isupper": _ctype_builtin(str.isupper),
    "islower": _ctype_builtin(str.islower),
    "toupper": _bi_toupper,
    "tolower": _bi_tolower,
    "exit": _bi_exit,
    "abort": _bi_abort,
    "rand": _bi_rand,
    "srand": _bi_srand,
    "__assert_fail": _bi_assert_fail,
}
