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

What each straight-line op executes is written once.  ``ALU_EXPRS``/
``UNARY_EXPRS`` hold each operator's expression and ``CHECK_EXPRS``
each pointer check's call of the collector, and :func:`statement`
renders every straight-line op (``li``, ``la``, ``mov``, the ALU and
unary ops, ``ld`` at each width and signedness, ``st`` at each width,
and a ``call`` of one of the five checks) as Python statements over the
texts of its operands.  A check's cycle cost is the call's plus
:func:`check_extra`, which the checks' ``BUILTINS`` entries (what
``callr`` runs) read too.  The plain
closures (one factory per :func:`shape`, compiled on first use) and the
fused runs are compiled from those statements, and the optimizer folds
constants with the expressions (``opt.local.eval_bin``), so a folded
constant is the value the machine would have computed.  The one text
each tier writes itself is the in-page access of a load or store: a
page slice with ``int.from_bytes``/``to_bytes`` here, ``struct`` codecs
in fused runs.  It stays per tier so that the two tiers' relative
speed, which the vm2 gate times, does not move.  Both tiers take the
same slow path, ``VM._load``/``VM._store``, across pages or into an
unmapped one.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field

from ..gc.collector import Collector, GCCheckError, GCStats, RootRange
from ..gc.memory import Memory, MemoryFault, PAGE_SIZE, STACK_TOP, STATIC_BASE
from ..obs import clock as obs_clock
from ..obs import metrics as obs_metrics
from ..obs import runtime as obs_runtime
from ..obs.vmprof import CHECK_BUILTINS, VMProfile
from .asm import ARG_REGS, FP, MInst, MProgram, RV, SCRATCH, SP
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
    """What one run of a program did.  ``status`` is "ok", "fault" (a
    ``VMError``, a ``MemoryFault`` inside a builtin or a call stack
    deeper than the host allows), "check" (a ``GCCheckError``) or, set
    only by the fuzz oracle, "compile-error"; ``detail`` says what went
    wrong; ``gc_stats`` is the collector's ``GCStats``.  A failed run
    has no exit code and 0 instructions and cycles: a fused run settles
    those only when it leaves the run, so at a fault they depend on the
    tier.  Its output and collector counts are exact."""

    exit_code: int | None
    instructions: int
    cycles: int
    output: str
    collections: int
    checks: int
    status: str = "ok"
    detail: str = ""
    gc_stats: GCStats = field(default_factory=GCStats)

    def describe(self) -> str:
        if self.status == "ok":
            return f"exit={self.exit_code} output={self.output!r}"
        return f"{self.status}: {self.detail}"

    def __repr__(self) -> str:
        return (f"RunResult({self.status}, exit={self.exit_code}, "
                f"insts={self.instructions}, cycles={self.cycles}, "
                f"collections={self.collections})")


def _s32(x: int) -> int:
    """Signed view of an already-masked 32-bit value."""
    return x - 0x1_0000_0000 if x >= 0x8000_0000 else x


def _div(a: int, b: int) -> int:
    sa, sb = _s32(a), _s32(b)
    if sb == 0:
        raise VMError("integer division by zero in div")
    q = abs(sa) // abs(sb)
    return (q if (sa < 0) == (sb < 0) else -q) & _MASK


def _mod(a: int, b: int) -> int:
    sa, sb = _s32(a), _s32(b)
    if sb == 0:
        raise VMError("integer division by zero in mod")
    q = abs(sa) // abs(sb)
    q = q if (sa < 0) == (sb < 0) else -q
    return (sa - q * sb) & _MASK


def _divu(a: int, b: int) -> int:
    if b == 0:
        raise VMError("integer division by zero in divu")
    return a // b


def _modu(a: int, b: int) -> int:
    if b == 0:
        raise VMError("integer division by zero in modu")
    return a % b


# What each ALU and unary op computes: a Python expression over masked
# 32-bit operands {a} and {b} whose value is the masked result (C
# truncating division).  Operands are substituted as atoms (a name, a
# subscript or a non-negative literal), so none needs parentheses; the
# expressions call no helper but _OP_HELPERS.
ALU_EXPRS = {
    "add": "({a} + {b}) & 4294967295",
    "sub": "({a} - {b}) & 4294967295",
    "mul": "({a} * {b}) & 4294967295",
    "div": "_div({a}, {b})",
    "mod": "_mod({a}, {b})",
    "divu": "_divu({a}, {b})",
    "modu": "_modu({a}, {b})",
    "and": "{a} & {b}",
    "or": "{a} | {b}",
    "xor": "{a} ^ {b}",
    "shl": "({a} << ({b} & 31)) & 4294967295",
    "shr": "(_s32({a}) >> ({b} & 31)) & 4294967295",
    "srl": "{a} >> ({b} & 31)",
    "seq": "1 if {a} == {b} else 0",
    "sne": "1 if {a} != {b} else 0",
    "slt": "1 if _s32({a}) < _s32({b}) else 0",
    "sle": "1 if _s32({a}) <= _s32({b}) else 0",
    "sgt": "1 if _s32({a}) > _s32({b}) else 0",
    "sge": "1 if _s32({a}) >= _s32({b}) else 0",
    "sltu": "1 if {a} < {b} else 0",
    "sleu": "1 if {a} <= {b} else 0",
    "sgtu": "1 if {a} > {b} else 0",
    "sgeu": "1 if {a} >= {b} else 0",
}
UNARY_EXPRS = {
    "neg": "-{a} & 4294967295",
    "not": "1 if {a} == 0 else 0",
    "bnot": "~{a} & 4294967295",
    # A set sign bit fills the upper bits; {a} has none above bit 31.
    "sext8": "{a} | 4294967040 if {a} & 128 else {a} & 255",
    "zext8": "{a} & 255",
    "sext16": "{a} | 4294901760 if {a} & 32768 else {a} & 65535",
    "zext16": "{a} & 65535",
}
_OP_HELPERS = {"_s32": _s32, "_div": _div, "_mod": _mod, "_divu": _divu,
               "_modu": _modu}


def _op_functions(exprs: dict[str, str], params: str) -> dict:
    """Each table expression as a function of ``params``."""
    items = ", ".join(f"{op!r}: lambda {params}: {expr.format(a='a', b='b')}"
                      for op, expr in exprs.items())
    return eval("{" + items + "}", dict(_OP_HELPERS))


ALU_FUNCS = _op_functions(ALU_EXPRS, "a, b")
UNARY_FUNCS = _op_functions(UNARY_EXPRS, "a")

# What each pointer check (the paper's GC_same_obj family, the calls
# of a ``-g checked`` build) computes: a call of the collector ``_GC``
# on the argument registers a0 {a} and a1 {b}, whose value is rv.  None
# allocates, collects or prints, so a check is a straight-line op: it
# reads and writes no register but its arguments and rv.
CHECK_EXPRS = {
    "GC_same_obj": "_GC.same_obj({a}, {b})",
    "GC_pre_incr": "_GC.pre_incr({a}, _s32({b}))",
    "GC_post_incr": "_GC.post_incr({a}, _s32({b}))",
    "GC_check_base": "_GC.check_base({a})",
    "GC_base": "_GC.base({a}) or 0",
}


def check_extra(model: MachineModel, name: str) -> int:
    """The cycles check ``name`` costs beyond its call: the page-table
    lookup, and for an incr check the load and store of the pointer it
    moves."""
    extra = model.builtin_check_cycles
    if name == "GC_pre_incr" or name == "GC_post_incr":
        extra += 2 * model.load_cycles
    return extra


# The ops ``statement`` renders, besides the checks (calls, told apart
# by their symbol: :func:`is_check`): everything but control transfer,
# calls and the zero-cost markers.
STRAIGHT_OPS = frozenset(("li", "la", "mov", "ld", "st",
                          *ALU_EXPRS, *UNARY_EXPRS))


def is_check(inst: MInst) -> bool:
    """Whether ``inst`` calls one of the pointer checks."""
    return inst.op == "call" and inst.symbol in CHECK_EXPRS


def operands(inst: MInst) -> tuple[str | None, str | None, str | None]:
    """The registers a straight-line ``inst`` names as (``rd``, ``rs1``,
    ``rs2``): a check reads a0 and a1 and writes rv."""
    if inst.op == "call":
        return RV, ARG_REGS[0], ARG_REGS[1]
    return inst.rd, inst.rs1, inst.rs2


def op_cycles(model: MachineModel, inst: MInst) -> int:
    """The static cycle cost of a straight-line ``inst``: its op's, and
    a check's call plus :func:`check_extra`."""
    if inst.op == "call":
        return model.cycles_for("call") + check_extra(model, inst.symbol)
    return model.cycles_for(inst.op)


def shape(inst: MInst) -> tuple[str, str, int, bool]:
    """What the statement of a straight-line ``inst`` depends on besides
    its registers and immediate: (op, operand form, width, signed).
    Forms: "rr" (``rs1`` and ``rs2``), "ri" (``rs1`` and the immediate),
    "r" (``rs1`` only) and "i" (the immediate only).  ``la`` is ``li``
    of its symbol's address, a word load's signedness is moot, and a
    check's op is its name."""
    op = inst.op
    if op == "li" or op == "la":
        return "li", "i", 4, False
    if op == "mov" or op in UNARY_EXPRS:
        return op, "r", 4, False
    if op == "call":
        name = inst.symbol
        return name, "rr" if "{b}" in CHECK_EXPRS[name] else "r", 4, False
    form = "ri" if inst.rs2 is None else "rr"
    if op == "ld" or op == "st":
        return op, form, inst.width, (op == "ld" and inst.width < 4
                                      and bool(inst.signed))
    return op, form, 4, False


def statement(shape: tuple[str, str, int, bool], a: str, b: str, d: str,
              t: str, access) -> list[str]:
    """The lines of Python that execute one straight-line instruction of
    ``shape``, the one statement of it both tiers compile.

    ``a`` is the text of ``rs1``'s value and ``b`` that of ``rs2``'s or
    of the immediate; ``d`` names ``rd``, which ``st`` reads and every
    other op assigns.  ``t`` suffixes the temporaries, so several
    statements can share one body.  ``ld`` and ``st`` take the shared
    slow path ``_LD``/``_STO`` (``VM._load``/``VM._store``) across pages
    or into an unmapped one; ``access(width, signed, page, off, value)``
    renders the in-page access, the one text each tier writes itself:
    with ``value`` None, the expression reading ``width`` bytes at
    ``page[off]``, else the statement writing ``value`` there.  A check
    calls the collector ``_GC``."""
    op, form, width, signed = shape
    if form == "i":
        return [f"{d} = {b}"]
    if op == "mov":
        return [f"{d} = {a}"]
    expr = ALU_EXPRS.get(op) or UNARY_EXPRS.get(op)
    if expr is not None:
        return [f"{d} = {expr.format(a=a, b=b)}"]
    expr = CHECK_EXPRS.get(op)
    if expr is not None:
        return [f"{d} = ({expr.format(a=a, b=b)}) & 4294967295"]
    addr, off, page = f"_a{t}", f"_o{t}", f"_p{t}"
    lines = [f"{addr} = ({a} + {b}) & 4294967295",
             f"{off} = {addr} & 4095",
             f"{page} = _PG.get({addr} >> 12)",
             # A byte at any offset lies inside its page.
             f"if {page} is None:" if width == 1 else
             f"if {page} is None or {off} > {4096 - width}:"]
    if op == "ld":
        value = access(width, signed, page, off)
        return lines + [f"    {d} = _LD({addr}, {width}, {signed})",
                        "else:",
                        f"    {d} = {value}" + (" & 4294967295" if signed
                                                else "")]
    value = f"({d} & {(1 << 8 * width) - 1})"
    return lines + [f"    _STO({addr}, {d}, {width})",
                    "else:",
                    f"    {access(width, False, page, off, value)}"]


def _slice_access(width: int, signed: bool, page: str, off: str,
                  value: str | None = None) -> str:
    """The plain tier's in-page access: a slice of the page."""
    span = f"{page}[{off}:{off} + {width}]"
    if value is None:
        return (f"int.from_bytes({span}, 'little'"
                + (", signed=True)" if signed else ")"))
    return f"{span} = {value}.to_bytes({width}, 'little')"


# The plain tier's closure factories, one per shape, each compiled from
# its statement on first use.  A VM binds each factory it uses to its
# state once, so its closures share the state's cells rather than each
# allocating its own (linking is a share of every fuzz-oracle cell).
_FACTORY_TEMPLATE = """\
def bind(_R, _ST, _PG, _LD, _STO, _GC):
    def make(rd, rs1, src2, cost):
        def op(pc):
{body}
            _ST[1] += cost
            return pc + 1
        return op
    return make
"""
_FACTORIES: dict[tuple[str, str, int, bool], object] = {}


def _op_factory(shape: tuple[str, str, int, bool]):
    """``bind(regs, counters, pages, load, store, collector)`` for
    ``shape``: it returns one VM's ``make(rd, rs1, src2, cost)``, where
    ``src2`` is ``rs2`` or the immediate, and ``make`` returns the
    closure that executes one such instruction."""
    factory = _FACTORIES.get(shape)
    if factory is None:
        b = "_R[src2]" if shape[1] == "rr" else "src2"
        body = statement(shape, "_R[rs1]", b, "_R[rd]", "", _slice_access)
        ns = dict(_OP_HELPERS)
        exec(compile(_FACTORY_TEMPLATE.format(
            body="\n".join(" " * 12 + line for line in body)),
            "<{}_{}_{}_{}>".format(*shape), "exec"), ns)
        factory = _FACTORIES[shape] = ns["bind"]
    return factory


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
            self.global_addr[name] = addr
            self.memory.map_range(addr, max(gvar.size, 1))
            if gvar.init_bytes:
                self.memory.write_bytes(addr, gvar.init_bytes)
            addr += gvar.size
        self.static_end = addr
        for name, gvar in self.program.globals.items():
            for offset, symbol in getattr(gvar, "relocs", []):
                self.memory.store_word(self.global_addr[name] + offset,
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
        makers: dict = {}
        for name, insts in self.code.items():
            ops = self._compile_function(insts, self.labels[name], makers)
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

    def _compile_function(self, insts: list[MInst], labels: dict[str, int],
                          makers: dict) -> list:
        """Translate an instruction list into a parallel list of
        closures; closure i executes inst i and returns the next pc.
        ``makers`` holds the VM's bound closure factories, keyed by the
        fields ``shape`` reads."""
        regs = self.regs
        st = self._st
        pages = self.memory._pages
        load = self._load
        store = self._store
        gc = self.gc
        model = self.model
        vm = self

        def op_skip(pc):  # label / nop / keepsafe: zero cost
            return pc + 1

        def make_undef_symbol(symbol):
            def op(pc):
                raise VMError(f"undefined symbol {symbol!r}")
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
            elif op in STRAIGHT_OPS:
                src2 = (inst.rs2 if inst.rs2 is not None
                        else self._immediate(inst))
                if src2 is None:  # an la of an undefined symbol
                    ops.append(make_undef_symbol(inst.symbol))
                    continue
                key = (op, inst.rs2 is None, inst.width, inst.signed)
                make = makers.get(key)
                if make is None:
                    make = makers[key] = _op_factory(shape(inst))(
                        regs, st, pages, load, store, gc)
                ops.append(make(inst.rd, inst.rs1, src2, cost))
            elif op == "call" and inst.symbol in CHECK_EXPRS:
                make = makers.get(inst.symbol)
                if make is None:
                    make = makers[inst.symbol] = _op_factory(shape(inst))(
                        regs, st, pages, load, store, gc)
                ops.append(make(*operands(inst), op_cycles(model, inst)))
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

    def _immediate(self, inst: MInst) -> int | None:
        """The immediate operand of a straight-line ``inst``: an address
        offset as written (a small negative one stays a one-digit int,
        which Python adds faster), any other immediate masked, and for
        ``la`` its symbol's address, None when the symbol is undefined."""
        op = inst.op
        if op == "ld" or op == "st":
            return inst.imm or 0
        if op != "la":
            return (inst.imm or 0) & _MASK
        addr = self.global_addr.get(inst.symbol)
        return addr if addr is not None else self.func_addr.get(inst.symbol)

    # -- execution ------------------------------------------------------------

    def run(self) -> RunResult:
        """Run ``main`` to completion; a failure raises."""
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
        start_checks = self.gc.stats.checks_performed
        start_colls = self.gc.stats.collections
        start_insts, start_cycles = self._st
        if self._profile is not None:
            self._profile.func_cell("main")[2] += 1
        tracer = obs_runtime.get_tracer()
        # Metrics are sampled at run() granularity only: per-instruction
        # observation would dominate the dispatch loop, and the disabled
        # path must stay one ``is None`` test.
        metrics = obs_runtime.get_metrics()
        t0_ns = obs_clock.now_ns() if metrics is not None else 0
        span = tracer.span("vm.run", model=self.model.name,
                           gc_interval=self.gc_interval)
        with span:
            try:
                self._call("main")
                code = _signed(regs[RV])
            except ExitProgram as ex:
                code = ex.code
            result = RunResult(code, self._st[0], self._st[1],
                               "".join(self.output),
                               self.gc.stats.collections - start_colls,
                               self.gc.stats.checks_performed - start_checks,
                               gc_stats=self.gc.stats)
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
        ops = self._ops.get(name)
        if ops is None:
            raise VMError(f"call to undefined function {name!r}")
        _exec_loop(self, ops)

    # The slow path of every load and store, plain or fused: accesses
    # that cross a page or touch an unmapped one.
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


#: What ``poison`` fills reclaimed objects with, so that a read through
#: a pointer the collector missed shows up in the output.
POISON_BYTE = 0xDD


def run_program(program: MProgram, model: MachineModel, *, stdin: str = "",
                gc_interval: int = 0, poison: bool = False,
                max_instructions: int = 500_000_000) -> RunResult:
    """Run ``program``'s ``main`` on a fresh collector and VM, the one
    place a VM lives: the VM is released on every path.  A failure of
    the program itself is the result's ``status``, never an exception."""
    collector = Collector()
    if poison:
        collector.heap.poison_byte = POISON_BYTE
    vm = VM(program, model, collector=collector, gc_interval=gc_interval,
            max_instructions=max_instructions)
    vm.stdin = stdin
    try:
        return vm.run()
    except GCCheckError as exc:
        return _failed(vm, "check", str(exc))
    except (VMError, MemoryFault) as exc:
        return _failed(vm, "fault", str(exc))
    except RecursionError:
        return _failed(vm, "fault", "call stack overflow")
    finally:
        vm.release()


def _failed(vm: VM, status: str, detail: str) -> RunResult:
    stats = vm.gc.stats
    return RunResult(None, 0, 0, "".join(vm.output), stats.collections,
                     stats.checks_performed, status=status, detail=detail,
                     gc_stats=stats)


# ---------------------------------------------------------------------------
# Builtin library ("Standard C libraries were not preprocessed").
# Each builtin: fn(vm, args[6]) -> (return value, extra cycles).
# ---------------------------------------------------------------------------


# Allocation sizes are size_t: unsigned, so a "negative" size is a
# request the heap cannot hold, and the allocator returns 0.
def _bi_gc_malloc(vm: VM, args):
    addr = vm.gc.malloc(args[0])
    return addr, 30


def _bi_gc_malloc_atomic(vm: VM, args):
    addr = vm.gc.malloc_atomic(args[0])
    return addr, 30


def _bi_calloc(vm: VM, args):
    addr = vm.gc.malloc(args[0] * args[1])  # no 32-bit wrap: too big
    return addr, 30


def _bi_realloc(vm: VM, args):
    return vm.gc.realloc(args[0], args[1]), 40


def _bi_free(vm: VM, args):
    return 0, 2  # the collector reclaims; free is a no-op


def _bi_gc_collect(vm: VM, args):
    vm.gc.collect()
    return 0, 200


_CHECK_FUNCS = _op_functions(CHECK_EXPRS, "_GC, a, b")


def _check_builtin(name: str):
    """Check ``name`` as a builtin, for ``callr``: its table expression
    over the argument registers, and its extra cycles."""
    check = _CHECK_FUNCS[name]

    def bi(vm: VM, args):
        return check(vm.gc, args[0], args[1]), check_extra(vm.model, name)
    return bi


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
    **{name: _check_builtin(name) for name in CHECK_EXPRS},
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
