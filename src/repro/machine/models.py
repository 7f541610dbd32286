"""Machine cost models for the three test machines of the paper:
a Weitek-processor SPARCstation 2 (SunOS 4.1.4), a SPARCstation 10
(Solaris 2.5), and a Pentium 90 (Linux 1.81).

The models differ in per-instruction cycle costs and, crucially for the
Pentium, in the number of allocatable registers — the paper observes
that if KEEP_LIVE overhead were dominated by register pressure, the
register-starved Pentium would have degraded far more than the SPARCs
(it did not), which our models let us reproduce.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class MachineModel:
    name: str
    num_regs: int  # allocatable general-purpose registers
    load_cycles: int = 1
    store_cycles: int = 1
    mul_cycles: int = 3
    div_cycles: int = 12
    branch_cycles: int = 1
    taken_branch_extra: int = 0
    call_cycles: int = 4
    alu_cycles: int = 1
    builtin_check_cycles: int = 18  # GC_same_obj page-table lookup cost

    def cycles_for(self, op: str, taken: bool = False) -> int:
        if op in ("ld",):
            return self.load_cycles
        if op in ("st",):
            return self.store_cycles
        if op == "mul":
            return self.mul_cycles
        if op in ("div", "mod", "divu", "modu"):
            return self.div_cycles
        if op in ("jmp", "bz", "bnz"):
            return self.branch_cycles + (self.taken_branch_extra if taken else 0)
        if op in ("call", "callr", "ret"):
            return self.call_cycles
        if op in ("label", "keepsafe", "nop"):
            return 0
        return self.alu_cycles


# SPARCstation 2: ~40 MHz single-issue SPARC v7; loads take an extra
# cycle, multiplies are slow (no integer multiply until v8).
SPARCSTATION_2 = MachineModel(
    name="SPARCstation 2", num_regs=16,
    load_cycles=2, store_cycles=3, mul_cycles=8, div_cycles=24,
    branch_cycles=1, taken_branch_extra=1, call_cycles=6,
    builtin_check_cycles=24,
)

# SPARCstation 10: SuperSPARC, faster memory pipeline and hardware
# integer multiply.
SPARC_10 = MachineModel(
    name="SPARCstation 10", num_regs=16,
    load_cycles=1, store_cycles=1, mul_cycles=4, div_cycles=18,
    branch_cycles=1, taken_branch_extra=0, call_cycles=4,
    builtin_check_cycles=18,
)

# Pentium 90: two-operand x86 with only a handful of allocatable
# registers; good memory system for its day.
PENTIUM_90 = MachineModel(
    name="Pentium 90", num_regs=6,
    load_cycles=1, store_cycles=1, mul_cycles=9, div_cycles=40,
    branch_cycles=1, taken_branch_extra=1, call_cycles=3,
    builtin_check_cycles=14,
)

MODELS = {
    "ss2": SPARCSTATION_2,
    "ss10": SPARC_10,
    "p90": PENTIUM_90,
}
