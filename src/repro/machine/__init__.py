"""Compiler + machine substrate: IR, optimizer, register allocator,
RISC-like code generator, cost models, and the executing VM."""

from .asm import MFunc, MInst, MProgram
from .codegen import generate_program
from .driver import CompileConfig, CompiledProgram, compile_source
from .ir import Inst, IRFunc, IRProgram, Vreg
from .lower import LowerError, lower_unit
from .models import MODELS, MachineModel, PENTIUM_90, SPARC_10, SPARCSTATION_2
from .regalloc import allocate
from .vm import VM, RunResult, VMError, run_program

__all__ = [
    "MFunc", "MInst", "MProgram", "generate_program", "CompileConfig",
    "CompiledProgram", "compile_source", "Inst", "IRFunc",
    "IRProgram", "Vreg", "LowerError", "lower_unit", "MODELS",
    "MachineModel", "PENTIUM_90", "SPARC_10", "SPARCSTATION_2",
    "allocate", "VM", "RunResult", "VMError", "run_program",
]
