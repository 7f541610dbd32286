"""Differential fuzzing subsystem.

The paper's correctness claim is cross-configurational: every build of a
program must agree on observable behavior, and the GC-safe builds must
*keep* agreeing when collections fire at the worst possible moments.
This package turns that claim into a push-button oracle:

* :mod:`repro.fuzz.gen` — a seeded, structured C program generator
  (structs, nested arrays, helper calls, pointer casts, interior
  pointers, alloc churn, disguise-prone address arithmetic; every
  program is defined-behavior by construction and prints a checksum).
* :mod:`repro.fuzz.oracle` — compiles each program under all five
  configs (``O0``, ``O``, ``O_safe``, ``g``, ``g_checked``) across the
  machine models, runs them with an adversarial collector
  (``gc_interval=1`` + heap poisoning) and cross-checks exit codes,
  output, and checksums.
* :mod:`repro.fuzz.reduce` — a delta-debugging reducer that shrinks any
  mismatching program to a minimal reproducer.
* :mod:`repro.fuzz.campaign` — campaign orchestration; also the engine
  behind ``python -m repro.fuzz``.
* :mod:`repro.fuzz.brokenpass` — a test-only hook that re-breaks the
  addrfold in-place aliasing fix so the oracle/reducer pipeline can be
  validated against a known miscompile.
"""

from .campaign import CampaignResult, Finding, run_campaign
from .gen import GenOptions, generate_program
from .oracle import (ADVERSARIAL_CONFIGS, ALL_CONFIGS, Mismatch,
                     OracleReport, check_program, compile_and_run,
                     mismatch_predicate)
from .reduce import ReduceStats, reduce_source

__all__ = [
    "ADVERSARIAL_CONFIGS", "ALL_CONFIGS", "CampaignResult", "Finding",
    "GenOptions", "Mismatch", "OracleReport", "ReduceStats",
    "check_program", "compile_and_run", "generate_program",
    "mismatch_predicate", "reduce_source", "run_campaign",
]
