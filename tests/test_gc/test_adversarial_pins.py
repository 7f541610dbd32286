"""Adversarial collections (a collection before every instruction, with
reclaimed objects poisoned) on the regression corpus and two generated
programs: counts, output and collector totals are pinned, in both
interior-pointer modes.  The collector's fast paths (candidate words
outside the heap's span dropped before lookup, no-op sweeps skipped)
must not move any of them."""

from pathlib import Path

import pytest

from repro.fuzz.gen import generate_program
from repro.gc import Collector
from repro.machine.driver import CompileConfig, compile_source
from repro.machine.models import SPARC_10
from repro.machine.vm import VM

CORPUS = Path(__file__).parents[1] / "test_fuzz" / "corpus"

# (program, config) -> (cycles, instructions, collections, exit code,
# output, marked_last_gc, objects_reclaimed, bytes_reclaimed); "genN"
# is repro.fuzz.gen.generate_program(N).
PINNED = {
    ("addrfold_alias", "O0"): (113, 35, 35, 60, "7484\n", 0, 1, 24),
    ("addrfold_alias", "O_safe"): (96, 29, 29, 60, "7484\n", 0, 1, 24),
    ("addrfold_alias", "g"): (128, 50, 50, 60, "7484\n", 0, 1, 24),
    ("addrfold_alias", "g_checked"): (186, 66, 66, 60, "7484\n", 0, 1, 24),
    ("disguised_index", "O0"): (795, 562, 562, 90, "90\n", 0, 1, 136),
    ("disguised_index", "O_safe"): (527, 433, 433, 90, "90\n", 0, 1, 136),
    ("disguised_index", "g"): (1173, 940, 940, 90, "90\n", 1, 0, 0),
    ("disguised_index", "g_checked"): (2127, 1180, 1180, 90, "90\n",
                                       0, 1, 136),
    ("helper_slice", "O0"): (1335, 942, 942, 111, "10351\n", 0, 2, 176),
    ("helper_slice", "O_safe"): (975, 813, 813, 111, "10351\n", 0, 2, 176),
    ("helper_slice", "g"): (2095, 1702, 1702, 111, "10351\n", 0, 2, 176),
    ("helper_slice", "g_checked"): (3694, 2104, 2104, 111, "10351\n",
                                    0, 2, 176),
    ("interior_churn", "O0"): (827, 577, 577, 218, "218\n", 1, 2, 176),
    ("interior_churn", "O_safe"): (599, 474, 474, 218, "218\n", 1, 2, 176),
    ("interior_churn", "g"): (1231, 981, 981, 218, "218\n", 1, 2, 176),
    ("interior_churn", "g_checked"): (2329, 1192, 1192, 218, "218\n",
                                      0, 3, 280),
    ("struct_walk", "O0"): (691, 402, 402, 107, "107\n", 0, 5, 184),
    ("struct_walk", "O_safe"): (553, 406, 406, 107, "107\n", 2, 3, 136),
    ("struct_walk", "g"): (1030, 741, 741, 107, "107\n", 1, 4, 144),
    ("struct_walk", "g_checked"): (2434, 1116, 1116, 107, "107\n",
                                   0, 5, 184),
    ("gen2", "O0"): (3149, 2207, 2207, 168, "17560 16\n", 0, 9, 400),
    ("gen2", "O_safe"): (2207, 1825, 1825, 168, "17560 16\n", 1, 8, 344),
    ("gen2", "g"): (4781, 3839, 3839, 168, "17560 16\n", 0, 9, 400),
    ("gen2", "g_checked"): (8754, 4872, 4872, 168, "17560 16\n", 0, 9, 400),
    ("gen9", "O0"): (2670, 1934, 1934, 213, "1191 46\n", 1, 4, 256),
    ("gen9", "O_safe"): (1542, 1528, 1528, 213, "1191 46\n", 2, 3, 72),
    ("gen9", "g"): (3989, 3253, 3253, 213, "1191 46\n", 0, 5, 280),
    ("gen9", "g_checked"): (7266, 4082, 4082, 213, "1191 46\n", 0, 5, 280),
}


def _source(program):
    if program.startswith("gen"):
        return generate_program(int(program[3:]))
    return (CORPUS / f"{program}.c").read_text()


def test_pins_cover_the_corpus():
    assert {p for p, _ in PINNED} >= {p.stem for p in CORPUS.glob("*.c")}


@pytest.mark.parametrize("roots_only", [False, True],
                         ids=["interior-anywhere", "interior-from-roots"])
@pytest.mark.parametrize("program,config", sorted(PINNED))
def test_adversarial_counts_are_pinned(program, config, roots_only):
    compiled = compile_source(_source(program),
                              CompileConfig.named(config, SPARC_10))
    gc = Collector(interior_from_roots_only=roots_only)
    gc.heap.poison_byte = 0xDD
    r = VM(compiled.asm, SPARC_10, collector=gc, gc_interval=1,
           max_instructions=5_000_000).run()
    s = gc.stats
    assert (r.cycles, r.instructions, r.collections, r.exit_code, r.output,
            s.marked_last_gc, s.objects_reclaimed,
            s.bytes_reclaimed) == PINNED[program, config]
