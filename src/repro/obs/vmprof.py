"""VM hot-spot profile: cycle/instruction attribution for the
threaded-code interpreter.

The VM (``machine/vm.py``) compiles every machine instruction into a
closure once at link time.  When a :class:`VMProfile` is attached, each
closure is wrapped with an accounting shim that attributes the cycle
delta of that instruction to its function and its basic block (the
stretch of instructions following a label), and counts calls and
pointer-check builtins per call site.  The shims only *read* the VM's
cycle counter — simulated counts are bit-identical with and without a
profile attached (a test asserts this).

Attribution rules (they make the totals exact):

* a non-call instruction attributes its own cycle cost;
* a call to a *builtin* attributes the call cost plus the builtin's
  extra cycles (builtins are leaves — that is their whole cost);
* a call to a *compiled* function attributes only the static call cost
  to the caller and bumps the callee's call count; the callee's
  instructions attribute themselves.

Hence ``sum(function cycles) == RunResult.cycles`` and
``sum(function instructions) == RunResult.instructions``.

The accumulator cells are plain ``[cycles, instructions, calls]``
lists so the shims stay allocation-free on the hot path.
"""

from __future__ import annotations

from typing import Any

# Builtins that are pointer-arithmetic checks (the paper's GC_same_obj
# family): profiled per call site so check overhead in `-checked`
# builds can be attributed to the code that incurs it.
CHECK_BUILTINS = frozenset((
    "GC_same_obj", "GC_pre_incr", "GC_post_incr", "GC_check_base", "GC_base",
))

class VMProfile:
    """Accumulates per-function / per-block / per-check-site costs."""

    def __init__(self, tag: str = ""):
        self.tag = tag
        # name -> [cycles, instructions, calls]
        self.funcs: dict[str, list[int]] = {}
        # (func, block-label) -> [cycles, instructions]
        self.blocks: dict[tuple[str, str], list[int]] = {}
        # (func, block-label, pc, builtin) -> [count]
        self.checks: dict[tuple[str, str, int, str], list[int]] = {}
        self.runs = 0  # completed VM.run() invocations

    # -- cell accessors (used by the VM at closure-compile time) -----------

    def func_cell(self, name: str) -> list[int]:
        cell = self.funcs.get(name)
        if cell is None:
            cell = self.funcs[name] = [0, 0, 0]
        return cell

    def block_cell(self, func: str, block: str) -> list[int]:
        key = (func, block)
        cell = self.blocks.get(key)
        if cell is None:
            cell = self.blocks[key] = [0, 0]
        return cell

    def check_cell(self, func: str, block: str, pc: int,
                   builtin: str) -> list[int]:
        key = (func, block, pc, builtin)
        cell = self.checks.get(key)
        if cell is None:
            cell = self.checks[key] = [0]
        return cell

    # -- aggregation -------------------------------------------------------

    @property
    def total_cycles(self) -> int:
        return sum(c[0] for c in self.funcs.values())

    @property
    def total_instructions(self) -> int:
        return sum(c[1] for c in self.funcs.values())

    def merge(self, other: "VMProfile") -> None:
        for name, cell in other.funcs.items():
            mine = self.func_cell(name)
            for i, v in enumerate(cell):
                mine[i] += v
        for key, cell in other.blocks.items():
            mine = self.block_cell(*key)
            for i, v in enumerate(cell):
                mine[i] += v
        for key, cell in other.checks.items():
            self.check_cell(*key)[0] += cell[0]
        self.runs += other.runs

    # -- reporting ---------------------------------------------------------

    def hot_functions(self, top: int = 10) -> list[tuple[str, int, int, int]]:
        """[(name, cycles, instructions, calls)] sorted by cycles."""
        rows = [(name, c[0], c[1], c[2]) for name, c in self.funcs.items()]
        rows.sort(key=lambda r: (-r[1], r[0]))
        return rows[:top]

    def hot_blocks(self, top: int = 10) -> list[tuple[str, str, int, int]]:
        """[(func, block, cycles, instructions)] sorted by cycles."""
        rows = [(f, b, c[0], c[1]) for (f, b), c in self.blocks.items()]
        rows.sort(key=lambda r: (-r[2], r[0], r[1]))
        return rows[:top]

    def check_sites(self, top: int = 10) -> list[tuple[str, str, int, str, int]]:
        """[(func, block, pc, builtin, count)] sorted by count."""
        rows = [(f, b, pc, bi, c[0])
                for (f, b, pc, bi), c in self.checks.items()]
        rows.sort(key=lambda r: (-r[4], r[0], r[2]))
        return rows[:top]

    def render_report(self, top: int = 10) -> str:
        total_cyc = self.total_cycles or 1
        lines = [f"VM hot-spot profile"
                 + (f" [{self.tag}]" if self.tag else "")
                 + f": {self.total_cycles} cycles, "
                 f"{self.total_instructions} instructions, {self.runs} run(s)"]
        lines.append("")
        lines.append(f"  top functions{'':<17s} {'cycles':>12s} {'%':>6s} "
                     f"{'insts':>12s} {'calls':>9s}")
        for name, cyc, insts, calls in self.hot_functions(top):
            lines.append(f"  {name:<30.30s} {cyc:>12d} "
                         f"{100.0 * cyc / total_cyc:>5.1f}% "
                         f"{insts:>12d} {calls:>9d}")
        lines.append("")
        lines.append(f"  top basic blocks{'':<24s} {'cycles':>12s} {'%':>6s} "
                     f"{'insts':>12s}")
        for func, block, cyc, insts in self.hot_blocks(top):
            where = f"{func}:{block}"
            lines.append(f"  {where:<40.40s} {cyc:>12d} "
                         f"{100.0 * cyc / total_cyc:>5.1f}% {insts:>12d}")
        sites = self.check_sites(top)
        if sites:
            lines.append("")
            lines.append(f"  pointer-check call sites{'':<21s} {'builtin':>14s} "
                         f"{'count':>10s}")
            for func, block, pc, builtin, count in sites:
                where = f"{func}:{block}+{pc}"
                lines.append(f"  {where:<45.45s} {builtin:>14s} {count:>10d}")
        return "\n".join(lines)

    def to_dict(self, top: int = 0) -> dict[str, Any]:
        """JSON-ready summary; ``top=0`` means everything."""
        n = top or None
        return {
            "tag": self.tag,
            "runs": self.runs,
            "total_cycles": self.total_cycles,
            "total_instructions": self.total_instructions,
            "functions": [
                {"name": f, "cycles": c, "instructions": i, "calls": k}
                for f, c, i, k in self.hot_functions(top or len(self.funcs))
            ][:n],
            "blocks": [
                {"function": f, "block": b, "cycles": c, "instructions": i}
                for f, b, c, i in self.hot_blocks(top or len(self.blocks))
            ][:n],
            "check_sites": [
                {"function": f, "block": b, "pc": pc, "builtin": bi,
                 "count": c}
                for f, b, pc, bi, c in self.check_sites(top or len(self.checks))
            ][:n],
        }
