"""Formatting of instructions and programs back to the paper's dialect.

``parse_program(format_program(p))`` round-trips for all programs this
library produces, which the test suite checks with property tests.
"""

from __future__ import annotations

from repro.x86.instruction import Instruction, is_unused
from repro.x86.program import Program


def format_instruction(instr: Instruction) -> str:
    return str(instr)


def format_program(prog: Program, *, show_unused: bool = False) -> str:
    """Render a program as text, label definitions in place.

    Args:
        prog: the program to format.
        show_unused: include UNUSED padding slots as comments.
    """
    by_index: dict[int, list[str]] = {}
    for name, index in prog.labels.items():
        by_index.setdefault(index, []).append(name)
    lines: list[str] = []
    for i, instr in enumerate(prog.code):
        for name in sorted(by_index.get(i, [])):
            lines.append(name)
        if is_unused(instr):
            if show_unused:
                lines.append("# <unused>")
            continue
        lines.append(f"  {format_instruction(instr)}")
    for name in sorted(by_index.get(len(prog.code), [])):
        lines.append(name)
    return "\n".join(lines)
