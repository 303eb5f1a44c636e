"""Assembler / disassembler for the Vortex ISA.

The code generator emits symbolic :class:`~repro.vortex.isa.Instruction`
streams with label references; :class:`Assembler` resolves labels to PC-
relative immediates and packs the stream into a binary image (one uint32
word per instruction, little-endian), which the runtime loads into
simulated device memory. ``disassemble`` renders a listing for debugging
and golden tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import CompilationError
from .isa import Fmt, Instruction, encode, format_instruction


@dataclass
class Program:
    """An assembled code object."""

    instructions: list[Instruction]
    code_base: int
    labels: dict[str, int]  # label -> absolute address
    words: np.ndarray  # uint32, len == len(instructions)

    @property
    def size_bytes(self) -> int:
        return 4 * len(self.instructions)

    def index_of_pc(self, pc: int) -> int:
        offset = pc - self.code_base
        if offset < 0 or offset % 4 or offset // 4 >= len(self.instructions):
            raise CompilationError(f"PC {pc:#x} outside program")
        return offset // 4


class Assembler:
    """Collects labels and instructions, then fixes up and encodes."""

    def __init__(self) -> None:
        self._items: list[str | Instruction] = []
        self._label_set: set[str] = set()

    def label(self, name: str) -> str:
        if name in self._label_set:
            raise CompilationError(f"duplicate label {name!r}")
        self._label_set.add(name)
        self._items.append(name)
        return name

    def fresh_label(self, prefix: str) -> str:
        name = f"{prefix}_{len(self._items)}"
        while name in self._label_set:
            name += "_"
        return name

    def emit(
        self,
        mnemonic: str,
        rd: int = 0,
        rs1: int = 0,
        rs2: int = 0,
        imm: int = 0,
        label: str | None = None,
    ) -> Instruction:
        ins = Instruction(mnemonic, rd=rd, rs1=rs1, rs2=rs2, imm=imm, label=label)
        self._items.append(ins)
        return ins

    # Convenience emitters used heavily by the code generator ----------

    def li(self, rd: int, value: int) -> None:
        """Load a 32-bit immediate (lui+addi as needed)."""
        value &= 0xFFFFFFFF
        if value >= 0x80000000:
            value -= 0x100000000
        if -2048 <= value < 2048:
            self.emit("addi", rd=rd, rs1=0, imm=value)
            return
        upper = (value + 0x800) >> 12
        lower = value - (upper << 12)
        self.emit("lui", rd=rd, imm=upper & 0xFFFFF)
        if lower:
            self.emit("addi", rd=rd, rs1=rd, imm=lower)

    def mv(self, rd: int, rs: int) -> None:
        self.emit("addi", rd=rd, rs1=rs, imm=0)

    def fmv(self, rd: int, rs: int) -> None:
        self.emit("fsgnj.s", rd=rd, rs1=rs, rs2=rs)

    def j(self, label: str) -> None:
        self.emit("jal", rd=0, label=label)

    def assemble(self, code_base: int = 0) -> Program:
        """Resolve labels, encode, and return the Program."""
        # First pass: addresses.
        labels: dict[str, int] = {}
        pc = code_base
        instructions: list[Instruction] = []
        for item in self._items:
            if isinstance(item, str):
                labels[item] = pc
            else:
                instructions.append(item)
                pc += 4
        # Second pass: fix up label immediates (PC-relative).
        pc = code_base
        for ins in instructions:
            if ins.label is not None:
                if ins.label not in labels:
                    raise CompilationError(f"undefined label {ins.label!r}")
                ins.imm = labels[ins.label] - pc
                limit = 1 << 20 if ins.spec.fmt is Fmt.J else 1 << 12
                if not -limit <= ins.imm < limit:
                    raise CompilationError(
                        f"branch to {ins.label} out of range ({ins.imm})"
                    )
            pc += 4
        words = np.array([encode(i) for i in instructions], dtype=np.uint32)
        return Program(
            instructions=instructions,
            code_base=code_base,
            labels=labels,
            words=words,
        )


def disassemble(program: Program) -> str:
    """Text listing with addresses and labels."""
    by_addr: dict[int, list[str]] = {}
    for name, addr in program.labels.items():
        by_addr.setdefault(addr, []).append(name)
    lines = []
    pc = program.code_base
    for ins in program.instructions:
        for name in sorted(by_addr.get(pc, [])):
            lines.append(f"{name}:")
        lines.append(f"  {pc:#010x}:  {format_instruction(ins)}")
        pc += 4
    return "\n".join(lines)
