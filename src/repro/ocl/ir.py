"""SSA kernel IR.

This module defines the in-memory form shared by every consumer in the
repository: the functional interpreter (:mod:`repro.ocl.interp`), the
middle-end passes (:mod:`repro.passes`), the HLS flow (:mod:`repro.hls`)
and the Vortex code generator (:mod:`repro.vortex.codegen`). It plays the
role OpenCL C + LLVM IR play in the paper's Figure 2: one kernel artifact
consumed unmodified by both backends.

Shape
-----
A :class:`Kernel` is a list of :class:`Block`; each block holds a list of
:class:`Instr` ending in exactly one terminator (``BR``/``CBR``/``RET``).
Instructions are in SSA form: each value-producing instruction *is* the
value. ``PHI`` nodes appear only at block heads. Constants and kernel
parameters are non-instruction :class:`Value` objects.

The instruction set is a single class keyed by :class:`Opcode` rather than
one subclass per op; the interpreter and both backends dispatch on the
opcode, and a closed enum keeps exhaustiveness checkable in tests.
"""

from __future__ import annotations

import enum
import itertools
from typing import Any, Iterable, Iterator

from ..errors import IRError
from .types import (
    BOOL,
    FLOAT32,
    INT32,
    PointerType,
    ScalarType,
    Type,
    type_name,
)


class Opcode(enum.Enum):
    # Integer arithmetic / bitwise.
    ADD = "add"
    SUB = "sub"
    MUL = "mul"
    DIV = "div"  # signed division, truncating toward zero (C semantics)
    REM = "rem"  # signed remainder
    AND = "and"
    OR = "or"
    XOR = "xor"
    SHL = "shl"
    ASHR = "ashr"
    LSHR = "lshr"
    IMIN = "imin"
    IMAX = "imax"
    IABS = "iabs"

    # Float arithmetic and math builtins.
    FADD = "fadd"
    FSUB = "fsub"
    FMUL = "fmul"
    FDIV = "fdiv"
    FNEG = "fneg"
    SQRT = "sqrt"
    EXP = "exp"
    LOG = "log"
    SIN = "sin"
    COS = "cos"
    FABS = "fabs"
    FLOOR = "floor"
    POW = "pow"
    FMIN = "fmin"
    FMAX = "fmax"

    # Comparisons, selection, conversions.
    ICMP = "icmp"  # attrs: pred in {eq, ne, slt, sle, sgt, sge}
    FCMP = "fcmp"  # attrs: pred in {oeq, one, olt, ole, ogt, oge}
    SELECT = "select"
    SITOFP = "sitofp"
    FPTOSI = "fptosi"
    ZEXT = "zext"  # bool -> int

    # Memory. The element index is folded into the access (no separate GEP).
    LOAD = "load"  # (ptr, index)
    STORE = "store"  # (ptr, index, value)
    ATOMIC_ADD = "atomic_add"  # (ptr, index, value) -> old
    ATOMIC_MIN = "atomic_min"
    ATOMIC_MAX = "atomic_max"
    ATOMIC_XCHG = "atomic_xchg"
    ATOMIC_CAS = "atomic_cas"  # (ptr, index, expected, desired) -> old

    # Work-item functions. attrs: dim in {0, 1, 2}.
    GID = "get_global_id"
    LID = "get_local_id"
    GROUP_ID = "get_group_id"
    LOCAL_SIZE = "get_local_size"
    GLOBAL_SIZE = "get_global_size"
    NUM_GROUPS = "get_num_groups"

    # Synchronisation and I/O.
    BARRIER = "barrier"
    PRINTF = "printf"  # attrs: fmt (str); args are the varargs

    # SSA / control flow.
    PHI = "phi"
    BR = "br"
    CBR = "cbr"  # (cond); targets = [then, else]
    RET = "ret"


#: Opcodes that terminate a basic block.
TERMINATORS = frozenset({Opcode.BR, Opcode.CBR, Opcode.RET})

#: Opcodes that read memory.
MEMORY_READS = frozenset(
    {
        Opcode.LOAD,
        Opcode.ATOMIC_ADD,
        Opcode.ATOMIC_MIN,
        Opcode.ATOMIC_MAX,
        Opcode.ATOMIC_XCHG,
        Opcode.ATOMIC_CAS,
    }
)

#: Opcodes that write memory.
MEMORY_WRITES = frozenset(
    {
        Opcode.STORE,
        Opcode.ATOMIC_ADD,
        Opcode.ATOMIC_MIN,
        Opcode.ATOMIC_MAX,
        Opcode.ATOMIC_XCHG,
        Opcode.ATOMIC_CAS,
    }
)

#: All atomic read-modify-write opcodes.
ATOMIC_OPS = frozenset(
    {
        Opcode.ATOMIC_ADD,
        Opcode.ATOMIC_MIN,
        Opcode.ATOMIC_MAX,
        Opcode.ATOMIC_XCHG,
        Opcode.ATOMIC_CAS,
    }
)

#: Work-item query opcodes (uniform per the queried dimension granularity).
WORKITEM_OPS = frozenset(
    {
        Opcode.GID,
        Opcode.LID,
        Opcode.GROUP_ID,
        Opcode.LOCAL_SIZE,
        Opcode.GLOBAL_SIZE,
        Opcode.NUM_GROUPS,
    }
)

#: Opcodes with side effects that must never be removed by DCE.
SIDE_EFFECTS = MEMORY_WRITES | {Opcode.BARRIER, Opcode.PRINTF} | TERMINATORS

#: Transcendental / long-latency float ops (used by both cost models).
TRANSCENDENTAL = frozenset(
    {Opcode.SQRT, Opcode.EXP, Opcode.LOG, Opcode.SIN, Opcode.COS, Opcode.POW}
)

ICMP_PREDS = ("eq", "ne", "slt", "sle", "sgt", "sge")
FCMP_PREDS = ("oeq", "one", "olt", "ole", "ogt", "oge")


class Value:
    """Anything that can appear as an instruction operand."""

    __slots__ = ("ty", "name")

    def __init__(self, ty: Type, name: str):
        self.ty = ty
        self.name = name

    def short(self) -> str:
        return f"%{self.name}"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{self.short()}: {type_name(self.ty)}"


class Const(Value):
    """An immediate constant. ``value`` is a Python int/float/bool."""

    __slots__ = ("value",)

    def __init__(self, ty: ScalarType, value: Any):
        super().__init__(ty, f"c{value}")
        if ty is INT32:
            value = int(value)
        elif ty is FLOAT32:
            value = float(value)
        elif ty is BOOL:
            value = bool(value)
        self.value = value

    def short(self) -> str:
        return repr(self.value)


class Param(Value):
    """A kernel parameter (scalar or pointer)."""

    __slots__ = ("index",)

    def __init__(self, name: str, ty: Type, index: int):
        super().__init__(ty, name)
        self.index = index


class LocalArray(Value):
    """A statically sized on-chip array in LOCAL or PRIVATE space.

    LOCAL arrays are shared by a work-group (the HLS flow maps them to
    dedicated BRAM, Vortex maps them to its shared-memory region); PRIVATE
    arrays are per work item (HLS: registers/BRAM, Vortex: stack memory).
    """

    __slots__ = ("size", "space")

    def __init__(self, name: str, ty: PointerType, size: int):
        super().__init__(ty, name)
        if size <= 0:
            raise IRError(f"array {name!r} must have positive size, got {size}")
        self.size = int(size)
        self.space = ty.space


class Instr(Value):
    """One SSA instruction.

    ``args`` are value operands; ``attrs`` holds non-value immediates
    (comparison predicate, work-item dimension, printf format string).
    Terminators store successor blocks in ``targets``. Instructions whose
    ``ty`` is None produce no value (stores, barriers, terminators).
    """

    __slots__ = ("op", "args", "attrs", "targets", "block")

    def __init__(
        self,
        op: Opcode,
        ty: Type | None,
        args: list[Value],
        attrs: dict[str, Any] | None = None,
        targets: list["Block"] | None = None,
        name: str = "",
    ):
        super().__init__(ty, name)  # type: ignore[arg-type]
        self.op = op
        self.args = list(args)
        self.attrs = attrs or {}
        self.targets = targets or []
        self.block: "Block" | None = None

    @property
    def is_terminator(self) -> bool:
        return self.op in TERMINATORS

    @property
    def has_side_effects(self) -> bool:
        return self.op in SIDE_EFFECTS

    def format(self) -> str:
        """Render one line of textual IR."""
        parts = []
        if self.ty is not None:
            parts.append(f"%{self.name} = ")
        parts.append(self.op.value)
        extras = []
        for key, val in self.attrs.items():
            if key == "incomings":
                val = ", ".join(f"[{b.name}: {v.short()}]" for b, v in val)
            extras.append(f"{key}={val}")
        if extras:
            parts.append(f"<{', '.join(extras)}>")
        if self.args:
            parts.append(" " + ", ".join(a.short() for a in self.args))
        if self.targets:
            parts.append(" -> " + ", ".join(b.name for b in self.targets))
        return "".join(parts)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Instr {self.format()}>"


class Block:
    """A basic block: zero or more phis, then straight-line code, then a
    single terminator."""

    __slots__ = ("name", "instrs")

    def __init__(self, name: str):
        self.name = name
        self.instrs: list[Instr] = []

    @property
    def terminator(self) -> Instr | None:
        if self.instrs and self.instrs[-1].is_terminator:
            return self.instrs[-1]
        return None

    @property
    def successors(self) -> list["Block"]:
        term = self.terminator
        return list(term.targets) if term else []

    def phis(self) -> Iterator[Instr]:
        for ins in self.instrs:
            if ins.op is Opcode.PHI:
                yield ins
            else:
                break

    def non_phis(self) -> Iterator[Instr]:
        for ins in self.instrs:
            if ins.op is not Opcode.PHI:
                yield ins

    def append(self, instr: Instr) -> Instr:
        if self.terminator is not None:
            raise IRError(f"block {self.name} already terminated")
        instr.block = self
        self.instrs.append(instr)
        return instr

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Block {self.name} ({len(self.instrs)} instrs)>"


class Kernel:
    """A complete kernel function.

    Attributes
    ----------
    name: kernel name (the OpenCL ``__kernel`` function name).
    params: ordered parameters.
    blocks: basic blocks in layout order; ``blocks[0]`` is the entry.
    arrays: LOCAL/PRIVATE arrays declared by the kernel.
    directives: per-access HLS directives, e.g. the paper's
        ``__pipelined_load`` (Listing 3) recorded as instruction -> kind.
    """

    def __init__(self, name: str):
        self.name = name
        self.params: list[Param] = []
        self.blocks: list[Block] = []
        self.arrays: list[LocalArray] = []
        self.directives: dict[Instr, str] = {}
        self._name_counter = itertools.count()

    # -- construction helpers used by the builder -------------------------

    def add_param(self, name: str, ty: Type) -> Param:
        param = Param(name, ty, len(self.params))
        self.params.append(param)
        return param

    def add_block(self, name: str = "") -> Block:
        if not name:
            name = f"bb{len(self.blocks)}"
        block = Block(name)
        self.blocks.append(block)
        return block

    def fresh_name(self, prefix: str = "v") -> str:
        return f"{prefix}{next(self._name_counter)}"

    # -- queries -----------------------------------------------------------

    @property
    def entry(self) -> Block:
        if not self.blocks:
            raise IRError(f"kernel {self.name} has no blocks")
        return self.blocks[0]

    def instructions(self) -> Iterator[Instr]:
        for block in self.blocks:
            yield from block.instrs

    def uses_atomics(self) -> bool:
        return any(ins.op in ATOMIC_OPS for ins in self.instructions())

    def uses_barrier(self) -> bool:
        return any(ins.op is Opcode.BARRIER for ins in self.instructions())

    def format(self) -> str:
        """Textual IR dump (stable, used in golden tests)."""
        lines = [
            "kernel %s(%s) {"
            % (
                self.name,
                ", ".join(f"{p.name}: {type_name(p.ty)}" for p in self.params),
            )
        ]
        for arr in self.arrays:
            lines.append(
                f"  {arr.space.value} {arr.ty.element.name} {arr.name}[{arr.size}]"
            )
        for block in self.blocks:
            lines.append(f"{block.name}:")
            for ins in block.instrs:
                line = f"  {ins.format()}"
                directive = self.directives.get(ins)
                if directive:
                    line += f"  ; __{directive}"
                lines.append(line)
        lines.append("}")
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        nin = sum(len(b.instrs) for b in self.blocks)
        return f"<Kernel {self.name}: {len(self.blocks)} blocks, {nin} instrs>"


def predecessors(kernel: Kernel) -> dict[Block, list[Block]]:
    """Map each block to its CFG predecessors, in deterministic order."""
    preds: dict[Block, list[Block]] = {b: [] for b in kernel.blocks}
    for block in kernel.blocks:
        for succ in block.successors:
            preds[succ].append(block)
    return preds


def reachable_blocks(kernel: Kernel) -> list[Block]:
    """Blocks reachable from the entry, in reverse-postorder."""
    seen: set[int] = set()
    order: list[Block] = []

    def visit(block: Block) -> None:
        if id(block) in seen:
            return
        seen.add(id(block))
        for succ in block.successors:
            visit(succ)
        order.append(block)

    visit(kernel.entry)
    order.reverse()
    return order


def iter_operands(instr: Instr) -> Iterable[Value]:
    """All value operands of an instruction, including phi incomings."""
    yield from instr.args
    if instr.op is Opcode.PHI:
        for _, val in instr.attrs["incomings"]:
            yield val


def clone_kernel(kernel: Kernel) -> Kernel:
    """Deep-copy a kernel (blocks, instructions, arrays, directives).

    Parameters are shared (they are immutable descriptors); instructions,
    blocks and arrays are fresh objects, so passes may mutate the clone
    without touching the original. Used by backends that run transforms
    (e.g. ``aoc(..., auto_cse=True)``).
    """
    new = Kernel(kernel.name)
    new.params = list(kernel.params)
    array_map: dict[int, LocalArray] = {}
    for arr in kernel.arrays:
        copy = LocalArray(arr.name, arr.ty, arr.size)
        array_map[id(arr)] = copy
        new.arrays.append(copy)

    block_map: dict[int, Block] = {}
    for block in kernel.blocks:
        block_map[id(block)] = new.add_block(block.name)

    value_map: dict[int, Value] = dict(array_map)

    def map_value(v: Value) -> Value:
        return value_map.get(id(v), v)

    # First pass: create instruction shells so forward refs (phis) resolve.
    for block in kernel.blocks:
        target = block_map[id(block)]
        for ins in block.instrs:
            copy = Instr(ins.op, ins.ty, [], dict(ins.attrs), [], ins.name)
            copy.block = target
            target.instrs.append(copy)
            value_map[id(ins)] = copy

    # Second pass: wire operands, targets and phi incomings.
    for block in kernel.blocks:
        target = block_map[id(block)]
        for ins, copy in zip(block.instrs, target.instrs):
            copy.args = [map_value(a) for a in ins.args]
            copy.targets = [block_map[id(t)] for t in ins.targets]
            if ins.op is Opcode.PHI:
                copy.attrs["incomings"] = [
                    (block_map[id(b)], map_value(v))
                    for b, v in ins.attrs["incomings"]
                ]

    for ins, kind in kernel.directives.items():
        mapped = value_map.get(id(ins))
        if isinstance(mapped, Instr):
            new.directives[mapped] = kind
    new._name_counter = itertools.count(
        sum(len(b.instrs) for b in kernel.blocks) + 1000
    )
    return new
