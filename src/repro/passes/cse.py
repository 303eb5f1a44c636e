"""Common subexpression elimination.

This is the automatic-compiler analog of the paper's **O1 "variable
reuse"** source transformation (Fig. 6, Listing 2): values such as
``delta[index_x] * ETA`` that the original backprop kernel recomputes are
computed once and reused, which shrinks the number of inferred load units
and with them the BRAM count (Table II).

Two scopes:

* **pure ops** (arithmetic, comparisons, conversions, work-item queries)
  are merged across blocks, scoped by the dominator tree so every merged
  use is dominated by the surviving definition;
* **loads** are merged only within a basic block, tracked by a memory
  version per *pointer root* (kernel parameter or local array). A store or
  atomic to a root invalidates that root; a barrier invalidates every
  LOCAL and GLOBAL root. Distinct pointer roots are assumed not to alias,
  matching the Intel SDK's kernel-argument aliasing assumptions.
"""

from __future__ import annotations

from typing import Any

from ..ocl.ir import (
    ATOMIC_OPS,
    Block,
    Const,
    Instr,
    Kernel,
    Opcode,
    Value,
    WORKITEM_OPS,
)
from ..ocl.types import AddressSpace
from .cfg import dominators
from . import dce

#: Pure value ops safe to merge across blocks.
_PURE = frozenset(
    {
        Opcode.ADD, Opcode.SUB, Opcode.MUL, Opcode.DIV, Opcode.REM,
        Opcode.AND, Opcode.OR, Opcode.XOR, Opcode.SHL, Opcode.ASHR,
        Opcode.LSHR, Opcode.IMIN, Opcode.IMAX, Opcode.IABS,
        Opcode.FADD, Opcode.FSUB, Opcode.FMUL, Opcode.FDIV, Opcode.FNEG,
        Opcode.SQRT, Opcode.EXP, Opcode.LOG, Opcode.SIN, Opcode.COS,
        Opcode.FABS, Opcode.FLOOR, Opcode.POW, Opcode.FMIN, Opcode.FMAX,
        Opcode.ICMP, Opcode.FCMP, Opcode.SELECT, Opcode.SITOFP,
        Opcode.FPTOSI, Opcode.ZEXT,
    }
    | WORKITEM_OPS
)

#: Commutative ops whose operand order is canonicalised in the key.
_COMMUTATIVE = frozenset(
    {
        Opcode.ADD, Opcode.MUL, Opcode.AND, Opcode.OR, Opcode.XOR,
        Opcode.FADD, Opcode.FMUL, Opcode.IMIN, Opcode.IMAX, Opcode.FMIN,
        Opcode.FMAX,
    }
)


class _Replacements:
    def __init__(self) -> None:
        self.map: dict[int, Value] = {}

    def canon(self, v: Value) -> Value:
        while id(v) in self.map:
            v = self.map[id(v)]
        return v

    def add(self, old: Value, new: Value) -> None:
        self.map[id(old)] = self.canon(new)

    def __len__(self) -> int:
        return len(self.map)


def _operand_key(v: Value, repl: _Replacements) -> Any:
    v = repl.canon(v)
    if isinstance(v, Const):
        return ("const", v.ty.name, v.value)
    return id(v)


def _pure_key(ins: Instr, repl: _Replacements) -> tuple:
    ops = [_operand_key(a, repl) for a in ins.args]
    if ins.op in _COMMUTATIVE:
        ops.sort(key=repr)
    attrs = tuple(sorted((k, v) for k, v in ins.attrs.items()))
    return (ins.op, tuple(ops), attrs)


def run(kernel: Kernel, merge_loads: bool = True) -> int:
    """CSE in place, then DCE of the merged-away instructions. Returns
    the number of instructions merged away.

    ``merge_loads=False`` restricts the pass to pure ops (used by the
    ablation benchmarks to separate the two effects)."""
    dom = dominators(kernel)
    repl = _Replacements()

    def visit(block: Block, table: dict[tuple, Instr]) -> None:
        versions: dict[int, int] = {}
        local_table: dict[tuple, Instr] = {}

        def bump_all(spaces: tuple[AddressSpace, ...]) -> None:
            # Invalidate merged loads in the given address spaces: bump
            # known roots' versions and drop table entries for roots that
            # were never stored to (still keyed at version 0).
            for root_id in list(versions):
                versions[root_id] += 1
            for key in list(local_table):
                if key[0] == "load" and key[4] in spaces:
                    del local_table[key]

        for ins in list(block.instrs):
            if ins.op in _PURE and ins.ty is not None:
                key = _pure_key(ins, repl)
                prior = table.get(key)
                if prior is not None:
                    repl.add(ins, prior)
                else:
                    table[key] = ins
            elif ins.op is Opcode.LOAD and merge_loads:
                root = repl.canon(ins.args[0])
                space = root.ty.space  # type: ignore[union-attr]
                key = (
                    "load",
                    id(root),
                    _operand_key(ins.args[1], repl),
                    versions.get(id(root), 0),
                    space,
                )
                prior = local_table.get(key)
                if prior is not None and kernel.directives.get(prior) == \
                        kernel.directives.get(ins):
                    repl.add(ins, prior)
                else:
                    local_table[key] = ins
            elif ins.op is Opcode.STORE or ins.op in ATOMIC_OPS:
                root = repl.canon(ins.args[0])
                versions[id(root)] = versions.get(id(root), 0) + 1
            elif ins.op is Opcode.BARRIER:
                bump_all((AddressSpace.LOCAL, AddressSpace.GLOBAL))

        for child in dom.children(block):
            visit(child, dict(table))

    visit(kernel.entry, {})

    if repl.map:
        for ins in kernel.instructions():
            ins.args = [repl.canon(a) for a in ins.args]
            if ins.op is Opcode.PHI:
                ins.attrs["incomings"] = [
                    (b, repl.canon(v)) for b, v in ins.attrs["incomings"]
                ]
    merged = len(repl.map)
    if merged:
        dce.run(kernel)
    return merged
