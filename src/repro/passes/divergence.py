"""Thread-divergence analysis.

Classifies every SSA value as *uniform* (same for all threads of a warp)
or *divergent*, and every conditional branch as uniform/divergent. The
Vortex code generator uses this to decide which branches need the
SPLIT/JOIN divergence instructions and which loops need PRED, exactly the
ISA mechanism the paper describes in §II-D; the HLS flow uses it to size
the work-item dispatch logic.

The analysis is a forward fixpoint:

* roots: ``get_global_id`` / ``get_local_id`` are divergent; group ids and
  size queries are uniform (the runtime never splits a work-group across a
  warp boundary mid-group — warps are filled group-first);
* data dependence: any op with a divergent operand is divergent;
* memory: a load is divergent if its index is divergent or its pointer
  root is written anywhere in the kernel (another thread may have written
  it — e.g. staging tiles in local memory); atomics are always divergent;
* control dependence: a phi is divergent if any incoming is divergent or
  if it merges paths of a divergent branch (region bounded by the branch
  block's immediate postdominator).

Over-approximation is safe (a uniform branch compiled as divergent is
merely slower); under-approximation would miscompile.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..ocl.ir import (
    ATOMIC_OPS,
    Block,
    Instr,
    Kernel,
    Opcode,
    Value,
)
from .cfg import postdominators


@dataclass
class DivergenceInfo:
    divergent_values: set[int] = field(default_factory=set)
    divergent_branches: set[int] = field(default_factory=set)  # CBR instr ids
    #: Blocks in some divergent branch's influence region, *including*
    #: the reconvergence (ipdom) block — phis there merge divergent paths.
    divergent_blocks: set[int] = field(default_factory=set)
    #: Same, but *excluding* reconvergence blocks: code here runs with a
    #: partial thread mask. Barriers in these blocks are compile errors
    #: for the Vortex backend (sync divergence).
    divergent_interior_blocks: set[int] = field(default_factory=set)

    def is_divergent(self, v: Value) -> bool:
        return id(v) in self.divergent_values

    def branch_is_divergent(self, cbr: Instr) -> bool:
        return id(cbr) in self.divergent_branches


def _written_roots(kernel: Kernel) -> set[int]:
    roots: set[int] = set()
    for ins in kernel.instructions():
        if ins.op is Opcode.STORE or ins.op in ATOMIC_OPS:
            roots.add(id(ins.args[0]))
    return roots


def _influence_region(branch_block: Block, ipdom: Block | None) -> set[int]:
    """Blocks reachable from the branch's successors without passing
    through the immediate postdominator, plus the postdominator itself
    (whose phis merge the divergent paths)."""
    region: set[int] = set()
    stack = list(branch_block.successors)
    while stack:
        block = stack.pop()
        if ipdom is not None and block is ipdom:
            continue
        if id(block) in region:
            continue
        region.add(id(block))
        stack.extend(block.successors)
    if ipdom is not None:
        region.add(id(ipdom))
    return region


def analyze(kernel: Kernel) -> DivergenceInfo:
    info = DivergenceInfo()
    written = _written_roots(kernel)
    pdoms = postdominators(kernel)
    div = info.divergent_values

    changed = True
    while changed:
        changed = False

        # 1. Value-level propagation.
        for ins in kernel.instructions():
            if id(ins) in div or ins.ty is None:
                if ins.op is not Opcode.CBR:
                    continue
            new_div = False
            op = ins.op
            if op in (Opcode.GID, Opcode.LID):
                new_div = True
            elif op in ATOMIC_OPS:
                new_div = True
            elif op is Opcode.LOAD:
                root = ins.args[0]
                if id(root) in written or id(ins.args[1]) in div:
                    new_div = True
            elif op is Opcode.PHI:
                if any(id(v) in div for _, v in ins.attrs["incomings"]):
                    new_div = True
                elif ins.block is not None and id(ins.block) in info.divergent_blocks:
                    new_div = True
            elif op is Opcode.CBR:
                if id(ins.args[0]) in div and id(ins) not in info.divergent_branches:
                    info.divergent_branches.add(id(ins))
                    changed = True
                continue
            else:
                if any(id(a) in div for a in ins.args):
                    new_div = True
            if new_div and id(ins) not in div:
                div.add(id(ins))
                changed = True

        # 2. Control-dependence regions of divergent branches.
        for block in kernel.blocks:
            term = block.terminator
            if term is None or term.op is not Opcode.CBR:
                continue
            if id(term) not in info.divergent_branches:
                continue
            ipdom = pdoms.immediate(block)
            region = _influence_region(block, ipdom)
            interior = region - ({id(ipdom)} if ipdom is not None else set())
            if not region.issubset(info.divergent_blocks):
                info.divergent_blocks |= region
                changed = True
            if not interior.issubset(info.divergent_interior_blocks):
                info.divergent_interior_blocks |= interior
                changed = True

    return info
