"""Natural-loop detection and simple trip-count analysis.

The HLS pipeline model needs loop structure (initiation intervals apply
per loop) and the Vortex code generator needs to know which loops have
divergent exits (PRED lowering). Loops are found from back edges ``t →
h`` where ``h`` dominates ``t``; the natural loop body is everything that
reaches ``t`` without passing through ``h``.

Trip counts are recovered for the builder's ``for_range`` pattern — a
header phi, a constant-step increment in the latch and an ICMP exit test —
when both bounds are integer constants; everything else reports ``None``
and cost models fall back to a calibrated default.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..ocl.ir import Block, Const, Instr, Kernel, Opcode, predecessors
from .cfg import dominators


@dataclass
class Loop:
    header: Block
    latches: list[Block]
    blocks: set[int] = field(default_factory=set)  # block ids, incl. header
    parent: "Loop | None" = None
    depth: int = 1
    #: Static trip count when derivable, else None.
    trip_count: int | None = None


@dataclass
class LoopInfo:
    loops: list[Loop]
    #: block id -> innermost loop containing it (if any).
    block_loop: dict[int, Loop] = field(default_factory=dict)

    def innermost(self, block: Block) -> Loop | None:
        return self.block_loop.get(id(block))

    def exit_branches(self, loop: Loop) -> list[Instr]:
        out = []
        for block_id in loop.blocks:
            block = self._blocks_by_id[block_id]
            term = block.terminator
            if term is not None and term.op is Opcode.CBR:
                if any(id(t) not in loop.blocks for t in term.targets):
                    out.append(term)
            elif term is not None and term.op is Opcode.RET:
                out.append(term)
        return out

    _blocks_by_id: dict[int, Block] = field(default_factory=dict)


def analyze(kernel: Kernel) -> LoopInfo:
    dom = dominators(kernel)
    order = dom.order
    by_id = {id(b): b for b in order}
    preds = predecessors(kernel)

    # Collect back edges and group by header.
    latches_by_header: dict[int, list[Block]] = {}
    for block in order:
        for succ in block.successors:
            if dom.dominates(succ, block):
                latches_by_header.setdefault(id(succ), []).append(block)

    loops: list[Loop] = []
    for header_id, latches in latches_by_header.items():
        header = by_id[header_id]
        body: set[int] = {header_id}
        stack = [l for l in latches if id(l) != header_id]
        for l in latches:
            body.add(id(l))
        while stack:
            block = stack.pop()
            for pred in preds[block]:
                if id(pred) not in body and id(pred) in by_id:
                    body.add(id(pred))
                    stack.append(pred)
        loops.append(Loop(header=header, latches=latches, blocks=body))

    # Nesting: loop A is inside B if A's header is in B's body and A != B.
    # Sort by body size so parents (bigger) are found correctly.
    loops.sort(key=lambda l: len(l.blocks))
    for i, inner in enumerate(loops):
        for outer in loops[i + 1:]:
            if id(inner.header) in outer.blocks and inner is not outer:
                inner.parent = outer
                break
    for loop in loops:
        depth = 1
        p = loop.parent
        while p is not None:
            depth += 1
            p = p.parent
        loop.depth = depth

    info = LoopInfo(loops=loops)
    info._blocks_by_id = by_id
    # Innermost map: iterate from outermost (largest) to innermost so the
    # smallest loop wins.
    for loop in sorted(loops, key=lambda l: -len(l.blocks)):
        for block_id in loop.blocks:
            info.block_loop[block_id] = loop

    for loop in loops:
        loop.trip_count = _trip_count(loop, info)
    return info


def _trip_count(loop: Loop, info: LoopInfo) -> int | None:
    """Recognise the for_range shape with constant bounds."""
    header = loop.header
    term = header.terminator
    if term is None or term.op is not Opcode.CBR:
        return None
    cond = term.args[0]
    if not isinstance(cond, Instr) or cond.op is not Opcode.ICMP:
        return None
    if cond.attrs["pred"] not in ("slt", "sgt"):
        return None
    iv, bound = cond.args
    if not isinstance(bound, Const):
        return None
    if not (isinstance(iv, Instr) and iv.op is Opcode.PHI):
        return None
    start = None
    step = None
    for pred_block, val in iv.attrs["incomings"]:
        if id(pred_block) in loop.blocks:
            # Latch value: expect iv + const_step.
            if (
                isinstance(val, Instr)
                and val.op is Opcode.ADD
                and val.args[0] is iv
                and isinstance(val.args[1], Const)
            ):
                step = int(val.args[1].value)
            else:
                return None
        else:
            if isinstance(val, Const):
                start = int(val.value)
            else:
                return None
    if start is None or step is None or step == 0:
        return None
    stop = int(bound.value)
    if cond.attrs["pred"] == "slt" and step > 0:
        return max(0, -(-(stop - start) // step))
    if cond.attrs["pred"] == "sgt" and step < 0:
        return max(0, -(-(start - stop) // -step))
    return None
