"""Register allocation for the Vortex code generator.

Allocation happens at the IR level: every register-carried value (kernel
parameter, local-array base, instruction result, phi) is assigned either a
physical register or a stack spill slot. The algorithm is the classic
SSA-friendly one:

1. build an interference graph from backward liveness (phi parallel
   copies are modelled at the predecessor block ends);
2. greedy-colour values in dominance preorder of their definitions (on
   SSA-form chordal graphs this is conflict-free whenever enough colours
   exist);
3. values that do not fit are spilled to per-thread stack slots; the code
   generator rewrites their uses/defs through scratch registers.

Integer/bool/pointer values use the x-register file, floats the
f-register file; the two classes are coloured independently.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..ocl.ir import Kernel, Value
from ..ocl.types import FLOAT32
from ..passes import cfg as cfg_pass
from ..passes import liveness as liveness_pass
from .isa import F_ALLOC_FIRST, F_ALLOC_LAST, X_ALLOC_FIRST, X_ALLOC_LAST


def reg_class(value: Value) -> str:
    """"f" for float values, "x" for everything register-resident else."""
    return "f" if value.ty is FLOAT32 else "x"


@dataclass
class Allocation:
    """Result of register allocation."""

    #: value id -> physical register number (within its class's file).
    regs: dict[int, int] = field(default_factory=dict)
    #: value id -> register class ("x" or "f").
    classes: dict[int, str] = field(default_factory=dict)
    #: value id -> stack slot byte offset (spilled values only).
    spill_slots: dict[int, int] = field(default_factory=dict)
    #: total bytes of spill area.
    spill_bytes: int = 0

    def is_spilled(self, value: Value) -> bool:
        return id(value) in self.spill_slots

    def reg_of(self, value: Value) -> int:
        return self.regs[id(value)]


def _register_values(kernel: Kernel) -> dict[int, Value]:
    vals: dict[int, Value] = {}
    for p in kernel.params:
        vals[id(p)] = p
    for arr in kernel.arrays:
        vals[id(arr)] = arr
    for ins in kernel.instructions():
        if ins.ty is not None:
            vals[id(ins)] = ins
    return vals


def build_interference(kernel: Kernel,
                       pin_entry_values: bool = False) -> dict[int, set[int]]:
    """Interference edges between register values of the same class.

    ``pin_entry_values`` treats kernel parameters and array bases as live
    everywhere: wave-mode kernels re-execute the body per wave, so the
    prologue-loaded values must survive the whole loop.
    """
    lv = liveness_pass.analyze(kernel)
    values = _register_values(kernel)
    adj: dict[int, set[int]] = {vid: set() for vid in values}
    pinned: set[int] = set()
    if pin_entry_values:
        pinned = {id(p) for p in kernel.params} | {
            id(a) for a in kernel.arrays
        }
        for bid in list(lv.live_in):
            lv.live_in[bid] |= pinned
        for bid in list(lv.live_out):
            lv.live_out[bid] |= pinned

    def add_clique_edges(vid: int, others: set[int]) -> None:
        v = values.get(vid)
        if v is None:
            return
        cls = reg_class(v)
        for oid in others:
            if oid == vid or oid not in values:
                continue
            if reg_class(values[oid]) != cls:
                continue
            adj[vid].add(oid)
            adj[oid].add(vid)

    entry = kernel.entry
    for block in kernel.blocks:
        live: set[int] = set(lv.live_out[id(block)])

        # The code generator emits phi parallel copies *before* the
        # terminator, so the terminator's operands (e.g. a divergent
        # branch condition) must survive the copies: count them live at
        # the copy point.
        term = block.terminator
        if term is not None:
            for opnd in term.args:
                if liveness_pass.is_register_value(opnd):
                    live.add(id(opnd))

        # Parallel phi copies at the end of this block: each successor phi
        # is defined here. Conservatively, successor phis interfere with
        # everything live-out and with each other.
        succ_phis = [
            phi for succ in block.successors for phi in succ.phis()
        ]
        for phi in succ_phis:
            add_clique_edges(id(phi), live)
        for i, phi in enumerate(succ_phis):
            for other in succ_phis[i + 1:]:
                add_clique_edges(id(phi), {id(other)})

        for ins in reversed(list(block.non_phis())):
            if ins.ty is not None:
                live.discard(id(ins))
                add_clique_edges(id(ins), live)
            for opnd in ins.args:
                if liveness_pass.is_register_value(opnd):
                    live.add(id(opnd))

        # Phis of this block define at the head.
        for phi in block.phis():
            live.discard(id(phi))
        for phi in block.phis():
            add_clique_edges(id(phi), live)

        # Params and arrays are defined at entry: they interfere with the
        # entry's live set and with each other.
        if block is entry:
            entry_defs = [id(p) for p in kernel.params] + [
                id(a) for a in kernel.arrays
            ]
            for vid in entry_defs:
                add_clique_edges(vid, live)
                add_clique_edges(vid, set(entry_defs))
    return adj


def allocate(kernel: Kernel, pin_entry_values: bool = False) -> Allocation:
    """Colour the interference graph; spill what does not fit."""
    values = _register_values(kernel)
    adj = build_interference(kernel, pin_entry_values=pin_entry_values)
    dom = cfg_pass.dominators(kernel)

    # Definition order: params, arrays, then instruction results in
    # dominance preorder (phis first within each block).
    order: list[int] = [id(p) for p in kernel.params]
    order += [id(a) for a in kernel.arrays]
    for block in dom.preorder():
        for ins in block.instrs:
            if ins.ty is not None:
                order.append(id(ins))
    # Instructions in unreachable blocks (should not exist) fall back in.
    for vid in values:
        if vid not in order:
            order.append(vid)

    limits = {
        "x": X_ALLOC_LAST - X_ALLOC_FIRST + 1,
        "f": F_ALLOC_LAST - F_ALLOC_FIRST + 1,
    }
    bases = {"x": X_ALLOC_FIRST, "f": F_ALLOC_FIRST}

    alloc = Allocation()
    colors: dict[int, int] = {}
    for vid in order:
        value = values[vid]
        cls = reg_class(value)
        taken = {
            colors[n]
            for n in adj[vid]
            if n in colors and reg_class(values[n]) == cls
        }
        color = 0
        while color in taken:
            color += 1
        colors[vid] = color
        alloc.classes[vid] = cls

    # Map colours to registers; colours beyond the file size spill.
    for vid, color in colors.items():
        cls = alloc.classes[vid]
        if color < limits[cls]:
            alloc.regs[vid] = bases[cls] + color
        else:
            alloc.spill_slots[vid] = alloc.spill_bytes
            alloc.spill_bytes += 4
    return alloc
