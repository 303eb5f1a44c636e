"""IR verifier.

``validate(kernel)`` raises :class:`~repro.errors.IRError` on structural
problems. Both backends call it before compiling, and the builder's tests
use it as the ground truth for "did the builder produce legal SSA".

Checked invariants:

* every block has exactly one terminator, as its last instruction;
* phis appear only at block heads and their incoming edges exactly match
  the block's CFG predecessors;
* all branch targets belong to the kernel;
* operand types match each opcode's signature;
* every SSA value is defined before use (dominance, conservatively checked
  via reverse-postorder availability);
* value names are unique.
"""

from __future__ import annotations

from ..errors import IRError, TypeMismatchError
from .ir import (
    ATOMIC_OPS,
    FCMP_PREDS,
    ICMP_PREDS,
    Const,
    Kernel,
    Opcode,
    Value,
    predecessors,
    reachable_blocks,
)
from .types import BOOL, FLOAT32, INT32, is_pointer

_INT_BINOPS = {
    Opcode.ADD, Opcode.SUB, Opcode.MUL, Opcode.DIV, Opcode.REM,
    Opcode.SHL, Opcode.ASHR, Opcode.LSHR, Opcode.IMIN, Opcode.IMAX,
}
_BOOL_OR_INT_BINOPS = {Opcode.AND, Opcode.OR, Opcode.XOR}
_FLOAT_BINOPS = {
    Opcode.FADD, Opcode.FSUB, Opcode.FMUL, Opcode.FDIV, Opcode.POW,
    Opcode.FMIN, Opcode.FMAX,
}
_FLOAT_UNOPS = {
    Opcode.FNEG, Opcode.SQRT, Opcode.EXP, Opcode.LOG, Opcode.SIN,
    Opcode.COS, Opcode.FABS, Opcode.FLOOR,
}


def validate(kernel: Kernel) -> None:
    if not kernel.blocks:
        raise IRError(f"kernel {kernel.name}: no blocks")
    _check_blocks(kernel)
    _check_names(kernel)
    _check_phis(kernel)
    _check_types(kernel)
    _check_dominance(kernel)


def _check_blocks(kernel: Kernel) -> None:
    block_ids = {id(b) for b in kernel.blocks}
    for block in kernel.blocks:
        if not block.instrs:
            raise IRError(f"{kernel.name}/{block.name}: empty block")
        term = block.instrs[-1]
        if not term.is_terminator:
            raise IRError(f"{kernel.name}/{block.name}: missing terminator")
        for ins in block.instrs[:-1]:
            if ins.is_terminator:
                raise IRError(
                    f"{kernel.name}/{block.name}: terminator {ins.op.value} "
                    "not at end of block"
                )
        for target in term.targets:
            if id(target) not in block_ids:
                raise IRError(
                    f"{kernel.name}/{block.name}: branch to foreign block "
                    f"{target.name}"
                )
        if term.op is Opcode.BR and len(term.targets) != 1:
            raise IRError(f"{kernel.name}/{block.name}: BR needs 1 target")
        if term.op is Opcode.CBR:
            if len(term.targets) != 2:
                raise IRError(f"{kernel.name}/{block.name}: CBR needs 2 targets")
            if len(term.args) != 1 or term.args[0].ty is not BOOL:
                raise TypeMismatchError(
                    f"{kernel.name}/{block.name}: CBR condition must be bool"
                )


def _check_names(kernel: Kernel) -> None:
    seen: dict[str, Value] = {}
    for p in kernel.params:
        if p.name in seen:
            raise IRError(f"{kernel.name}: duplicate name {p.name}")
        seen[p.name] = p
    for arr in kernel.arrays:
        if arr.name in seen:
            raise IRError(f"{kernel.name}: duplicate name {arr.name}")
        seen[arr.name] = arr
    for ins in kernel.instructions():
        if ins.ty is None:
            continue
        if ins.name in seen and seen[ins.name] is not ins:
            raise IRError(f"{kernel.name}: duplicate value name %{ins.name}")
        seen[ins.name] = ins


def _check_phis(kernel: Kernel) -> None:
    preds = predecessors(kernel)
    for block in kernel.blocks:
        in_head = True
        for ins in block.instrs:
            if ins.op is Opcode.PHI:
                if not in_head:
                    raise IRError(
                        f"{kernel.name}/{block.name}: phi %{ins.name} not at "
                        "block head"
                    )
                incoming_blocks = [b for b, _ in ins.attrs["incomings"]]
                if {id(b) for b in incoming_blocks} != {id(b) for b in preds[block]}:
                    raise IRError(
                        f"{kernel.name}/{block.name}: phi %{ins.name} incomings "
                        f"({[b.name for b in incoming_blocks]}) do not match "
                        f"predecessors ({[b.name for b in preds[block]]})"
                    )
                if len(incoming_blocks) != len(set(id(b) for b in incoming_blocks)):
                    raise IRError(
                        f"{kernel.name}/{block.name}: phi %{ins.name} has a "
                        "duplicate incoming block"
                    )
                for _, val in ins.attrs["incomings"]:
                    if val.ty is not ins.ty:
                        raise TypeMismatchError(
                            f"{kernel.name}/{block.name}: phi %{ins.name} "
                            f"incoming type {val.ty} != {ins.ty}"
                        )
            else:
                in_head = False


def _expect(cond: bool, msg: str) -> None:
    if not cond:
        raise TypeMismatchError(msg)


def _check_types(kernel: Kernel) -> None:
    for ins in kernel.instructions():
        where = f"{kernel.name}: %{ins.name or ins.op.value}"
        op = ins.op
        a = ins.args
        if op in _INT_BINOPS:
            _expect(len(a) == 2 and a[0].ty is INT32 and a[1].ty is INT32,
                    f"{where}: {op.value} requires two int operands")
            _expect(ins.ty is INT32, f"{where}: result must be int")
        elif op in _BOOL_OR_INT_BINOPS:
            _expect(len(a) == 2 and a[0].ty is a[1].ty
                    and a[0].ty in (INT32, BOOL),
                    f"{where}: {op.value} requires matching int/bool operands")
            _expect(ins.ty is a[0].ty, f"{where}: result type mismatch")
        elif op is Opcode.IABS:
            _expect(len(a) == 1 and a[0].ty is INT32 and ins.ty is INT32,
                    f"{where}: iabs requires an int operand")
        elif op in _FLOAT_BINOPS:
            _expect(len(a) == 2 and a[0].ty is FLOAT32 and a[1].ty is FLOAT32,
                    f"{where}: {op.value} requires two float operands")
            _expect(ins.ty is FLOAT32, f"{where}: result must be float")
        elif op in _FLOAT_UNOPS:
            _expect(len(a) == 1 and a[0].ty is FLOAT32 and ins.ty is FLOAT32,
                    f"{where}: {op.value} requires one float operand")
        elif op is Opcode.ICMP:
            _expect(len(a) == 2 and a[0].ty is INT32 and a[1].ty is INT32,
                    f"{where}: icmp requires int operands")
            _expect(ins.attrs.get("pred") in ICMP_PREDS,
                    f"{where}: bad icmp predicate {ins.attrs.get('pred')}")
            _expect(ins.ty is BOOL, f"{where}: icmp result must be bool")
        elif op is Opcode.FCMP:
            _expect(len(a) == 2 and a[0].ty is FLOAT32 and a[1].ty is FLOAT32,
                    f"{where}: fcmp requires float operands")
            _expect(ins.attrs.get("pred") in FCMP_PREDS,
                    f"{where}: bad fcmp predicate {ins.attrs.get('pred')}")
            _expect(ins.ty is BOOL, f"{where}: fcmp result must be bool")
        elif op is Opcode.SELECT:
            _expect(len(a) == 3 and a[0].ty is BOOL and a[1].ty is a[2].ty,
                    f"{where}: select(cond, x, y) with matching arms")
            _expect(ins.ty is a[1].ty, f"{where}: select result type mismatch")
        elif op is Opcode.SITOFP:
            _expect(len(a) == 1 and a[0].ty is INT32 and ins.ty is FLOAT32,
                    f"{where}: sitofp int -> float")
        elif op is Opcode.FPTOSI:
            _expect(len(a) == 1 and a[0].ty is FLOAT32 and ins.ty is INT32,
                    f"{where}: fptosi float -> int")
        elif op is Opcode.ZEXT:
            _expect(len(a) == 1 and a[0].ty is BOOL and ins.ty is INT32,
                    f"{where}: zext bool -> int")
        elif op is Opcode.LOAD:
            _expect(len(a) == 2 and is_pointer(a[0].ty) and a[1].ty is INT32,
                    f"{where}: load(ptr, int_index)")
            _expect(ins.ty is a[0].ty.element, f"{where}: load type mismatch")
        elif op is Opcode.STORE:
            _expect(len(a) == 3 and is_pointer(a[0].ty) and a[1].ty is INT32
                    and a[2].ty is a[0].ty.element,
                    f"{where}: store(ptr, int_index, elem_value)")
        elif op in ATOMIC_OPS:
            nvals = 2 if op is Opcode.ATOMIC_CAS else 1
            _expect(len(a) == 2 + nvals and is_pointer(a[0].ty)
                    and a[1].ty is INT32
                    and all(v.ty is a[0].ty.element for v in a[2:]),
                    f"{where}: {op.value} operand types")
            _expect(ins.ty is a[0].ty.element,
                    f"{where}: atomic result type mismatch")
        elif op in (Opcode.GID, Opcode.LID, Opcode.GROUP_ID, Opcode.LOCAL_SIZE,
                    Opcode.GLOBAL_SIZE, Opcode.NUM_GROUPS):
            _expect(not a and ins.attrs.get("dim") in (0, 1, 2),
                    f"{where}: work-item query needs dim attr in 0..2")
            _expect(ins.ty is INT32, f"{where}: work-item query returns int")
        elif op is Opcode.BARRIER:
            _expect(not a and ins.ty is None, f"{where}: barrier takes nothing")
        elif op is Opcode.PRINTF:
            _expect(isinstance(ins.attrs.get("fmt"), str),
                    f"{where}: printf needs a fmt attr")
        elif op is Opcode.PHI:
            pass  # handled in _check_phis
        elif op in (Opcode.BR, Opcode.CBR, Opcode.RET):
            pass  # handled in _check_blocks
        else:  # pragma: no cover - defensive, enum is closed
            raise IRError(f"{where}: unhandled opcode {op}")


def _check_dominance(kernel: Kernel) -> None:
    """Conservative def-before-use check.

    Exact dominance is computed in :mod:`repro.passes.cfg`; the verifier
    runs a cheaper data-flow: a value is available in a block if it is
    defined in every path to it. Phis consume values at the end of the
    corresponding predecessor instead.
    """
    order = reachable_blocks(kernel)
    globals_: set[int] = {id(p) for p in kernel.params}
    globals_ |= {id(arr) for arr in kernel.arrays}

    defined_out: dict[int, set[int]] = {}
    preds = predecessors(kernel)
    # Iterate to fixpoint (loops need two passes).
    for _ in range(len(order) + 1):
        changed = False
        for block in order:
            pred_sets = [
                defined_out.get(id(p), None) for p in preds[block]
            ]
            known = [s for s in pred_sets if s is not None]
            avail = set.intersection(*known) if known else set()
            avail |= globals_
            for ins in block.instrs:
                if ins.op is Opcode.PHI:
                    avail.add(id(ins))
            for ins in block.instrs:
                if ins.op is Opcode.PHI:
                    continue
                for opnd in ins.args:
                    if isinstance(opnd, Const):
                        continue
                    if id(opnd) not in avail:
                        raise IRError(
                            f"{kernel.name}/{block.name}: %{opnd.name} used in "
                            f"'{ins.format()}' before definition"
                        )
                if ins.ty is not None:
                    avail.add(id(ins))
            if defined_out.get(id(block)) != avail:
                defined_out[id(block)] = avail
                changed = True
        if not changed:
            break
