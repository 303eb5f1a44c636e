"""Kernel construction DSL.

:class:`KernelBuilder` lets benchmark authors write kernels in Python with
structured control flow (``if_`` / ``if_else`` / ``for_range`` / ``while_``)
and mutable variables (:class:`Var`), and produces SSA IR directly using
on-the-fly SSA construction (Braun et al., CC'13): variable reads insert
phi nodes lazily, loop headers stay "unsealed" until their back edge is
known, and trivial phis are cleaned up at ``finish()``.

Example
-------
>>> from repro.ocl.builder import KernelBuilder
>>> from repro.ocl.types import GLOBAL_FLOAT32, INT32
>>> b = KernelBuilder("vecadd")
>>> a = b.param("a", GLOBAL_FLOAT32)
>>> out = b.param("out", GLOBAL_FLOAT32)
>>> n = b.param("n", INT32)
>>> gid = b.global_id(0)
>>> with b.if_(b.lt(gid, n)):
...     b.store(out, gid, b.add(b.load(a, gid), b.load(a, gid)))
>>> kernel = b.finish()
"""

from __future__ import annotations

import contextlib
from typing import Any, Callable, Iterator

from ..errors import IRError, TypeMismatchError
from .ir import (
    Block,
    Const,
    Instr,
    Kernel,
    LocalArray,
    Opcode,
    Param,
    Value,
    predecessors,
    reachable_blocks,
)
from .types import (
    BOOL,
    FLOAT32,
    INT32,
    AddressSpace,
    ScalarType,
    Type,
    is_pointer,
    pointer,
)

Operand = Value | int | float | bool


class Var:
    """A mutable variable backed by SSA construction.

    Reads (:meth:`get`) return the reaching SSA value; writes (:meth:`set`)
    record a new definition in the current block. Most builder methods
    accept a :class:`Var` anywhere a value is expected.
    """

    __slots__ = ("name", "ty", "_builder")

    def __init__(self, builder: "KernelBuilder", name: str, ty: ScalarType):
        self._builder = builder
        self.name = name
        self.ty = ty

    def get(self) -> Value:
        return self._builder._read_var(self)

    def set(self, value: Operand) -> None:
        self._builder._write_var(self, value)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Var {self.name}: {self.ty.name}>"


class _LoopFrame:
    __slots__ = ("header", "latch", "exit")

    def __init__(self, header: Block, latch: Block | None, exit_: Block):
        self.header = header
        self.latch = latch  # continue target (None => header)
        self.exit = exit_


class KernelBuilder:
    """Builds a :class:`~repro.ocl.ir.Kernel` incrementally."""

    def __init__(self, name: str):
        self.kernel = Kernel(name)
        self._cur: Block = self.kernel.add_block("entry")
        # SSA construction state (Braun et al.).
        self._defs: dict[str, dict[int, Value]] = {}
        self._sealed: set[int] = {id(self._cur)}
        self._incomplete: dict[int, dict[str, Instr]] = {}
        self._block_by_id: dict[int, Block] = {id(self._cur): self._cur}
        self._loops: list[_LoopFrame] = []
        self._finished = False

    # ------------------------------------------------------------------
    # Parameters, variables, arrays.
    # ------------------------------------------------------------------

    def param(self, name: str, ty: Type) -> Param:
        return self.kernel.add_param(name, ty)

    def var(self, name: str, ty: ScalarType, init: Operand | None = None) -> Var:
        v = Var(self, f"{name}.{self.kernel.fresh_name('var')}", ty)
        if init is not None:
            v.set(init)
        return v

    def local_array(self, name: str, elem: ScalarType, size: int) -> LocalArray:
        arr = LocalArray(name, pointer(AddressSpace.LOCAL, elem), size)
        self.kernel.arrays.append(arr)
        return arr

    def private_array(self, name: str, elem: ScalarType, size: int) -> LocalArray:
        arr = LocalArray(name, pointer(AddressSpace.PRIVATE, elem), size)
        self.kernel.arrays.append(arr)
        return arr

    # ------------------------------------------------------------------
    # Value coercion.
    # ------------------------------------------------------------------

    def const(self, value: Any, ty: ScalarType | None = None) -> Const:
        if ty is None:
            if isinstance(value, bool):
                ty = BOOL
            elif isinstance(value, int):
                ty = INT32
            elif isinstance(value, float):
                ty = FLOAT32
            else:
                raise TypeMismatchError(f"cannot infer constant type for {value!r}")
        return Const(ty, value)

    def _val(self, x: Operand, expect: Type | None = None) -> Value:
        """Coerce an operand: Vars are read, Python literals become consts."""
        if isinstance(x, Var):
            x = x.get()
        if isinstance(x, Value):
            return x
        if isinstance(x, bool):
            return Const(BOOL if expect is None else expect, x)  # type: ignore[arg-type]
        if isinstance(x, int):
            if expect is FLOAT32:
                return Const(FLOAT32, float(x))
            return Const(INT32, x)
        if isinstance(x, float):
            return Const(FLOAT32, x)
        raise TypeMismatchError(f"cannot use {x!r} as an IR operand")

    def _pair(self, a: Operand, b: Operand) -> tuple[Value, Value]:
        """Coerce a binary-op operand pair, letting a typed side win."""
        hint: Type | None = None
        for x in (a, b):
            if isinstance(x, Var):
                hint = x.ty
                break
            if isinstance(x, Value):
                hint = x.ty
                break
        av = self._val(a, hint)
        bv = self._val(b, av.ty)
        return av, bv

    # ------------------------------------------------------------------
    # Instruction emission.
    # ------------------------------------------------------------------

    def _emit(
        self,
        op: Opcode,
        ty: Type | None,
        args: list[Value],
        attrs: dict[str, Any] | None = None,
        targets: list[Block] | None = None,
    ) -> Instr:
        if self._finished:
            raise IRError("builder already finished")
        name = self.kernel.fresh_name() if ty is not None else ""
        ins = Instr(op, ty, args, attrs, targets, name)
        self._cur.append(ins)
        return ins

    def _binop(self, int_op: Opcode, float_op: Opcode | None, a: Operand, b: Operand) -> Instr:
        av, bv = self._pair(a, b)
        if av.ty is not bv.ty:
            raise TypeMismatchError(
                f"{int_op.value}: operand types differ ({av.ty} vs {bv.ty})"
            )
        if av.ty is FLOAT32:
            if float_op is None:
                raise TypeMismatchError(f"{int_op.value} not defined on float")
            return self._emit(float_op, FLOAT32, [av, bv])
        if av.ty is INT32:
            return self._emit(int_op, INT32, [av, bv])
        raise TypeMismatchError(f"{int_op.value} not defined on {av.ty}")

    # Type-dispatching arithmetic (int or float by operand type).
    def add(self, a: Operand, b: Operand) -> Instr:
        return self._binop(Opcode.ADD, Opcode.FADD, a, b)

    def sub(self, a: Operand, b: Operand) -> Instr:
        return self._binop(Opcode.SUB, Opcode.FSUB, a, b)

    def mul(self, a: Operand, b: Operand) -> Instr:
        return self._binop(Opcode.MUL, Opcode.FMUL, a, b)

    def div(self, a: Operand, b: Operand) -> Instr:
        return self._binop(Opcode.DIV, Opcode.FDIV, a, b)

    def rem(self, a: Operand, b: Operand) -> Instr:
        return self._binop(Opcode.REM, None, a, b)

    def min(self, a: Operand, b: Operand) -> Instr:
        return self._binop(Opcode.IMIN, Opcode.FMIN, a, b)

    def max(self, a: Operand, b: Operand) -> Instr:
        return self._binop(Opcode.IMAX, Opcode.FMAX, a, b)

    def abs(self, a: Operand) -> Instr:
        av = self._val(a)
        if av.ty is FLOAT32:
            return self._emit(Opcode.FABS, FLOAT32, [av])
        return self._emit(Opcode.IABS, INT32, [av])

    def neg(self, a: Operand) -> Instr:
        av = self._val(a)
        if av.ty is FLOAT32:
            return self._emit(Opcode.FNEG, FLOAT32, [av])
        return self.sub(self.const(0), av)

    # Bitwise / shifts (int only).
    def and_(self, a: Operand, b: Operand) -> Instr:
        return self._binop(Opcode.AND, None, a, b)

    def or_(self, a: Operand, b: Operand) -> Instr:
        return self._binop(Opcode.OR, None, a, b)

    def xor(self, a: Operand, b: Operand) -> Instr:
        return self._binop(Opcode.XOR, None, a, b)

    def shl(self, a: Operand, b: Operand) -> Instr:
        return self._binop(Opcode.SHL, None, a, b)

    def ashr(self, a: Operand, b: Operand) -> Instr:
        return self._binop(Opcode.ASHR, None, a, b)

    def lshr(self, a: Operand, b: Operand) -> Instr:
        return self._binop(Opcode.LSHR, None, a, b)

    # Float math builtins.
    def _unary_f(self, op: Opcode, a: Operand) -> Instr:
        av = self._val(a, FLOAT32)
        if av.ty is not FLOAT32:
            raise TypeMismatchError(f"{op.value} requires float operand")
        return self._emit(op, FLOAT32, [av])

    def sqrt(self, a: Operand) -> Instr:
        return self._unary_f(Opcode.SQRT, a)

    def exp(self, a: Operand) -> Instr:
        return self._unary_f(Opcode.EXP, a)

    def log(self, a: Operand) -> Instr:
        return self._unary_f(Opcode.LOG, a)

    def sin(self, a: Operand) -> Instr:
        return self._unary_f(Opcode.SIN, a)

    def cos(self, a: Operand) -> Instr:
        return self._unary_f(Opcode.COS, a)

    def floor(self, a: Operand) -> Instr:
        return self._unary_f(Opcode.FLOOR, a)

    def pow(self, a: Operand, b: Operand) -> Instr:
        av = self._val(a, FLOAT32)
        bv = self._val(b, FLOAT32)
        return self._emit(Opcode.POW, FLOAT32, [av, bv])

    # Comparisons (type-dispatched; result BOOL).
    def _cmp(self, ipred: str, fpred: str, a: Operand, b: Operand) -> Instr:
        av, bv = self._pair(a, b)
        if av.ty is not bv.ty:
            raise TypeMismatchError(f"cmp: operand types differ ({av.ty} vs {bv.ty})")
        if av.ty is FLOAT32:
            return self._emit(Opcode.FCMP, BOOL, [av, bv], {"pred": fpred})
        return self._emit(Opcode.ICMP, BOOL, [av, bv], {"pred": ipred})

    def eq(self, a: Operand, b: Operand) -> Instr:
        return self._cmp("eq", "oeq", a, b)

    def ne(self, a: Operand, b: Operand) -> Instr:
        return self._cmp("ne", "one", a, b)

    def lt(self, a: Operand, b: Operand) -> Instr:
        return self._cmp("slt", "olt", a, b)

    def le(self, a: Operand, b: Operand) -> Instr:
        return self._cmp("sle", "ole", a, b)

    def gt(self, a: Operand, b: Operand) -> Instr:
        return self._cmp("sgt", "ogt", a, b)

    def ge(self, a: Operand, b: Operand) -> Instr:
        return self._cmp("sge", "oge", a, b)

    def logical_and(self, a: Operand, b: Operand) -> Instr:
        """Non-short-circuit boolean AND (both sides already evaluated)."""
        av, bv = self._val(a), self._val(b)
        if av.ty is not BOOL or bv.ty is not BOOL:
            raise TypeMismatchError("logical_and requires bool operands")
        return self._emit(Opcode.AND, BOOL, [av, bv])

    def logical_or(self, a: Operand, b: Operand) -> Instr:
        av, bv = self._val(a), self._val(b)
        if av.ty is not BOOL or bv.ty is not BOOL:
            raise TypeMismatchError("logical_or requires bool operands")
        return self._emit(Opcode.OR, BOOL, [av, bv])

    def logical_not(self, a: Operand) -> Instr:
        av = self._val(a)
        if av.ty is not BOOL:
            raise TypeMismatchError("logical_not requires a bool operand")
        return self._emit(Opcode.XOR, BOOL, [av, Const(BOOL, True)])

    def select(self, cond: Operand, a: Operand, b: Operand) -> Instr:
        cv = self._val(cond)
        av, bv = self._pair(a, b)
        if cv.ty is not BOOL:
            raise TypeMismatchError("select condition must be bool")
        if av.ty is not bv.ty:
            raise TypeMismatchError("select arms must have the same type")
        return self._emit(Opcode.SELECT, av.ty, [cv, av, bv])

    # Conversions.
    def itof(self, a: Operand) -> Instr:
        av = self._val(a, INT32)
        if av.ty is FLOAT32:
            return av  # type: ignore[return-value]
        return self._emit(Opcode.SITOFP, FLOAT32, [av])

    def ftoi(self, a: Operand) -> Instr:
        av = self._val(a, FLOAT32)
        if av.ty is INT32:
            return av  # type: ignore[return-value]
        return self._emit(Opcode.FPTOSI, INT32, [av])

    def zext(self, a: Operand) -> Instr:
        av = self._val(a)
        if av.ty is INT32:
            return av  # type: ignore[return-value]
        return self._emit(Opcode.ZEXT, INT32, [av])

    # Memory.
    def load(self, ptr: Value, index: Operand, *, pipelined: bool = False) -> Instr:
        pv = self._ptr(ptr)
        iv = self._val(index, INT32)
        ins = self._emit(Opcode.LOAD, pv.ty.element, [pv, iv])
        if pipelined:
            self.kernel.directives[ins] = "pipelined_load"
        return ins

    def store(self, ptr: Value, index: Operand, value: Operand) -> Instr:
        pv = self._ptr(ptr)
        iv = self._val(index, INT32)
        vv = self._val(value, pv.ty.element)
        if vv.ty is not pv.ty.element:
            raise TypeMismatchError(
                f"store of {vv.ty} into pointer to {pv.ty.element}"
            )
        return self._emit(Opcode.STORE, None, [pv, iv, vv])

    def _ptr(self, ptr: Value) -> Value:
        if isinstance(ptr, Var):
            raise TypeMismatchError("pointers cannot be stored in Vars")
        if not is_pointer(ptr.ty):
            raise TypeMismatchError(f"expected a pointer, got {ptr.ty}")
        return ptr

    def _atomic(self, op: Opcode, ptr: Value, index: Operand, *vals: Operand) -> Instr:
        pv = self._ptr(ptr)
        iv = self._val(index, INT32)
        args = [pv, iv] + [self._val(v, pv.ty.element) for v in vals]
        return self._emit(op, pv.ty.element, args)

    def atomic_add(self, ptr: Value, index: Operand, value: Operand) -> Instr:
        return self._atomic(Opcode.ATOMIC_ADD, ptr, index, value)

    def atomic_min(self, ptr: Value, index: Operand, value: Operand) -> Instr:
        return self._atomic(Opcode.ATOMIC_MIN, ptr, index, value)

    def atomic_max(self, ptr: Value, index: Operand, value: Operand) -> Instr:
        return self._atomic(Opcode.ATOMIC_MAX, ptr, index, value)

    def atomic_xchg(self, ptr: Value, index: Operand, value: Operand) -> Instr:
        return self._atomic(Opcode.ATOMIC_XCHG, ptr, index, value)

    def atomic_cas(
        self, ptr: Value, index: Operand, expected: Operand, desired: Operand
    ) -> Instr:
        return self._atomic(Opcode.ATOMIC_CAS, ptr, index, expected, desired)

    # Work-item functions.
    def _wi(self, op: Opcode, dim: int) -> Instr:
        if dim not in (0, 1, 2):
            raise IRError(f"work-item dimension must be 0..2, got {dim}")
        return self._emit(op, INT32, [], {"dim": dim})

    def global_id(self, dim: int = 0) -> Instr:
        return self._wi(Opcode.GID, dim)

    def local_id(self, dim: int = 0) -> Instr:
        return self._wi(Opcode.LID, dim)

    def group_id(self, dim: int = 0) -> Instr:
        return self._wi(Opcode.GROUP_ID, dim)

    def local_size(self, dim: int = 0) -> Instr:
        return self._wi(Opcode.LOCAL_SIZE, dim)

    def global_size(self, dim: int = 0) -> Instr:
        return self._wi(Opcode.GLOBAL_SIZE, dim)

    def num_groups(self, dim: int = 0) -> Instr:
        return self._wi(Opcode.NUM_GROUPS, dim)

    # Sync / IO.
    def barrier(self) -> Instr:
        return self._emit(Opcode.BARRIER, None, [])

    def printf(self, fmt: str, *args: Operand) -> Instr:
        return self._emit(
            Opcode.PRINTF, None, [self._val(a) for a in args], {"fmt": fmt}
        )

    # ------------------------------------------------------------------
    # SSA construction (Braun et al., CC'13).
    # ------------------------------------------------------------------

    def _write_var(self, var: Var, value: Operand) -> None:
        val = self._val(value, var.ty)
        if val.ty is not var.ty:
            raise TypeMismatchError(
                f"assigning {val.ty} to variable {var.name} of type {var.ty}"
            )
        self._defs.setdefault(var.name, {})[id(self._cur)] = val

    def _read_var(self, var: Var) -> Value:
        return self._read_var_in(var, self._cur)

    def _read_var_in(self, var: Var, block: Block) -> Value:
        defs = self._defs.setdefault(var.name, {})
        if id(block) in defs:
            return defs[id(block)]
        return self._read_var_recursive(var, block)

    def _read_var_recursive(self, var: Var, block: Block) -> Value:
        preds = self._preds(block)
        if id(block) not in self._sealed:
            # Loop header whose back edge is not known yet: placeholder phi.
            phi = self._new_phi(block, var)
            self._incomplete.setdefault(id(block), {})[var.name] = phi
            val: Value = phi
        elif len(preds) == 1:
            val = self._read_var_in(var, preds[0])
        elif len(preds) == 0:
            raise IRError(
                f"variable {var.name!r} read before any assignment reaches "
                f"block {block.name}"
            )
        else:
            phi = self._new_phi(block, var)
            # Break potential cycles by defining before recursing.
            self._defs[var.name][id(block)] = phi
            self._add_phi_operands(phi, var, block)
            val = phi
        self._defs[var.name][id(block)] = val
        return val

    def _new_phi(self, block: Block, var: Var) -> Instr:
        phi = Instr(
            Opcode.PHI,
            var.ty,
            [],
            {"incomings": [], "var": var.name},
            name=self.kernel.fresh_name("phi"),
        )
        phi.block = block
        block.instrs.insert(0, phi)
        return phi

    def _add_phi_operands(self, phi: Instr, var: Var, block: Block) -> None:
        incomings = []
        for pred in self._preds(block):
            incomings.append((pred, self._read_var_in(var, pred)))
        phi.attrs["incomings"] = incomings

    def _preds(self, block: Block) -> list[Block]:
        preds = []
        for b in self.kernel.blocks:
            if block in b.successors:
                preds.append(b)
        return preds

    def _seal(self, block: Block) -> None:
        if id(block) in self._sealed:
            return
        self._sealed.add(id(block))
        for var_name, phi in self._incomplete.pop(id(block), {}).items():
            var = Var(self, var_name, phi.ty)  # type: ignore[arg-type]
            self._add_phi_operands(phi, var, block)

    # ------------------------------------------------------------------
    # Structured control flow.
    # ------------------------------------------------------------------

    def _new_block(self, prefix: str) -> Block:
        block = self.kernel.add_block(f"{prefix}{len(self.kernel.blocks)}")
        self._block_by_id[id(block)] = block
        return block

    def _branch_to(self, target: Block) -> None:
        """Terminate the current block with a BR if it isn't terminated."""
        if self._cur.terminator is None:
            self._emit(Opcode.BR, None, [], targets=[target])

    @contextlib.contextmanager
    def if_(self, cond: Operand) -> Iterator[None]:
        """``if (cond) { body }`` with no else branch."""
        cv = self._val(cond)
        if cv.ty is not BOOL:
            raise TypeMismatchError("if_ condition must be bool")
        then_bb = self._new_block("then")
        merge_bb = self._new_block("endif")
        self._emit(Opcode.CBR, None, [cv], targets=[then_bb, merge_bb])
        self._seal(then_bb)
        self._cur = then_bb
        yield
        self._branch_to(merge_bb)
        self._seal(merge_bb)
        self._cur = merge_bb

    @contextlib.contextmanager
    def if_else(self, cond: Operand) -> Iterator[tuple[Any, Any]]:
        """``if (cond) { then } else { otherwise }``.

        Yields two context managers; enter each exactly once::

            with b.if_else(cond) as (then, otherwise):
                with then:
                    ...
                with otherwise:
                    ...
        """
        cv = self._val(cond)
        if cv.ty is not BOOL:
            raise TypeMismatchError("if_else condition must be bool")
        then_bb = self._new_block("then")
        else_bb = self._new_block("else")
        merge_bb = self._new_block("endif")
        self._emit(Opcode.CBR, None, [cv], targets=[then_bb, else_bb])
        self._seal(then_bb)
        self._seal(else_bb)
        after = self._cur  # resume point if user forgets an arm (checked below)
        entered = {"then": False, "else": False}

        @contextlib.contextmanager
        def arm(block: Block, key: str) -> Iterator[None]:
            if entered[key]:
                raise IRError(f"{key} arm entered twice")
            entered[key] = True
            self._cur = block
            yield
            self._branch_to(merge_bb)

        yield arm(then_bb, "then"), arm(else_bb, "else")
        if not (entered["then"] and entered["else"]):
            raise IRError("if_else requires both arms to be entered")
        self._seal(merge_bb)
        self._cur = merge_bb

    @contextlib.contextmanager
    def for_range(
        self, start: Operand, stop: Operand, step: int = 1
    ) -> Iterator[Value]:
        """Counted loop ``for (i = start; i < stop; i += step)``.

        ``step`` must be a nonzero Python int; negative steps compare with
        ``>``. Yields the SSA induction value for use in the body.
        """
        if step == 0:
            raise IRError("for_range step must be nonzero")
        i = self.var("i", INT32, init=self._val(start, INT32))
        header = self._new_block("for")
        body = self._new_block("body")
        latch = self._new_block("latch")
        exit_bb = self._new_block("endfor")
        self._branch_to(header)
        self._cur = header  # unsealed: back edge comes from the latch
        iv = i.get()
        stop_v = self._val(stop, INT32)
        cond = self.lt(iv, stop_v) if step > 0 else self.gt(iv, stop_v)
        self._emit(Opcode.CBR, None, [cond], targets=[body, exit_bb])
        self._seal(body)
        self._cur = body
        self._loops.append(_LoopFrame(header, latch, exit_bb))
        yield iv
        self._loops.pop()
        self._branch_to(latch)
        self._seal(latch)
        self._cur = latch
        i.set(self.add(i.get(), self.const(step)))
        self._branch_to(header)
        self._seal(header)
        self._seal(exit_bb)
        self._cur = exit_bb

    @contextlib.contextmanager
    def while_(self, cond_fn: Callable[[], Operand]) -> Iterator[None]:
        """``while (cond) { body }``; the condition is built by ``cond_fn``
        inside the loop header so it re-evaluates each iteration."""
        header = self._new_block("while")
        body = self._new_block("body")
        latch = self._new_block("latch")
        exit_bb = self._new_block("endwhile")
        self._branch_to(header)
        self._cur = header  # unsealed until all back edges exist
        cv = self._val(cond_fn())
        if cv.ty is not BOOL:
            raise TypeMismatchError("while_ condition must be bool")
        self._emit(Opcode.CBR, None, [cv], targets=[body, exit_bb])
        self._seal(body)
        self._cur = body
        self._loops.append(_LoopFrame(header, latch, exit_bb))
        yield
        self._loops.pop()
        self._branch_to(latch)
        self._seal(latch)
        self._cur = latch
        self._branch_to(header)
        self._seal(header)
        self._seal(exit_bb)
        self._cur = exit_bb

    def break_(self) -> None:
        if not self._loops:
            raise IRError("break_ outside a loop")
        self._branch_to(self._loops[-1].exit)

    def continue_(self) -> None:
        if not self._loops:
            raise IRError("continue_ outside a loop")
        frame = self._loops[-1]
        self._branch_to(frame.latch if frame.latch is not None else frame.header)

    # ------------------------------------------------------------------
    # Finalisation.
    # ------------------------------------------------------------------

    def finish(self) -> Kernel:
        """Terminate, clean trivial phis, prune dead blocks, and return."""
        if self._finished:
            raise IRError("finish() called twice")
        if self._loops:
            raise IRError("finish() inside an open loop")
        if self._cur.terminator is None:
            self._emit(Opcode.RET, None, [])
        if self._incomplete:
            names = [self._block_by_id[b].name for b in self._incomplete]
            raise IRError(f"unsealed blocks at finish: {names}")
        self._finished = True
        self._remove_trivial_phis()
        self._prune_unreachable()
        return self.kernel

    def _remove_trivial_phis(self) -> None:
        """Fixpoint removal of phis whose incomings are all {self, X}."""
        changed = True
        while changed:
            changed = False
            replacements: dict[int, Value] = {}
            for block in self.kernel.blocks:
                for phi in list(block.phis()):
                    ops = {
                        id(v) for _, v in phi.attrs["incomings"] if v is not phi
                    }
                    if len(ops) == 1:
                        (only,) = [
                            v for _, v in phi.attrs["incomings"] if v is not phi
                        ][:1]
                        replacements[id(phi)] = only
                        block.instrs.remove(phi)
                        changed = True
            if replacements:
                def resolve(v: Value) -> Value:
                    seen = set()
                    while id(v) in replacements and id(v) not in seen:
                        seen.add(id(v))
                        v = replacements[id(v)]
                    return v

                for block in self.kernel.blocks:
                    for ins in block.instrs:
                        ins.args = [resolve(a) for a in ins.args]
                        if ins.op is Opcode.PHI:
                            ins.attrs["incomings"] = [
                                (b, resolve(v))
                                for b, v in ins.attrs["incomings"]
                            ]

    def _prune_unreachable(self) -> None:
        live = set(id(b) for b in reachable_blocks(self.kernel))
        self.kernel.blocks = [b for b in self.kernel.blocks if id(b) in live]
        # Drop phi incomings from removed predecessor blocks.
        preds = predecessors(self.kernel)
        for block in self.kernel.blocks:
            pred_ids = {id(p) for p in preds[block]}
            for phi in block.phis():
                phi.attrs["incomings"] = [
                    (b, v) for b, v in phi.attrs["incomings"] if id(b) in pred_ids
                ]
