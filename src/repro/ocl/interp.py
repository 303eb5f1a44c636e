"""Functional (work-item level) interpreter for the kernel IR.

This is the reference executor: it runs a kernel over an NDRange with
OpenCL semantics and bit-faithful arithmetic (int32 wraparound, float32
rounding after every operation), so its outputs can be compared both
against each benchmark's numpy reference *and* against the Vortex
cycle-level simulator, which executes the same kernels from machine code.

Each call first decodes the kernel (:class:`_Program`): every value gets
a slot in a per-item list, every other instruction a closure over its
operands' slots applying its opcode's function from :data:`_SEMANTICS`,
every block its closures split at each BARRIER, its successors (each
with the parallel copy into their phis) and a static op histogram.
Block visits x histograms give ``RunResult.op_counts``, per work-group.

Work-group barriers are honoured by running each work item as a Python
generator that yields at BARRIER; the group scheduler advances all items
in lock-step between barriers and raises on barrier divergence (which is
undefined behaviour in OpenCL, and a real bug in a benchmark).
"""

from __future__ import annotations

import math
import operator
from collections import Counter
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, Iterator

import numpy as np

from ..errors import InterpreterError, RuntimeLaunchError
from ..profiling import Profiler, ensure_profiler
from .ir import (ATOMIC_OPS, FCMP_PREDS, ICMP_PREDS, WORKITEM_OPS, Block,
                 Instr, Kernel, Opcode, Value)
from .ndrange import NDRange
from .types import BOOL, FLOAT32, INT32, AddressSpace, is_pointer

_UINT_MASK = 0xFFFFFFFF


def wrap32(x: int) -> int:
    """Wrap a Python int to signed 32-bit two's complement."""
    return ((int(x) + 2**31) & _UINT_MASK) - 2**31


def f32(x: float) -> float:
    """Round a Python float to IEEE-754 binary32 (as Python float)."""
    return float(np.float32(x))


@dataclass
class RunResult:
    """Output of an interpreter run (buffers are mutated in place)."""

    printf_output: list[str] = field(default_factory=list)
    op_counts: Counter = field(default_factory=Counter)
    items_executed: int = 0
    barriers_executed: int = 0

    @property
    def dynamic_instructions(self) -> int:
        return sum(self.op_counts.values())


# Semantic functions: operand values -> result. _bind binds the leading
# context of those that can fail: the kernel name, or for memory ops
# ``where = (kernel name, instruction)`` and the element conversion.


def _quotient(name: str, what: str, x: int, y: int) -> int:
    """C's quotient, truncated toward zero; undefined for ``y == 0``."""
    if y == 0:
        raise InterpreterError(f"{name}: integer {what} by zero")
    return int(math.trunc(x / y)) if (x < 0) != (y < 0) else x // y


def _fdiv(x: float, y: float) -> float:
    if y != 0.0:
        return f32(x / y)
    # IEEE 754: NaN or ±0 over ±0 is NaN; anything else is an infinity
    # signed by the XOR of the operand signs.
    return f32(math.nan if x != x or x == 0.0 else
               math.copysign(math.inf, x) * math.copysign(1.0, y))


def _fminmax(wins: Callable[[float, float], bool]):
    """SimX's (RISC-V) ``fmin.s``/``fmax.s``: ``x`` if ``wins(x, y)`` (−0.0
    orders below +0.0); one NaN operand yields the other, two yield NaN."""
    def op(x: float, y: float) -> float:
        if y != y:
            return f32(math.nan) if x != x else f32(x)
        return f32(x if wins(x, y) else y)
    return op


def _pow(x: float, y: float) -> float:
    try:
        return f32(math.pow(x, y))
    except (ValueError, OverflowError):
        return f32(math.nan)


def _ftoi(name: str, x: float) -> int:
    if math.isinf(x):
        raise InterpreterError(
            f"{name}: float-to-int conversion of {x} is undefined")
    return 0 if math.isnan(x) else wrap32(int(math.trunc(x)))


def _at(where: tuple[str, Instr], arr: np.ndarray, idx: int) -> int:
    """``idx`` if it is in bounds of ``arr``."""
    if not 0 <= idx < len(arr):
        name, ins = where
        raise InterpreterError(
            f"kernel {name}: out-of-bounds access index {idx} "
            f"(size {arr.shape[0]}) at '{ins.format()}'")
    return idx


def _atomic(update, where, conv, arr: np.ndarray, idx: int, *vals) -> Any:
    """Store ``update(old, *vals)`` unless it is None; return ``old``."""
    old = arr.item(_at(where, arr, idx))
    new = update(old, *vals)
    if new is not None:
        arr[idx] = conv(new)
    return old


def _printf(name: str, fmt: str, out: list[str], *vals: Any) -> None:
    try:
        out.append(fmt % vals)
    except (TypeError, ValueError) as exc:
        raise InterpreterError(
            f"{name}: bad printf format {fmt!r}: {exc}") from exc


_SEMANTICS: dict[Opcode, Callable[..., Any]] = {
    # Integer arithmetic with 32-bit wrap.
    Opcode.ADD: lambda x, y: wrap32(x + y),
    Opcode.SUB: lambda x, y: wrap32(x - y),
    Opcode.MUL: lambda x, y: wrap32(x * y),
    Opcode.DIV: lambda name, x, y: wrap32(_quotient(name, "division", x, y)),
    Opcode.REM: lambda name, x, y: wrap32(
        x - _quotient(name, "remainder", x, y) * y),
    Opcode.AND: lambda x, y: wrap32(x & y),
    Opcode.OR: lambda x, y: wrap32(x | y),
    Opcode.XOR: lambda x, y: wrap32(x ^ y),
    Opcode.SHL: lambda x, y: wrap32(x << (y & 31)),
    Opcode.ASHR: lambda x, y: wrap32(x >> (y & 31)),
    Opcode.LSHR: lambda x, y: wrap32((x & _UINT_MASK) >> (y & 31)),
    Opcode.IMIN: min,
    Opcode.IMAX: max,
    Opcode.IABS: lambda x: wrap32(abs(x)),
    # Float arithmetic, rounded to binary32 after each op.
    Opcode.FADD: lambda x, y: f32(x + y),
    Opcode.FSUB: lambda x, y: f32(x - y),
    Opcode.FMUL: lambda x, y: f32(x * y),
    Opcode.FDIV: _fdiv,
    Opcode.FNEG: lambda x: f32(-x),
    Opcode.SQRT: lambda x: f32(math.nan) if x < 0 else f32(math.sqrt(x)),
    # exp(x > 709) overflows binary64 (binary32 from x > 88.8).
    Opcode.EXP: lambda x: f32(math.inf) if x > 709 else f32(math.exp(x)),
    Opcode.LOG: lambda x: (f32(math.nan) if x < 0 else f32(-math.inf)
                           if x == 0 else f32(math.log(x))),
    # SimX's (numpy's) unary corners: sin/cos of ±inf are NaN, floor
    # keeps ±inf, NaN and the sign of ±0.
    Opcode.SIN: lambda x: f32(math.sin(x) if math.isfinite(x) else math.nan),
    Opcode.COS: lambda x: f32(math.cos(x) if math.isfinite(x) else math.nan),
    Opcode.FABS: lambda x: f32(abs(x)),
    Opcode.FLOOR: lambda x: f32(math.floor(x) if math.isfinite(x) and x
                                else x),
    Opcode.POW: _pow,
    Opcode.FMIN: _fminmax(lambda x, y: x < y or (
        x == y and math.copysign(1.0, x) < 0)),
    Opcode.FMAX: _fminmax(lambda x, y: x > y or (
        x == y and math.copysign(1.0, y) < 0)),
    # Selection and conversions (comparisons are in _COMPARE).
    Opcode.SELECT: lambda c, x, y: x if c else y,
    Opcode.SITOFP: lambda x: f32(float(x)),
    Opcode.FPTOSI: _ftoi,
    Opcode.ZEXT: lambda x: 1 if x else 0,
    # Memory and I/O.
    Opcode.LOAD: lambda where, conv, arr, i: arr.item(_at(where, arr, i)),
    Opcode.STORE: lambda where, conv, arr, i, val: operator.setitem(
        arr, _at(where, arr, i), conv(val)),
    Opcode.ATOMIC_ADD: partial(_atomic, operator.add),
    Opcode.ATOMIC_MIN: partial(_atomic, min),
    Opcode.ATOMIC_MAX: partial(_atomic, max),
    Opcode.ATOMIC_XCHG: partial(_atomic, lambda old, val: val),
    Opcode.ATOMIC_CAS: partial(_atomic, lambda old, expected, desired:
                               desired if old == expected else None),
    Opcode.PRINTF: _printf,
}

#: AND/OR/XOR on BOOL values are the logical operators.
_LOGICAL = {
    Opcode.AND: lambda x, y: bool(x) and bool(y),
    Opcode.OR: lambda x, y: bool(x) or bool(y),
    Opcode.XOR: lambda x, y: bool(x) != bool(y),
}

_COMPARE = dict(zip(ICMP_PREDS + FCMP_PREDS, 2 * (
    operator.eq, operator.ne, operator.lt, operator.le, operator.gt,
    operator.ge)))


def _bind(ins: Instr, name: str, out: list[str]) -> Callable[..., Any]:
    """The semantic function of one instruction, context bound."""
    op = ins.op
    if op is Opcode.ICMP or op is Opcode.FCMP:
        return _COMPARE[ins.attrs["pred"]]
    if ins.ty is BOOL and op in _LOGICAL:
        return _LOGICAL[op]
    fn = _SEMANTICS[op]
    if op in (Opcode.DIV, Opcode.REM, Opcode.FPTOSI):
        return partial(fn, name)
    if op in ATOMIC_OPS or op is Opcode.LOAD or op is Opcode.STORE:
        conv = wrap32 if ins.args[0].ty.element is INT32 else f32
        return partial(fn, (name, ins), conv)
    if op is Opcode.PRINTF:
        return partial(fn, name, ins.attrs["fmt"], out)
    return fn


def _step(fn: Callable[..., Any], d: int, srcs: list[int]):
    """The closure running one instruction: ``env[d] = fn(env[srcs])``."""
    if len(srcs) == 1:
        (a,) = srcs
        def step(env):
            env[d] = fn(env[a])
    elif len(srcs) == 2:
        a, b = srcs
        def step(env):
            env[d] = fn(env[a], env[b])
    elif len(srcs) == 3:
        a, b, c = srcs
        def step(env):
            env[d] = fn(env[a], env[b], env[c])
    else:
        def step(env):
            env[d] = fn(*[env[s] for s in srcs])
    return step


def _fail(msg: str):
    def fail(env):
        raise InterpreterError(msg)
    return fail


class _Program:
    """One kernel decoded for one launch (see the module docstring)."""

    def __init__(self, kernel: Kernel, args: list[Any], ndr: NDRange,
                 result: RunResult):
        self.kernel, self.ndr, self.result = kernel, ndr, result
        self.template, self.slots = [], {}  # env list; id(value) -> index
        for param, arg in zip(kernel.params, args):
            self.slot(param, arg if is_pointer(param.ty)
                      else f32(arg) if param.ty is FLOAT32
                      else bool(arg) if param.ty is BOOL else wrap32(arg))
        #: (slot, size, dtype) of the arrays each group / item allocates
        self.local_arrays, self.private_arrays = [], []
        for arr in kernel.arrays:
            dtype = np.int32 if arr.ty.element is INT32 else np.float32
            (self.local_arrays if arr.space is AddressSpace.LOCAL else
             self.private_arrays).append((self.slot(arr, None), arr.size,
                                          dtype))
        #: (slot, dim) of the ids each group / item fills in
        ids = {Opcode.GROUP_ID: [], Opcode.GID: [], Opcode.LID: []}
        sizes = {Opcode.LOCAL_SIZE: ndr.local_size, Opcode.NUM_GROUPS:
                 ndr.num_groups, Opcode.GLOBAL_SIZE: ndr.global_size}
        for ins in kernel.instructions():
            s = self.slot(ins, None)
            if ins.op in ids:
                ids[ins.op].append((s, ins.attrs["dim"]))
            elif ins.op in sizes:
                self.template[s] = sizes[ins.op][ins.attrs["dim"]]
        self.group_ids, self.global_ids, self.local_ids = ids.values()
        self.index = {id(b): i for i, b in enumerate(kernel.blocks)}
        self.entry = self._edge(None, kernel.entry)
        #: per block: (segments, cond slot, edges); a segment is (count,
        #: closures), a barrier ends all but the last; edges: see _edge
        self.blocks, self.histograms = [], []
        for block in kernel.blocks:
            histogram = Counter(ins.op for ins in block.phis())
            segments, steps, n = [], [], 0
            cond = edges = None
            for ins in block.non_phis():
                n += 1
                histogram[ins.op] += 1
                if ins.op is Opcode.BARRIER:
                    segments.append((n, tuple(steps)))
                    steps, n = [], 0
                elif ins.is_terminator:
                    if ins.op is not Opcode.RET:
                        edges = tuple(self._edge(block, t)
                                      for t in ins.targets)
                    if ins.op is Opcode.CBR:
                        cond = self.slot(ins.args[0])
                    break
                elif ins.op not in WORKITEM_OPS:
                    steps.append(_step(_bind(ins, kernel.name,
                                             result.printf_output),
                                       self.slot(ins),
                                       [self.slot(a) for a in ins.args]))
            else:  # pragma: no cover - validator guarantees a terminator
                steps.append(_fail(f"block {block.name} fell through"))
            segments.append((n, tuple(steps)))
            self.blocks.append((tuple(segments), cond, edges))
            self.histograms.append(tuple(histogram.items()))

    def slot(self, value: Value, *init: Any) -> int:
        """The env index of ``value``, added on first use with ``init``
        or, for a constant, its value."""
        idx = self.slots.get(id(value))
        if idx is None:
            idx = self.slots[id(value)] = len(self.template)
            self.template.append(init[0] if init else f32(value.value)
                                 if value.ty is FLOAT32 else value.value)
        return idx

    def _edge(self, pred: Block | None, block: Block):
        """(``block``'s index, the copy into its phis from ``pred`` or None)."""
        dsts, srcs = [], []
        for phi in block.phis():
            val = next((v for b, v in phi.attrs["incomings"] if b is pred),
                       None)
            if val is None:
                return self.index[id(block)], _fail(
                    f"{self.kernel.name}/{block.name}: phi %{phi.name} has "
                    f"no incoming for predecessor "
                    f"{pred.name if pred else '<entry>'}")
            dsts.append(self.slot(phi))
            srcs.append(self.slot(val))
        if len(dsts) == 1:
            (d,), (s,) = dsts, srcs
            def move(env):
                env[d] = env[s]
        elif dsts:
            get = operator.itemgetter(*srcs)
            def move(env):
                for d, v in zip(dsts, get(env)):
                    env[d] = v
        return self.index[id(block)], move if dsts else None

    def run_group(self, group: tuple[int, int, int], max_steps: int) -> None:
        ndr, result = self.ndr, self.result
        group_env = self.template.copy()
        for s, size, dtype in self.local_arrays:
            group_env[s] = np.zeros(size, dtype=dtype)
        for s, dim in self.group_ids:
            group_env[s] = group[dim]
        visits = [0] * len(self.blocks)
        gens: list[Iterator[None]] = []
        for local in ndr.local_items():
            gid = ndr.global_id(group, local)
            env = group_env.copy()
            for s, dim in self.global_ids:
                env[s] = gid[dim]
            for s, dim in self.local_ids:
                env[s] = local[dim]
            for s, size, dtype in self.private_arrays:
                env[s] = np.zeros(size, dtype=dtype)
            gens.append(self._run_item(env, visits, max_steps, gid))
            result.items_executed += 1

        # Lock-step between barriers.
        active = gens
        while active:
            at_barrier, done = [], []
            for gen in active:
                try:
                    next(gen)
                    at_barrier.append(gen)
                except StopIteration:
                    done.append(gen)
            if at_barrier and done:
                raise InterpreterError(
                    f"kernel {self.kernel.name}: barrier divergence in group "
                    f"{group} ({len(at_barrier)} items at a barrier, "
                    f"{len(done)} returned)")
            if at_barrier:
                result.barriers_executed += 1
            active = at_barrier

        counts = result.op_counts
        for n, histogram in zip(visits, self.histograms):
            if n:
                for op, k in histogram:
                    counts[op] += n * k

    def _run_item(self, env: list[Any], visits: list[int], max_steps: int,
                  gid: tuple[int, int, int]) -> Iterator[None]:
        blocks = self.blocks
        steps = 0
        bi, move = self.entry
        while True:
            if move is not None:
                move(env)
            segments, cond, edges = blocks[bi]
            visits[bi] += 1
            for k, (n, seg) in enumerate(segments):
                if k:
                    yield
                steps += n
                if steps > max_steps:
                    raise InterpreterError(
                        f"kernel {self.kernel.name}: work item {gid} "
                        f"exceeded {max_steps} steps (runaway loop?)")
                for step in seg:
                    step(env)
            if edges is None:
                return
            bi, move = edges[0] if cond is None or env[cond] else edges[1]


def _check_args(kernel: Kernel, args: list[Any]) -> None:
    if len(args) != len(kernel.params):
        raise RuntimeLaunchError(
            f"kernel {kernel.name} expects {len(kernel.params)} args, "
            f"got {len(args)}")
    for param, arg in zip(kernel.params, args):
        if not is_pointer(param.ty):
            if isinstance(arg, np.ndarray):
                raise RuntimeLaunchError(
                    f"arg {param.name!r} is scalar but got an array")
        elif not isinstance(arg, np.ndarray) or arg.ndim != 1:
            raise RuntimeLaunchError(
                f"arg {param.name!r} must be a 1-D numpy array")
        elif arg.dtype != (want := np.int32 if param.ty.element is INT32
                           else np.float32):
            raise RuntimeLaunchError(
                f"arg {param.name!r}: dtype {arg.dtype} != {np.dtype(want)}")


def interpret(
    kernel: Kernel,
    args: list[Any],
    ndrange: NDRange,
    max_steps_per_item: int = 2_000_000,
    profiler: Profiler | None = None,
) -> RunResult:
    """Execute ``kernel`` over ``ndrange``; mutates buffer args in place.

    When ``profiler`` is enabled, records the kernel's dynamic op mix,
    barrier counts and per-work-group spans on a timeline measured in
    dynamic instruction steps (the interpreter has no cycle clock).
    """
    _check_args(kernel, args)
    result = RunResult()
    prof = ensure_profiler(profiler)
    prog = _Program(kernel, args, ndrange, result)

    for group in ndrange.groups():
        if prof.enabled:
            steps_before = sum(result.op_counts.values())
            barriers_before = result.barriers_executed
        prog.run_group(group, max_steps_per_item)
        if prof.enabled:
            steps_after = sum(result.op_counts.values())
            prof.complete(
                f"group {group}", "interp.group", ts=steps_before,
                dur=steps_after - steps_before, pid=0, tid=0,
                args={"barriers": result.barriers_executed - barriers_before})
    if prof.enabled:
        _record_run(prof, kernel, ndrange, result)
    return result


def _record_run(prof: Profiler, kernel: Kernel, ndr: NDRange,
                result: RunResult) -> None:
    """Fold one interpreter run into profiler counters."""
    prof.name_process(0, f"interpreter: {kernel.name}")
    prof.name_thread(0, 0, "work-groups (timeline = dynamic instructions)")
    prof.count("interp.items_executed", result.items_executed)
    prof.count("interp.barriers_executed", result.barriers_executed)
    prof.count("interp.dynamic_instructions", result.dynamic_instructions)
    prof.count("interp.groups", len(list(ndr.groups())))
    for op, n in result.op_counts.items():
        prof.count(f"interp.op.{op.value}", n)
