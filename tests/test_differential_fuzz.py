"""Property-based differential testing: randomly generated kernels must
produce bit-identical results on the reference interpreter and the
Vortex cycle simulator (which executes compiled machine code).

The generator builds structured programs over mutable int variables:
arithmetic/bitwise expressions, divergent if/else regions, and bounded
divergent loops — exactly the constructs whose codegen (SPLIT/JOIN/PRED,
phi copies, register allocation) is most delicate.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.ocl import (
    Context,
    FLOAT32,
    GLOBAL_FLOAT32,
    GLOBAL_INT32,
    INT32,
    KernelBuilder,
    NDRange,
    interpret,
    validate,
)
from repro.vortex import VortexBackend, VortexConfig

N_ITEMS = 16
LOCAL = 8
CONFIG = VortexConfig(cores=2, warps=2, threads=4)

# -- program generator -------------------------------------------------------

_BINOPS = ("add", "sub", "mul", "and_", "or_", "xor", "min", "max")
_CMPS = ("lt", "le", "gt", "ge", "eq", "ne")


@st.composite
def programs(draw):
    """A program is a list of statements over 3 variables."""
    def stmts(depth):
        n = draw(st.integers(1, 4 if depth == 0 else 2))
        out = []
        for _ in range(n):
            kind = draw(st.sampled_from(
                ["assign", "assign", "assign", "if", "loop"]
                if depth < 2 else ["assign"]))
            if kind == "assign":
                out.append((
                    "assign",
                    draw(st.integers(0, 2)),  # target var
                    draw(st.sampled_from(_BINOPS)),
                    draw(st.integers(0, 3)),  # operand a (3 = gid)
                    draw(st.one_of(st.integers(0, 3),
                                   st.integers(-7, 7).map(lambda c: ("c", c)))),
                ))
            elif kind == "if":
                out.append((
                    "if",
                    draw(st.sampled_from(_CMPS)),
                    draw(st.integers(0, 3)),
                    draw(st.integers(-4, 4)),
                    stmts(depth + 1),
                    stmts(depth + 1) if draw(st.booleans()) else None,
                ))
            else:
                out.append((
                    "loop",
                    draw(st.integers(1, 3)),  # static trip count
                    stmts(depth + 1),
                ))
        return out

    return stmts(0)


def build_kernel(program):
    b = KernelBuilder("fuzz")
    out0 = b.param("out0", GLOBAL_INT32)
    out1 = b.param("out1", GLOBAL_INT32)
    out2 = b.param("out2", GLOBAL_INT32)
    gid = b.global_id(0)
    vars_ = [b.var(f"v{i}", INT32, init=i + 1) for i in range(3)]

    def operand(spec):
        if isinstance(spec, tuple) and spec[0] == "c":
            return b.const(spec[1])
        if spec == 3:
            return gid
        return vars_[spec].get()

    def emit(stmts):
        for s in stmts:
            if s[0] == "assign":
                _, tgt, op, a, c = s
                vars_[tgt].set(getattr(b, op)(operand(a), operand(c)))
            elif s[0] == "if":
                _, cmp_, a, c, then_s, else_s = s
                cond = getattr(b, cmp_)(operand(a), b.const(c))
                if else_s is None:
                    with b.if_(cond):
                        emit(then_s)
                else:
                    with b.if_else(cond) as (t, e):
                        with t:
                            emit(then_s)
                        with e:
                            emit(else_s)
            else:
                _, trips, body = s
                with b.for_range(0, trips):
                    emit(body)

    emit(program)
    for i, v in enumerate(vars_):
        b.store([out0, out1, out2][i], gid, v.get())
    return b.finish()


@given(programs())
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.data_too_large])
def test_random_programs_match(program):
    kernel = build_kernel(program)
    validate(kernel)

    ref = [np.zeros(N_ITEMS, dtype=np.int32) for _ in range(3)]
    interpret(kernel, list(ref), NDRange.create(N_ITEMS, 8))

    ctx = Context(VortexBackend(CONFIG))
    prog = ctx.program([kernel])
    bufs = [ctx.alloc(N_ITEMS, np.int32) for _ in range(3)]
    prog.launch("fuzz", bufs, N_ITEMS, 8)

    for r, buf in zip(ref, bufs):
        np.testing.assert_array_equal(buf.read(), r)


@given(programs())
@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.data_too_large])
def test_cse_preserves_semantics(program):
    """The optimizer pipeline (CSE + DCE on a clone) must not change
    observable behaviour of any generated program."""
    from repro.ocl.ir import clone_kernel
    from repro.passes import cse, dce

    kernel = build_kernel(program)
    optimized = clone_kernel(kernel)
    cse.run(optimized)
    dce.run(optimized)
    validate(optimized)

    ref = [np.zeros(N_ITEMS, dtype=np.int32) for _ in range(3)]
    opt = [np.zeros(N_ITEMS, dtype=np.int32) for _ in range(3)]
    interpret(kernel, list(ref), NDRange.create(N_ITEMS, 8))
    interpret(optimized, list(opt), NDRange.create(N_ITEMS, 8))
    for r, o in zip(ref, opt):
        np.testing.assert_array_equal(o, r)


# -- float32 arithmetic ------------------------------------------------------
#
# fadd/fsub/fmul/fmin/fmax over *finite* operands are bit-exact across the
# interpreter (binary32 rounding after every op) and SimX (numpy float32
# vector ALU): double rounding through float64 is innocuous for the basic
# operations (53 >= 2*24 + 2). Every assignment is clamped to +/-1e6 so no
# intermediate can reach infinity — keeping NaN (where Python's min and
# numpy's fmin legitimately disagree) out of the reachable value space.

_FLOAT_OPS = ("add", "sub", "mul", "min", "max")


@st.composite
def float_programs(draw):
    """Statements over 3 float vars; control flow stays on int gid."""
    def stmts(depth):
        n = draw(st.integers(1, 4 if depth == 0 else 2))
        out = []
        for _ in range(n):
            kind = draw(st.sampled_from(
                ["assign", "assign", "assign", "if", "loop"]
                if depth < 2 else ["assign"]))
            if kind == "assign":
                out.append((
                    "assign",
                    draw(st.integers(0, 2)),  # target var
                    draw(st.sampled_from(_FLOAT_OPS)),
                    draw(st.integers(0, 3)),  # operand a (3 = itof(gid))
                    draw(st.one_of(
                        st.integers(0, 3),
                        st.integers(-16, 16).map(lambda c: ("c", c / 4.0)),
                    )),
                ))
            elif kind == "if":
                out.append((
                    "if",
                    draw(st.sampled_from(_CMPS)),
                    draw(st.integers(-4, 4)),
                    stmts(depth + 1),
                    stmts(depth + 1) if draw(st.booleans()) else None,
                ))
            else:
                out.append(("loop", draw(st.integers(1, 3)), stmts(depth + 1)))
        return out

    return stmts(0)


def build_float_kernel(program):
    b = KernelBuilder("ffuzz")
    outs = [b.param(f"out{i}", GLOBAL_FLOAT32) for i in range(3)]
    gid = b.global_id(0)
    fgid = b.itof(gid)
    vars_ = [b.var(f"f{i}", FLOAT32, init=b.const(float(i + 1)))
             for i in range(3)]

    def operand(spec):
        if isinstance(spec, tuple) and spec[0] == "c":
            return b.const(spec[1])
        if spec == 3:
            return fgid
        return vars_[spec].get()

    def emit(stmts):
        for s in stmts:
            if s[0] == "assign":
                _, tgt, op, a, c = s
                val = getattr(b, op)(operand(a), operand(c))
                clamped = b.min(b.max(val, b.const(-1e6)), b.const(1e6))
                vars_[tgt].set(clamped)
            elif s[0] == "if":
                _, cmp_, c, then_s, else_s = s
                cond = getattr(b, cmp_)(gid, b.const(c))
                if else_s is None:
                    with b.if_(cond):
                        emit(then_s)
                else:
                    with b.if_else(cond) as (t, e):
                        with t:
                            emit(then_s)
                        with e:
                            emit(else_s)
            else:
                _, trips, body = s
                with b.for_range(0, trips):
                    emit(body)

    emit(program)
    for out, v in zip(outs, vars_):
        b.store(out, gid, v.get())
    return b.finish()


@given(float_programs())
@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.data_too_large])
def test_random_float_programs_match(program):
    kernel = build_float_kernel(program)
    validate(kernel)

    ref = [np.zeros(N_ITEMS, dtype=np.float32) for _ in range(3)]
    interpret(kernel, list(ref), NDRange.create(N_ITEMS, 8))

    ctx = Context(VortexBackend(CONFIG))
    prog = ctx.program([kernel])
    bufs = [ctx.alloc(N_ITEMS, np.float32) for _ in range(3)]
    prog.launch("ffuzz", bufs, N_ITEMS, 8)

    for r, buf in zip(ref, bufs):
        assert np.all(np.isfinite(r)), "clamping must keep values finite"
        np.testing.assert_array_equal(buf.read(), r)


# -- barrier / local-memory kernels ------------------------------------------
#
# Rounds of store-to-local / barrier / read-back exercise warp-set dispatch,
# barrier synchronization and local-memory addressing. Barriers must stay in
# uniform control flow (the validator rejects divergent barriers), so the
# generated structure is fixed and only the data movement varies.

_MIX_OPS = ("add", "xor", "min", "max")


@st.composite
def barrier_programs(draw):
    rounds = draw(st.integers(1, 3))
    return [
        {
            "scale": draw(st.integers(-3, 3)),
            "offset": draw(st.integers(0, LOCAL - 1)),
            "op": draw(st.sampled_from(_MIX_OPS)),
        }
        for _ in range(rounds)
    ]


def build_barrier_kernel(rounds):
    b = KernelBuilder("bfuzz")
    out = b.param("out", GLOBAL_INT32)
    lmem = b.local_array("lmem", INT32, LOCAL)
    gid = b.global_id(0)
    lid = b.local_id(0)
    acc = b.var("acc", INT32, init=gid)
    for spec in rounds:
        b.store(lmem, lid, b.add(b.mul(acc.get(), spec["scale"]), gid))
        b.barrier()
        neighbour = b.load(lmem, b.rem(b.add(lid, spec["offset"]),
                                       b.const(LOCAL)))
        acc.set(getattr(b, spec["op"])(acc.get(), neighbour))
        # the next round's store must not race this round's reads
        b.barrier()
    b.store(out, gid, acc.get())
    return b.finish()


@given(barrier_programs())
@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.data_too_large])
def test_barrier_local_memory_match(rounds):
    kernel = build_barrier_kernel(rounds)
    validate(kernel)

    ref = np.zeros(N_ITEMS, dtype=np.int32)
    interpret(kernel, [ref], NDRange.create(N_ITEMS, LOCAL))

    ctx = Context(VortexBackend(CONFIG))
    prog = ctx.program([kernel])
    buf = ctx.alloc(N_ITEMS, np.int32)
    prog.launch("bfuzz", [buf], N_ITEMS, LOCAL)
    np.testing.assert_array_equal(buf.read(), ref)


@given(st.integers(0, 2**32 - 1), st.integers(1, 31))
@settings(max_examples=30, deadline=None)
def test_shift_semantics_match(value, amount):
    """Shifts are a classic codegen/simulator divergence spot."""
    b = KernelBuilder("shifty")
    out = b.param("out", GLOBAL_INT32)
    v = b.const(value - 2**31)
    b.store(out, 0, b.shl(v, amount))
    b.store(out, 1, b.ashr(v, amount))
    b.store(out, 2, b.lshr(v, amount))
    kernel = b.finish()

    ref = np.zeros(4, dtype=np.int32)
    interpret(kernel, [ref], NDRange.create(1))
    ctx = Context(VortexBackend(CONFIG))
    prog = ctx.program([kernel])
    buf = ctx.alloc(4, np.int32)
    prog.launch("shifty", [buf], 1, 1)
    np.testing.assert_array_equal(buf.read(), ref)


# -- IEEE corner cases ---------------------------------------------------------

_CORNERS = np.array([np.nan, 0.0, -0.0, 1.0, -1.0, np.inf, -np.inf, 2.5],
                    dtype=np.float32)


def _assert_corners_match_simx(ops, operands):
    """Run ``b.<op>(*loaded operands)`` for each op on the interpreter
    and on SimX. Where SimX's result is a number the interpreter's must
    have the same bits; where it is NaN only NaN-ness is compared,
    because numpy's 0/0 carries the host's default NaN rather than
    RISC-V's canonical one."""
    b = KernelBuilder("fcorner")
    ins = [b.param(f"in{i}", GLOBAL_FLOAT32) for i in range(len(operands))]
    outs = [b.param(op, GLOBAL_FLOAT32) for op in ops]
    gid = b.global_id(0)
    vals = [b.load(p, gid) for p in ins]
    for out, op in zip(outs, ops):
        b.store(out, gid, getattr(b, op)(*vals))
    kernel = b.finish()
    n = len(operands[0])

    ref = [np.zeros(n, dtype=np.float32) for _ in outs]
    interpret(kernel, [a.copy() for a in operands] + ref,
              NDRange.create(n, 8))

    ctx = Context(VortexBackend(VortexConfig(cores=1, warps=2, threads=4)))
    prog = ctx.program([kernel])
    bufs = [ctx.alloc(n, np.float32) for _ in outs]
    prog.launch("fcorner", [ctx.buffer(a) for a in operands] + bufs, n, 8)

    for op, r, buf in zip(ops, ref, bufs):
        sim = buf.read()
        nan = np.isnan(sim)
        np.testing.assert_array_equal(np.isnan(r), nan, err_msg=op)
        np.testing.assert_array_equal(
            r[~nan].view(np.uint32), sim[~nan].view(np.uint32),
            err_msg=f"{op}: {[a[~nan] for a in operands]}")


def test_float_corner_cases_match_simx():
    """fmin, fmax and fdiv over every pair of IEEE corner operands."""
    _assert_corners_match_simx(
        ("min", "max", "div"),
        [np.repeat(_CORNERS, 8), np.tile(_CORNERS, 8)])


def test_unary_float_corner_cases_match_simx():
    """sqrt, exp, log, sin, cos and floor of every IEEE corner operand."""
    _assert_corners_match_simx(
        ("sqrt", "exp", "log", "sin", "cos", "floor"), [_CORNERS])


def test_float_to_int_corners():
    """``ftoi`` (SimX's ``fcvt.w.s``) truncates, and a finite value out
    of int32 range wraps modulo 2**32 on both executors, bit for bit;
    NaN gives 0. On ±inf, where the interpreter raises, SimX saturates
    to INT32_MAX/INT32_MIN as RISC-V does, on every host."""
    b = KernelBuilder("ftoi")
    src = b.param("src", GLOBAL_FLOAT32)
    out = b.param("out", GLOBAL_INT32)
    gid = b.global_id(0)
    b.store(out, gid, b.ftoi(b.load(src, gid)))
    kernel = b.finish()
    finite = np.array([2.5, -2.5, 2**31, -2**31, 3e9, -3e9, 5e9, 1e20,
                       -1e20, np.nan], dtype=np.float32)
    values = np.concatenate([finite, [np.inf, -np.inf]]).astype(np.float32)

    ref = np.zeros(len(finite), dtype=np.int32)
    interpret(kernel, [finite.copy(), ref], NDRange.create(len(finite), 2))

    ctx = Context(VortexBackend(VortexConfig(cores=1, warps=2, threads=4)))
    prog = ctx.program([kernel])
    buf = ctx.alloc(len(values), np.int32)
    prog.launch("ftoi", [ctx.buffer(values), buf], len(values), 4)
    sim = buf.read()
    np.testing.assert_array_equal(sim[:len(finite)], ref)
    assert sim[-2:].tolist() == [2**31 - 1, -2**31]
