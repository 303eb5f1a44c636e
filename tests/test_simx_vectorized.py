"""Differential property tests for the vectorized SimX execution path.

The decoded handlers execute whole warp rows with numpy (taking unmasked
fast paths when every lane is active); a per-lane scalar reference path
is kept behind ``REPRO_SIMX_SCALAR=1`` exactly for this check. Random
kernels — arithmetic over int/float variables with divergent if/else
regions and loops, i.e. the constructs that produce partial thread
masks — must leave bit-identical device memory, register files and
timing under both paths. Below the program level, every compute
handler is applied by both tables to copies of one random warp state.
The decode-once instruction cache is also property-checked: every
static instruction must be fetchable from the shared per-PC table.
"""

import copy
import os

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.ocl import (
    Context,
    GLOBAL_FLOAT32,
    GLOBAL_INT32,
    FLOAT32,
    INT32,
    KernelBuilder,
    NDRange,
)
from repro.vortex import VortexBackend, VortexConfig
from repro.vortex.isa import Instruction
from repro.vortex.simx.decode import (
    _COMPUTE,
    SCALAR_ENV,
    SCALAR_TABLE,
    VECTOR_TABLE,
    decode_one,
    scalar_path_enabled,
)
from repro.vortex.simx.machine import Machine
from repro.vortex.simx.warp import Warp

N_ITEMS = 16
LOCAL = 8
CONFIG = VortexConfig(cores=2, warps=2, threads=4)

_BINOPS = ("add", "sub", "mul", "and_", "or_", "xor", "min", "max")
_FLOAT_OPS = ("add", "sub", "mul", "min", "max")
_CMPS = ("lt", "le", "gt", "ge", "eq", "ne")


# -- program generator (divergence-heavy) ------------------------------------


@st.composite
def programs(draw, float_ops=False):
    """Statements over 2 variables; if/else and loops diverge on gid."""
    ops = _FLOAT_OPS if float_ops else _BINOPS

    def stmts(depth):
        n = draw(st.integers(1, 3 if depth == 0 else 2))
        out = []
        for _ in range(n):
            kind = draw(st.sampled_from(
                ["assign", "assign", "if", "loop"] if depth < 2
                else ["assign"]))
            if kind == "assign":
                out.append((
                    "assign",
                    draw(st.integers(0, 1)),
                    draw(st.sampled_from(ops)),
                    draw(st.integers(0, 2)),  # 2 = gid
                    draw(st.one_of(
                        st.integers(0, 2),
                        st.integers(-8, 8).map(lambda c: ("c", c)),
                    )),
                ))
            elif kind == "if":
                out.append((
                    "if",
                    draw(st.sampled_from(_CMPS)),
                    draw(st.integers(-4, N_ITEMS + 2)),
                    stmts(depth + 1),
                    stmts(depth + 1) if draw(st.booleans()) else None,
                ))
            else:
                out.append(("loop", draw(st.integers(1, 3)),
                            stmts(depth + 1)))
        return out

    return stmts(0)


def build_kernel(program, float_ops=False):
    ty, gty = (FLOAT32, GLOBAL_FLOAT32) if float_ops else (INT32, GLOBAL_INT32)
    b = KernelBuilder("diff")
    out0 = b.param("out0", gty)
    out1 = b.param("out1", gty)
    gid = b.global_id(0)

    def lift(c):
        return b.itof(b.const(c)) if float_ops else b.const(c)

    vars_ = [b.var(f"v{i}", ty) for i in range(2)]
    for i, v in enumerate(vars_):
        v.set(lift(i + 1))

    def operand(spec):
        if isinstance(spec, tuple) and spec[0] == "c":
            return lift(spec[1])
        if spec == 2:
            return b.itof(gid) if float_ops else gid
        return vars_[spec].get()

    def emit(stmts):
        for s in stmts:
            if s[0] == "assign":
                _, tgt, op, a, c = s
                val = getattr(b, op)(operand(a), operand(c))
                if float_ops:
                    # keep every value finite: clamp to +/-1e6
                    val = b.min(b.max(val, lift(-10 ** 6)), lift(10 ** 6))
                vars_[tgt].set(val)
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
    b.store(out0, gid, vars_[0].get())
    b.store(out1, gid, vars_[1].get())
    return b.finish()


# -- execution capture -------------------------------------------------------


class _Capture:
    """launch_hook: snapshot device memory and register files."""

    def __call__(self, machine: Machine, result) -> None:
        self.memory = machine.memory.data.copy()
        self.cycles = result.cycles
        self.instructions = result.instructions
        self.x = np.stack([w.x for c in machine.cores for w in c.warps])
        self.f = np.stack([w.f for c in machine.cores for w in c.warps])


def _run(kernel, scalar: bool, float_ops=False, config=CONFIG,
         local=LOCAL):
    cap = _Capture()
    backend = VortexBackend(config, launch_hook=cap)
    old = os.environ.get(SCALAR_ENV)
    os.environ[SCALAR_ENV] = "1" if scalar else "0"
    try:
        assert scalar_path_enabled() is scalar
        ctx = Context(backend)
        prog = ctx.program([kernel])
        dtype = np.float32 if float_ops else np.int32
        bufs = [ctx.alloc(N_ITEMS, dtype) for _ in range(2)]
        prog.launch("diff", bufs, N_ITEMS, local)
        outs = [b.read().copy() for b in bufs]
    finally:
        if old is None:
            del os.environ[SCALAR_ENV]
        else:
            os.environ[SCALAR_ENV] = old
    return cap, outs


def _assert_identical(kernel, float_ops=False, config=CONFIG, local=LOCAL):
    vec, vec_outs = _run(kernel, scalar=False, float_ops=float_ops,
                         config=config, local=local)
    sca, sca_outs = _run(kernel, scalar=True, float_ops=float_ops,
                         config=config, local=local)
    for v, s in zip(vec_outs, sca_outs):
        np.testing.assert_array_equal(v, s)
    # Full device memory and every warp's register file must match
    # bit-for-bit — inactive lanes included.
    assert np.array_equal(vec.memory, sca.memory)
    np.testing.assert_array_equal(vec.x, sca.x)
    np.testing.assert_array_equal(
        vec.f.view(np.int32), sca.f.view(np.int32))
    # The scalar path only changes *how* lanes execute, never the
    # timing model: cycle counts must agree exactly.
    assert vec.cycles == sca.cycles
    assert vec.instructions == sca.instructions
    # x0 is architecturally zero; no handler may ever write it.
    assert (vec.x[:, 0, :] == 0).all()
    assert (sca.x[:, 0, :] == 0).all()


# -- properties --------------------------------------------------------------


@given(programs())
@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.data_too_large])
def test_scalar_vector_identical_int(program):
    _assert_identical(build_kernel(program))


@given(programs(float_ops=True))
# fmax.s of -0.0 and +0.0: RISC-V orders -0.0 below +0.0 on every path.
@example([("assign", 0, "add", 0, ("c", -2)),
          ("if", "lt", 2, [("loop", 2, [("assign", 1, "max", 0, ("c", 0)),
                                        ("assign", 0, "mul", 0, 1)])],
           None)])
@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.data_too_large])
def test_scalar_vector_identical_float(program):
    _assert_identical(build_kernel(program, float_ops=True),
                      float_ops=True)


@given(programs())
@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.data_too_large])
def test_decode_cache_covers_program(program):
    """Every static instruction is fetchable from the decode-once cache,
    the cache is shared by all cores, and cached entries are what the
    fetch path returns (identity, not just equality)."""
    kernel = build_kernel(program)
    backend = VortexBackend(CONFIG)
    ndrange = NDRange.create(N_ITEMS, LOCAL)
    image = backend.compile_for(kernel, ndrange)
    machine = Machine(CONFIG)
    machine.load_image(image)
    base = machine.program.code_base
    assert len(machine._code) == len(machine.program.instructions)
    for i in range(len(machine.program.instructions)):
        pc = base + 4 * i
        d = machine._code[pc]
        assert machine.fetch(pc) is d
        assert machine.cores[0]._fetch(pc) is d
        assert d.pc == pc
    for core in machine.cores:
        assert core._code is machine._code


@given(programs())
@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.data_too_large])
def test_scalar_vector_identical_narrow_warps(program):
    """One- and two-lane warps run the same numpy handlers as wide ones,
    and so do the multi-beat 8- and 16-lane warps of Fig. 7; a masked
    row of a single lane must still match the per-lane scalar reference
    in memory, registers and timing."""
    kernel = build_kernel(program)
    for threads in (1, 2, 8, 16):
        _assert_identical(
            kernel, config=VortexConfig(cores=2, warps=2, threads=threads),
            local=2)


def test_scalar_env_parsing(monkeypatch):
    monkeypatch.delenv(SCALAR_ENV, raising=False)
    assert scalar_path_enabled() is False
    monkeypatch.setenv(SCALAR_ENV, "0")
    assert scalar_path_enabled() is False
    monkeypatch.setenv(SCALAR_ENV, "1")
    assert scalar_path_enabled() is True


# -- handler level -----------------------------------------------------------

#: int operands that hit the division, shift and overflow corners.
_INT_EDGES = np.array([0, 1, -1, 2, 31, 32, 33, -2**31, 2**31 - 1],
                      dtype=np.int32)
#: float operands: signed zeros, infinities, NaN and inexact values.
_FLOAT_EDGES = np.array([0.0, -0.0, 1.0, -1.0, 2.5, -2.5, 3e9, -1e20,
                         np.inf, -np.inf, np.nan], dtype=np.float32)


def _random_warp(rng, threads):
    warp = Warp(0, threads)
    warp.x[:] = np.where(
        rng.random(warp.x.shape) < 0.3,
        rng.choice(_INT_EDGES, warp.x.shape),
        rng.integers(-2**31, 2**31, warp.x.shape, dtype=np.int64))
    warp.x[0] = 0
    warp.f[:] = np.where(
        rng.random(warp.f.shape) < 0.3,
        rng.choice(_FLOAT_EDGES, warp.f.shape),
        rng.standard_normal(warp.f.shape) * 1e3)
    warp.tmask = (np.ones(threads, dtype=bool) if rng.random() < 0.5
                  else rng.random(threads) < 0.5)
    warp.tmask[rng.integers(threads)] = True  # a warp issues with a lane
    warp._full = bool(warp.tmask.all())
    warp.scoreboard = rng.integers(0, 50, 64).tolist()
    warp.pc = 0x1000
    warp.bind_rows()
    return warp


@pytest.mark.parametrize("mnemonic", sorted(_COMPUTE))
def test_every_compute_handler_matches_scalar_reference(mnemonic):
    """Reg-reg, reg-immediate and one-source handlers write the same
    bits as the per-lane reference, masked or not, at every width,
    including when rd aliases a source."""
    rng = np.random.default_rng(sorted(_COMPUTE).index(mnemonic))
    shape = _COMPUTE[mnemonic][0]
    for threads in (1, 2, 4, 8, 16):
        config = VortexConfig(cores=1, warps=1, threads=threads)
        for _ in range(12):
            rs1, rs2, rd = (int(r) for r in rng.integers(0, 32, 3))
            if rng.random() < 0.3:
                rd = rs1 if rng.random() < 0.5 else rs2
            imm = (int(rng.integers(0, 32)) if mnemonic in (
                "slli", "srli", "srai") else int(rng.integers(-2048, 2048)))
            ins = Instruction(mnemonic, rd=rd, rs1=rs1, rs2=rs2,
                              imm=imm if shape == "ri" else 0)
            vec = _random_warp(rng, threads)
            sca = copy.deepcopy(vec)
            sca.bind_rows()
            dv = decode_one(ins, 0x1000, config, VECTOR_TABLE)
            ds = decode_one(ins, 0x1000, config, SCALAR_TABLE)
            with np.errstate(all="ignore"):
                dv.handler(None, vec, dv, 7)
                ds.handler(None, sca, ds, 7)
            where = f"{ins!r} T={threads} mask={vec.tmask}"
            np.testing.assert_array_equal(vec.x, sca.x, err_msg=where)
            np.testing.assert_array_equal(
                vec.f.view(np.int32), sca.f.view(np.int32), err_msg=where)
            assert vec.scoreboard == sca.scoreboard, where
            if dv.wb >= 0:
                assert vec.scoreboard[dv.wb] == 7 + dv.latency, where
            assert vec.pc == sca.pc == 0x1004
            assert (vec.x[0] == 0).all()
