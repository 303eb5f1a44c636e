"""Decode-once instruction cache for the SimX hot loop.

When a kernel image is loaded, every static instruction is compiled
into a :class:`DecodedInstr` — a flat record holding the pre-resolved
handler function, operand registers, immediate constants already cast
to their numpy types, the absolute jump/branch target (PCs are static,
so ``auipc``/``jal``/branch arithmetic folds away entirely) and the
writeback latency for the machine configuration. The issue stage then
costs one list index and one indirect call per dynamic instruction.

Two handler tables implement the compute instructions:

* ``VECTOR_TABLE`` — production. Each handler executes the whole warp
  row with numpy in one of two forms, chosen by ``Warp._full``: a
  whole-row write while every lane is active, a masked
  ``np.copyto(..., where=tmask)`` otherwise. No handler forks on warp
  width.
* ``SCALAR_TABLE`` — a per-lane Python reference, selected with
  ``REPRO_SIMX_SCALAR=1`` and used only as a differential oracle.

The property tests in ``tests/test_simx_vectorized.py`` drive random
divergent kernels through both tables and require bit-identical
memory, registers and timing. Each scalar handler loops over the active
lanes applying the *same* arithmetic kernel to one-element slices, so
any divergence isolates a masking/vectorization bug rather than a
numerics difference.
"""

from __future__ import annotations

import os

import numpy as np

from ...errors import SimulationError
from ..asm import Program
from ..isa import Instruction
from .config import VortexConfig
from .core import Core, InstrMeta, _sdiv, _srem, instr_meta

#: Environment variable selecting the scalar reference path.
SCALAR_ENV = "REPRO_SIMX_SCALAR"

_SIGN_BIT = np.int32(-(2**31))


def _i32(value: int) -> np.int32:
    """Wrap a Python int to signed 32-bit."""
    value &= 0xFFFFFFFF
    if value >= 2**31:
        value -= 2**32
    return np.int32(value)


class DecodedInstr:
    """One statically-decoded instruction (the per-PC cache entry)."""

    __slots__ = (
        "ins", "mnemonic", "pc",
        "rs1", "rs2", "rd", "imm", "imm64",
        "is_mem", "is_simt",
        "srcs_x", "srcs_f",
        "wb_x", "wb_f", "latency",
        "handler", "op", "val", "target", "aux",
    )

    def __init__(self, ins: Instruction, meta: InstrMeta, pc: int,
                 latency: int):
        self.ins = ins
        self.mnemonic = ins.mnemonic
        self.pc = pc
        self.rs1 = ins.rs1
        self.rs2 = ins.rs2
        self.rd = ins.rd
        self.imm = ins.imm
        #: immediate as a numpy int64 scalar: ``int32_row + imm64``
        #: upcasts to int64 in one ufunc call (the LSU address path).
        self.imm64 = np.int64(ins.imm)
        self.is_mem = meta.is_mem
        self.is_simt = meta.kind == "simt"
        self.srcs_x = meta.srcs_x
        self.srcs_f = meta.srcs_f
        self.wb_x = meta.dst[1] if meta.dst and meta.dst[0] == "x" else -1
        self.wb_f = meta.dst[1] if meta.dst and meta.dst[0] == "f" else -1
        self.latency = latency
        self.handler = None
        self.op = None
        self.val = None
        self.target = 0
        self.aux = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<DecodedInstr {self.mnemonic} @ {self.pc:#x}>"


# ---------------------------------------------------------------------------
# Arithmetic kernels (shared by the vector and scalar paths; the RISC-V
# M-extension division corner cases live in ``core._sdiv``/``core._srem``).
# ---------------------------------------------------------------------------


_INT_BIN_OPS = {
    "add": lambda a, b: a + b,
    "sub": lambda a, b: a - b,
    "sll": lambda a, b: a << (b & 31),
    "slt": lambda a, b: (a < b).astype(np.int32),
    "sltu": lambda a, b: (a.view(np.uint32) < b.view(np.uint32)).astype(
        np.int32),
    "xor": lambda a, b: a ^ b,
    "srl": lambda a, b: (a.view(np.uint32)
                         >> (b & 31).view(np.uint32)).view(np.int32),
    "sra": lambda a, b: a >> (b & 31),
    "or": lambda a, b: a | b,
    "and": lambda a, b: a & b,
    "mul": lambda a, b: (a.astype(np.int64) * b.astype(np.int64)).astype(
        np.int32),
    "mulh": lambda a, b: ((a.astype(np.int64) * b.astype(np.int64))
                          >> 32).astype(np.int32),
    "div": _sdiv,
    "rem": _srem,
}


def _make_imm_op(m: str, imm: int):
    """One-argument closure with the immediate pre-cast to numpy."""
    if m == "addi":
        c = np.int32(imm)
        return lambda a: a + c
    if m == "slti":
        c = np.int32(imm)
        return lambda a: (a < c).astype(np.int32)
    if m == "sltiu":
        c = np.uint32(imm & 0xFFFFFFFF)
        return lambda a: (a.view(np.uint32) < c).astype(np.int32)
    if m == "xori":
        c = np.int32(imm)
        return lambda a: a ^ c
    if m == "ori":
        c = np.int32(imm)
        return lambda a: a | c
    if m == "andi":
        c = np.int32(imm)
        return lambda a: a & c
    if m == "slli":
        s = imm & 31
        return lambda a: a << s
    if m == "srli":
        s = np.uint32(imm & 31)
        return lambda a: (a.view(np.uint32) >> s).view(np.int32)
    if m == "srai":
        s = imm & 31
        return lambda a: a >> s
    raise SimulationError(f"bad int immop {m}")  # pragma: no cover


#: RISC-V's canonical NaN (quiet, positive, zero payload).
_CANONICAL_NAN = np.array(0x7FC00000, dtype=np.int32).view(np.float32)


def _fminmax(take_a):
    """RISC-V ``fmin.s``/``fmax.s``: ``take_a(a, b)`` marks the lanes
    where ``a`` wins on ordered operands (−0.0 orders below +0.0); one
    NaN operand yields the other, two yield the canonical NaN. Unlike
    ``np.fmin``/``np.fmax``, whose signed-zero pick differs between
    numpy's 1-lane and SIMD loops, every path gets the same bits."""
    def op(a, b):
        out = np.where(take_a(a, b) | np.isnan(b), a, b)
        return np.where(np.isnan(a) & np.isnan(b), _CANONICAL_NAN, out)
    return op


_FLOAT_BIN_OPS = {
    "fadd.s": lambda a, b: a + b,
    "fsub.s": lambda a, b: a - b,
    "fmul.s": lambda a, b: a * b,
    "fdiv.s": lambda a, b: a / b,
    "fmin.s": _fminmax(lambda a, b: (a < b) | ((a == b) & np.signbit(a))),
    "fmax.s": _fminmax(lambda a, b: (a > b) | ((a == b) & np.signbit(b))),
    "fpow.s": lambda a, b: np.power(a.astype(np.float64),
                                    b.astype(np.float64)).astype(np.float32),
    "fsgnj.s": lambda a, b: ((a.view(np.int32) & 0x7FFFFFFF)
                             | (b.view(np.int32) & _SIGN_BIT)).view(
                                 np.float32),
    "fsgnjn.s": lambda a, b: ((a.view(np.int32) & 0x7FFFFFFF)
                              | (~b.view(np.int32) & _SIGN_BIT)).view(
                                  np.float32),
    "fsgnjx.s": lambda a, b: (a.view(np.int32)
                              ^ (b.view(np.int32) & _SIGN_BIT)).view(
                                  np.float32),
}

_FLOAT_UN_OPS = {
    "fsqrt.s": np.sqrt,
    "fexp.s": lambda a: np.exp(a.astype(np.float64)).astype(np.float32),
    "flog.s": lambda a: np.log(a.astype(np.float64)).astype(np.float32),
    "fsin.s": lambda a: np.sin(a.astype(np.float64)).astype(np.float32),
    "fcos.s": lambda a: np.cos(a.astype(np.float64)).astype(np.float32),
    "ffloor.s": np.floor,
}

_FLOAT_CMP_OPS = {
    "feq.s": lambda a, b: (a == b).astype(np.int32),
    "flt.s": lambda a, b: (a < b).astype(np.int32),
    "fle.s": lambda a, b: (a <= b).astype(np.int32),
}

_BRANCH_OPS = {
    "beq": lambda a, b: a == b,
    "bne": lambda a, b: a != b,
    "blt": lambda a, b: a < b,
    "bge": lambda a, b: a >= b,
    "bltu": lambda a, b: a.view(np.uint32) < b.view(np.uint32),
    "bgeu": lambda a, b: a.view(np.uint32) >= b.view(np.uint32),
}


def _fcvt_w_s(a: np.ndarray) -> np.ndarray:
    v = a.astype(np.float64)
    v = np.where(np.isnan(v), 0.0, v)
    return np.trunc(v).astype(np.int64).astype(np.int32)


# ---------------------------------------------------------------------------
# Vectorized handlers. Signature: handler(core, warp, d, now).
#
# The issue stage (Core.tick) has already set ``warp.ready_at``; each
# handler advances the PC, performs the masked register writes, and
# books the scoreboard writeback. Writes to x0 are impossible by
# construction (``wb_x``/masked-write guards), so the defensive
# ``x[0] = 0`` of the old interpreter loop is gone from the hot path
# (the property tests assert x0 stays zero).
# ---------------------------------------------------------------------------


def _v_int_bin(core, warp, d, now):
    if d.wb_x >= 0:
        x = warp.x
        if warp._full:
            x[d.wb_x] = d.op(x[d.rs1], x[d.rs2])
        else:
            np.copyto(x[d.wb_x], d.op(x[d.rs1], x[d.rs2]),
                      where=warp.tmask)
        warp.x_ready[d.wb_x] = now + d.latency
    warp.pc += 4


def _v_int_imm(core, warp, d, now):
    if d.wb_x >= 0:
        x = warp.x
        if warp._full:
            x[d.wb_x] = d.op(x[d.rs1])
        else:
            np.copyto(x[d.wb_x], d.op(x[d.rs1]), where=warp.tmask)
        warp.x_ready[d.wb_x] = now + d.latency
    warp.pc += 4


def _v_const(core, warp, d, now):
    # lui / auipc / jal-link: the written value is static per PC.
    if d.wb_x >= 0:
        if warp._full:
            warp.x[d.wb_x] = d.val
        else:
            warp.x[d.wb_x][warp.tmask] = d.val
        warp.x_ready[d.wb_x] = now + d.latency
    warp.pc += 4


def _v_jal(core, warp, d, now):
    if d.wb_x >= 0:
        if warp._full:
            warp.x[d.wb_x] = d.val
        else:
            warp.x[d.wb_x][warp.tmask] = d.val
        warp.x_ready[d.wb_x] = now + d.latency
    warp.pc = d.target


def _v_jalr(core, warp, d, now):
    x = warp.x
    target = core._uniform_value(warp, x[d.rs1] + d.imm)
    if d.wb_x >= 0:
        if warp._full:
            x[d.wb_x] = d.val
        else:
            x[d.wb_x][warp.tmask] = d.val
        warp.x_ready[d.wb_x] = now + d.latency
    warp.pc = int(target) & ~1


def _v_branch(core, warp, d, now):
    cond = d.op(warp.x[d.rs1], warp.x[d.rs2])
    active = cond if warp._full else cond[warp.tmask]
    if len(active) == 0:
        raise SimulationError(
            f"core {core.cid} warp {warp.wid}: branch with empty mask "
            f"at pc {warp.pc:#x}"
        )
    if active.all():
        warp.pc = d.target
    elif not active.any():
        warp.pc += 4
    else:
        raise SimulationError(
            f"core {core.cid} warp {warp.wid}: divergent branch executed "
            f"without SPLIT at pc {warp.pc:#x} (miscompiled kernel)"
        )


def _v_csr(core, warp, d, now):
    val = core._read_csr(warp, d.imm)
    if d.wb_x >= 0:
        if warp._full:
            warp.x[d.wb_x] = val
        else:
            np.copyto(warp.x[d.wb_x], val, where=warp.tmask)
        warp.x_ready[d.wb_x] = now + d.latency
    warp.pc += 4


def _v_fpu_bin(core, warp, d, now):
    f = warp.f
    if warp._full:
        f[d.wb_f] = d.op(f[d.rs1], f[d.rs2])
    else:
        np.copyto(f[d.wb_f], d.op(f[d.rs1], f[d.rs2]), where=warp.tmask)
    warp.f_ready[d.wb_f] = now + d.latency
    warp.pc += 4


def _v_fpu_un(core, warp, d, now):
    f = warp.f
    if warp._full:
        f[d.wb_f] = d.op(f[d.rs1])
    else:
        np.copyto(f[d.wb_f], d.op(f[d.rs1]), where=warp.tmask)
    warp.f_ready[d.wb_f] = now + d.latency
    warp.pc += 4


def _v_fcmp(core, warp, d, now):
    if d.wb_x >= 0:
        f = warp.f
        if warp._full:
            warp.x[d.wb_x] = d.op(f[d.rs1], f[d.rs2])
        else:
            np.copyto(warp.x[d.wb_x], d.op(f[d.rs1], f[d.rs2]),
                      where=warp.tmask)
        warp.x_ready[d.wb_x] = now + d.latency
    warp.pc += 4


def _v_f2x(core, warp, d, now):
    # fcvt.w.s / fmv.x.w: float register source, int register dest.
    if d.wb_x >= 0:
        if warp._full:
            warp.x[d.wb_x] = d.op(warp.f[d.rs1])
        else:
            np.copyto(warp.x[d.wb_x], d.op(warp.f[d.rs1]),
                      where=warp.tmask)
        warp.x_ready[d.wb_x] = now + d.latency
    warp.pc += 4


def _v_x2f(core, warp, d, now):
    # fcvt.s.w / fmv.w.x: int register source, float register dest.
    if warp._full:
        warp.f[d.wb_f] = d.op(warp.x[d.rs1])
    else:
        np.copyto(warp.f[d.wb_f], d.op(warp.x[d.rs1]), where=warp.tmask)
    warp.f_ready[d.wb_f] = now + d.latency
    warp.pc += 4


def _h_join(core, warp, d, now):
    entry = warp.pop_join()
    if entry.uniform:
        warp.pc += 4
    elif entry.pc is not None:
        warp.tmask = entry.mask
        warp._full = bool(entry.mask.all())
        warp.pc = entry.pc
    else:
        warp.tmask = entry.mask
        warp._full = bool(entry.mask.all())
        warp.pc += 4


def _h_pred(core, warp, d, now):
    cont = (warp.x[d.rs1] != 0) & warp.tmask
    if cont.any():
        warp.tmask = cont
        warp._full = bool(cont.all())
        warp.pc += 8  # skip the loop-exit jump
    else:
        bits = int(warp.x[d.rs2][warp.first_active_lane()])
        warp.set_tmask_bits(bits)
        warp.pc += 4  # execute the loop-exit jump


def _h_tmc(core, warp, d, now):
    bits = int(warp.x[d.rs1][warp.first_active_lane()])
    warp.set_tmask_bits(bits)
    warp.pc += 4
    if not warp.tmask.any():
        warp.halt()
        core.machine.on_warp_halt(core, warp, now)


def _h_halt(core, warp, d, now):
    warp.pc += 4
    warp.halt()
    core.machine.on_warp_halt(core, warp, now)


def _h_printf(core, warp, d, now):
    core._execute_printf(warp, d)
    warp.pc += 4


# ---------------------------------------------------------------------------
# Scalar reference handlers: per-lane Python loops over the active mask,
# applying the same arithmetic kernel to one-element slices.
# ---------------------------------------------------------------------------


def _s_int_bin(core, warp, d, now):
    if d.wb_x >= 0:
        x = warp.x
        a, b, dst, op = x[d.rs1], x[d.rs2], x[d.wb_x], d.op
        for lane in np.nonzero(warp.tmask)[0]:
            dst[lane] = op(a[lane:lane + 1], b[lane:lane + 1])[0]
        warp.x_ready[d.wb_x] = now + d.latency
    warp.pc += 4


def _s_int_imm(core, warp, d, now):
    if d.wb_x >= 0:
        x = warp.x
        a, dst, op = x[d.rs1], x[d.wb_x], d.op
        for lane in np.nonzero(warp.tmask)[0]:
            dst[lane] = op(a[lane:lane + 1])[0]
        warp.x_ready[d.wb_x] = now + d.latency
    warp.pc += 4


def _s_const(core, warp, d, now):
    if d.wb_x >= 0:
        dst = warp.x[d.wb_x]
        for lane in np.nonzero(warp.tmask)[0]:
            dst[lane] = d.val
        warp.x_ready[d.wb_x] = now + d.latency
    warp.pc += 4


def _s_csr(core, warp, d, now):
    val = core._read_csr(warp, d.imm)
    if d.wb_x >= 0:
        dst = warp.x[d.wb_x]
        for lane in np.nonzero(warp.tmask)[0]:
            dst[lane] = val[lane]
        warp.x_ready[d.wb_x] = now + d.latency
    warp.pc += 4


def _s_fpu_bin(core, warp, d, now):
    f = warp.f
    a, b, dst, op = f[d.rs1], f[d.rs2], f[d.wb_f], d.op
    for lane in np.nonzero(warp.tmask)[0]:
        dst[lane] = op(a[lane:lane + 1], b[lane:lane + 1])[0]
    warp.f_ready[d.wb_f] = now + d.latency
    warp.pc += 4


def _s_fpu_un(core, warp, d, now):
    f = warp.f
    a, dst, op = f[d.rs1], f[d.wb_f], d.op
    for lane in np.nonzero(warp.tmask)[0]:
        dst[lane] = op(a[lane:lane + 1])[0]
    warp.f_ready[d.wb_f] = now + d.latency
    warp.pc += 4


def _s_fcmp(core, warp, d, now):
    if d.wb_x >= 0:
        f = warp.f
        a, b, dst, op = f[d.rs1], f[d.rs2], warp.x[d.wb_x], d.op
        for lane in np.nonzero(warp.tmask)[0]:
            dst[lane] = op(a[lane:lane + 1], b[lane:lane + 1])[0]
        warp.x_ready[d.wb_x] = now + d.latency
    warp.pc += 4


def _s_f2x(core, warp, d, now):
    if d.wb_x >= 0:
        a, dst, op = warp.f[d.rs1], warp.x[d.wb_x], d.op
        for lane in np.nonzero(warp.tmask)[0]:
            dst[lane] = op(a[lane:lane + 1])[0]
        warp.x_ready[d.wb_x] = now + d.latency
    warp.pc += 4


def _s_x2f(core, warp, d, now):
    a, dst, op = warp.x[d.rs1], warp.f[d.wb_f], d.op
    for lane in np.nonzero(warp.tmask)[0]:
        dst[lane] = op(a[lane:lane + 1])[0]
    warp.f_ready[d.wb_f] = now + d.latency
    warp.pc += 4


# ---------------------------------------------------------------------------
# Decode.
# ---------------------------------------------------------------------------

_SIMT_HANDLERS = {
    # Core methods are used unbound — handler(core, warp, d, now) is
    # exactly the bound-method call with one less stack frame.
    "split": Core._exec_split,
    "join": _h_join,
    "pred": _h_pred,
    "tmc": _h_tmc,
    "halt": _h_halt,
    "bar": Core._exec_bar,
    "wspawn": Core._exec_wspawn,
    "printfx": _h_printf,
}

#: mnemonic -> vectorized compute handler (scalar table overrides these).
_COMPUTE_KINDS = {
    **{m: ("int_bin", op) for m, op in _INT_BIN_OPS.items()},
    **{m: ("fpu_bin", op) for m, op in _FLOAT_BIN_OPS.items()},
    **{m: ("fpu_un", op) for m, op in _FLOAT_UN_OPS.items()},
    **{m: ("fcmp", op) for m, op in _FLOAT_CMP_OPS.items()},
}

VECTOR_TABLE = {
    "int_bin": _v_int_bin, "int_imm": _v_int_imm, "const": _v_const,
    "csr": _v_csr, "fpu_bin": _v_fpu_bin, "fpu_un": _v_fpu_un,
    "fcmp": _v_fcmp, "f2x": _v_f2x, "x2f": _v_x2f,
}

SCALAR_TABLE = {
    "int_bin": _s_int_bin, "int_imm": _s_int_imm, "const": _s_const,
    "csr": _s_csr, "fpu_bin": _s_fpu_bin, "fpu_un": _s_fpu_un,
    "fcmp": _s_fcmp, "f2x": _s_f2x, "x2f": _s_x2f,
}


def scalar_path_enabled() -> bool:
    """True when ``REPRO_SIMX_SCALAR`` selects the per-lane path."""
    return os.environ.get(SCALAR_ENV, "") not in ("", "0")


def decode_one(ins: Instruction, pc: int, config: VortexConfig,
               table: dict) -> DecodedInstr:
    meta = instr_meta(ins)
    latency = {
        "alu": config.alu_latency,
        "mul": config.mul_latency,
        "div": config.div_latency,
        "fpu": config.fpu_latency,
        "fdiv": config.fdiv_latency,
        "sfu": config.sfu_latency,
        "csr": config.csr_latency,
        "simt": config.alu_latency,
        "mem": 0,  # computed by the LSU path
    }[meta.kind]
    d = DecodedInstr(ins, meta, pc, latency)
    m = ins.mnemonic

    if meta.is_mem:
        if m in ("lw", "flw"):
            d.handler = Core._exec_load
            d.aux = m == "flw"
        elif m in ("sw", "fsw"):
            d.handler = Core._exec_store
            d.aux = m == "fsw"
        else:
            d.handler = Core._exec_amo
    elif meta.kind == "simt":
        d.handler = _SIMT_HANDLERS[m]
    elif m in _COMPUTE_KINDS and m not in ("jal",):
        group, op = _COMPUTE_KINDS[m]
        d.handler = table[group]
        d.op = op
    elif m in ("addi", "slti", "sltiu", "xori", "ori", "andi",
               "slli", "srli", "srai"):
        d.handler = table["int_imm"]
        d.op = _make_imm_op(m, ins.imm)
    elif m == "lui":
        d.handler = table["const"]
        d.val = _i32(ins.imm << 12)
    elif m == "auipc":
        d.handler = table["const"]
        d.val = _i32(pc + (ins.imm << 12))
    elif m == "jal":
        d.handler = _v_jal
        d.val = np.int32(pc + 4)
        d.target = pc + ins.imm
    elif m == "jalr":
        d.handler = _v_jalr
        d.val = np.int32(pc + 4)
    elif m in _BRANCH_OPS:
        d.handler = _v_branch
        d.op = _BRANCH_OPS[m]
        d.target = pc + ins.imm
    elif m == "csrrs":
        d.handler = table["csr"]
    elif m == "fcvt.w.s":
        d.handler = table["f2x"]
        d.op = _fcvt_w_s
    elif m == "fmv.x.w":
        d.handler = table["f2x"]
        d.op = lambda a: a.view(np.int32)
    elif m == "fcvt.s.w":
        d.handler = table["x2f"]
        d.op = lambda a: a.astype(np.float32)
    elif m == "fmv.w.x":
        d.handler = table["x2f"]
        d.op = lambda a: a.view(np.float32)
    else:  # pragma: no cover - closed mnemonic set
        raise SimulationError(f"cannot decode {m}")
    return d


def decode_program(program: Program,
                   config: VortexConfig) -> list[DecodedInstr]:
    """Decode every static instruction once, indexed by PC."""
    table = SCALAR_TABLE if scalar_path_enabled() else VECTOR_TABLE
    base = program.code_base
    decoded = [
        decode_one(ins, base + 4 * i, config, table)
        for i, ins in enumerate(program.instructions)
    ]
    # SPLIT fuses with the following branch; both are static, so the
    # direction sense and target resolve here. A malformed pair keeps
    # ``aux=None`` and the runtime fallback reproduces the original
    # diagnostics (including a split with no successor instruction).
    for i, d in enumerate(decoded):
        if d.mnemonic == "split" and i + 1 < len(decoded):
            nxt = decoded[i + 1]
            if nxt.mnemonic in ("beq", "bne") and nxt.rs2 == 0:
                d.aux = (nxt.mnemonic == "beq", nxt.target)
    return decoded


__all__ = [
    "SCALAR_ENV",
    "DecodedInstr",
    "decode_one",
    "decode_program",
    "scalar_path_enabled",
]
