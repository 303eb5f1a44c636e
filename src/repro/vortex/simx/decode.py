"""Decode-once instruction cache for the SimX hot loop.

When a kernel image is loaded, every static instruction is compiled
into a :class:`DecodedInstr` — a flat record holding the pre-resolved
handler function, operand registers and their register files, the
scoreboard indices of its sources (one tuple) and of its writeback (one
index; x0–x31 are 0–31, f0–f31 are 32–63), the immediate pre-broadcast
to a T-lane row (T is fixed per machine), the absolute jump/branch
target (PCs are static, so ``auipc``/``jal``/branch arithmetic folds
away entirely) and the writeback latency for the machine configuration.
:func:`decode_program` keys the records by PC, so the issue stage costs
one dict lookup and one indirect call per dynamic instruction.

The compute instructions fold into three handlers by operand shape —
reg–reg (int ALU, FPU binary, FP compare), reg–immediate-row and
one-source (FPU unary, ``fcvt``/``fmv``) — each applying the
instruction's op, which takes the ufunc calling form: ``op(*rows)``
returns a fresh row, ``op(*rows, out=row)`` writes into ``row``. Plain
ufuncs are used directly; composite kernels are wrapped once by
:func:`_ufunc_form`. Two handler tables exist:

* ``VECTOR_TABLE`` — production. Each handler executes the whole warp
  row with numpy through the warp's row views in one of two forms,
  chosen by ``Warp._full``: ``op(..., out=row)`` while every lane is
  active, a masked ``np.copyto(..., where=tmask)`` otherwise. No
  handler forks on warp width.
* ``SCALAR_TABLE`` — a per-lane Python reference over ``warp.x``/
  ``warp.f``, selected with ``REPRO_SIMX_SCALAR=1`` and used only as a
  differential oracle.

The property tests in ``tests/test_simx_vectorized.py`` drive random
divergent kernels, and every compute handler on random warp states,
through both tables and require bit-identical memory, registers and
timing. Each scalar handler loops over the active lanes applying the
*same* op to one-element slices, so any divergence isolates a
masking/vectorization bug rather than a numerics difference.
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
        "rs1", "rs2", "rd", "imm", "imm64", "row",
        "is_mem", "is_simt", "srcs",
        "wb", "fsrc", "fdst", "latency",
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
        #: immediate as a numpy int64 scalar: the masked LSU address add
        #: (``int32_row[mask] + imm64``) upcasts in one ufunc call.
        self.imm64 = np.int64(ins.imm)
        #: the immediate as a T-lane row, set by decode: int32 for the
        #: reg-immediate ops, int64 for a full-mask LSU address add.
        self.row = None
        self.is_mem = meta.is_mem
        self.is_simt = meta.kind == "simt"
        #: register files: sources (``fsrc``) and destination (``fdst``)
        #: are f registers, whose scoreboard indices are ``32 + r``.
        self.fsrc = bool(meta.srcs_f)
        self.fdst = bool(meta.dst) and meta.dst[0] == "f"
        #: scoreboard indices of the sources, and of the destination
        #: (its register is ``rd``): -1 when nothing is written (no
        #: destination, or rd = x0).
        self.srcs = meta.srcs_x + tuple(32 + r for r in meta.srcs_f)
        self.wb = meta.dst[1] + 32 * self.fdst if meta.dst else -1
        self.latency = latency
        self.handler = None
        self.op = None
        self.val = None
        self.target = 0
        self.aux = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<DecodedInstr {self.mnemonic} @ {self.pc:#x}>"


# ---------------------------------------------------------------------------
# Arithmetic ops (shared by the vector and scalar paths; the RISC-V
# M-extension division corner cases live in ``core._sdiv``/``core._srem``).
# ---------------------------------------------------------------------------


def _ufunc_form(kernel):
    """Give a composite kernel the ufunc calling form: ``op(*rows)``
    returns ``kernel(*rows)``, ``op(*rows, out=row)`` writes it into
    ``row`` in place."""
    def op(*rows, out=None):
        if out is None:
            return kernel(*rows)
        out[...] = kernel(*rows)
        return out
    return op


#: Comparisons write 0/1 rows: a bool result assigned into an int32 row
#: costs less than a ufunc casting into ``out=``.
_slt = _ufunc_form(np.less)
_sltu = _ufunc_form(lambda a, b: a.view(np.uint32) < b.view(np.uint32))


def _srl_masked(a, s, out=None):
    """Logical right shift by an already-masked amount (``srli``'s row)."""
    return np.right_shift(a.view(np.uint32), s.view(np.uint32),
                          out=None if out is None else out.view(np.uint32)
                          ).view(np.int32)


_INT_BIN_OPS = {
    "add": np.add,
    "sub": np.subtract,
    "sll": lambda a, b, out=None: np.left_shift(a, b & 31, out=out),
    "slt": _slt,
    "sltu": _sltu,
    "xor": np.bitwise_xor,
    "srl": lambda a, b, out=None: _srl_masked(a, b & 31, out=out),
    "sra": lambda a, b, out=None: np.right_shift(a, b & 31, out=out),
    "or": np.bitwise_or,
    "and": np.bitwise_and,
    # int32 products wrap to the low 32 bits, as RISC-V's mul.
    "mul": np.multiply,
    "mulh": _ufunc_form(lambda a, b: ((a.astype(np.int64)
                                       * b.astype(np.int64))
                                      >> 32).astype(np.int32)),
    "div": _ufunc_form(_sdiv),
    "rem": _ufunc_form(_srem),
}

#: reg-immediate ops: the reg-reg op on the immediate's lane row, except
#: that a shift's row is masked to 5 bits at decode (``_SHIFT_IMMS``).
_IMM_OPS = {
    "addi": np.add,
    "slti": _slt,
    "sltiu": _sltu,
    "xori": np.bitwise_xor,
    "ori": np.bitwise_or,
    "andi": np.bitwise_and,
    "slli": np.left_shift,
    "srli": _srl_masked,
    "srai": np.right_shift,
}
_SHIFT_IMMS = ("slli", "srli", "srai")


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
    return _ufunc_form(op)


def _f64(fn):
    """A binary32 op evaluated in binary64 and rounded once."""
    return _ufunc_form(
        lambda *rows: fn(*(r.astype(np.float64) for r in rows)).astype(
            np.float32))


_FLOAT_BIN_OPS = {
    "fadd.s": np.add,
    "fsub.s": np.subtract,
    "fmul.s": np.multiply,
    "fdiv.s": np.divide,
    "fmin.s": _fminmax(lambda a, b: (a < b) | ((a == b) & np.signbit(a))),
    "fmax.s": _fminmax(lambda a, b: (a > b) | ((a == b) & np.signbit(b))),
    "fpow.s": _f64(np.power),
    "fsgnj.s": _ufunc_form(lambda a, b: ((a.view(np.int32) & 0x7FFFFFFF)
                                         | (b.view(np.int32) & _SIGN_BIT)
                                         ).view(np.float32)),
    "fsgnjn.s": _ufunc_form(lambda a, b: ((a.view(np.int32) & 0x7FFFFFFF)
                                          | (~b.view(np.int32) & _SIGN_BIT)
                                          ).view(np.float32)),
    "fsgnjx.s": _ufunc_form(lambda a, b: (a.view(np.int32)
                                          ^ (b.view(np.int32) & _SIGN_BIT)
                                          ).view(np.float32)),
}

_FLOAT_CMP_OPS = {
    "feq.s": _ufunc_form(np.equal),
    "flt.s": _slt,
    "fle.s": _ufunc_form(np.less_equal),
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
    """``fcvt.w.s``: truncate toward zero; a finite value wraps modulo
    2**32 (``np.fmod`` of the truncated binary64 is exact), as the
    interpreter's ``wrap32`` does; ±inf saturates to ``INT32_MAX``/
    ``INT32_MIN``, as RISC-V does; NaN gives 0. No host-dependent
    out-of-range cast is left."""
    v = np.trunc(a.astype(np.float64))
    v = np.where(np.isinf(v), np.clip(v, -2.0**31, 2.0**31 - 1),
                 np.fmod(v, 2.0**32))
    return np.nan_to_num(v).astype(np.int64).astype(np.int32)


#: one-source ops: FPU unary, conversions and moves between the files.
_UN_OPS = {
    "fsqrt.s": np.sqrt,
    "fexp.s": _f64(np.exp),
    "flog.s": _f64(np.log),
    "fsin.s": _f64(np.sin),
    "fcos.s": _f64(np.cos),
    "ffloor.s": np.floor,
    "fcvt.w.s": _ufunc_form(_fcvt_w_s),
    "fmv.x.w": _ufunc_form(lambda a: a.view(np.int32)),
    "fcvt.s.w": _ufunc_form(lambda a: a.astype(np.float32)),
    "fmv.w.x": _ufunc_form(lambda a: a.view(np.float32)),
}

#: mnemonic -> (operand shape, op); decode picks the register files.
_COMPUTE = {
    **{m: ("rr", op) for m, op in _INT_BIN_OPS.items()},
    **{m: ("rr", op) for m, op in _FLOAT_BIN_OPS.items()},
    **{m: ("rr", op) for m, op in _FLOAT_CMP_OPS.items()},
    **{m: ("ri", op) for m, op in _IMM_OPS.items()},
    **{m: ("un", op) for m, op in _UN_OPS.items()},
}


# ---------------------------------------------------------------------------
# Vectorized handlers. Signature: handler(core, warp, d, now).
#
# The issue stage (Core.tick) has already set ``warp.ready_at``; each
# handler advances the PC, performs the register writes to row ``d.rd``
# — in place, through the warp's row views — and books the scoreboard
# writeback at ``d.wb``. Writes to x0 are impossible by construction
# (``d.wb`` is -1 for rd = x0), so the defensive ``x[0] = 0`` of the
# old interpreter loop is gone from the hot path (the property tests
# assert x0 stays zero).
# ---------------------------------------------------------------------------


def _v_rr(core, warp, d, now):
    """Reg-reg: int ALU, FPU binary and FP compare."""
    if d.wb >= 0:
        src = warp.fr if d.fsrc else warp.xr
        dst = (warp.fr if d.fdst else warp.xr)[d.rd]
        if warp._full:
            d.op(src[d.rs1], src[d.rs2], out=dst)
        else:
            np.copyto(dst, d.op(src[d.rs1], src[d.rs2]), where=warp.tmask)
        warp.scoreboard[d.wb] = now + d.latency
    warp.pc += 4


def _v_ri(core, warp, d, now):
    """Reg-immediate: the immediate is decode's T-lane row."""
    if d.wb >= 0:
        xr = warp.xr
        if warp._full:
            d.op(xr[d.rs1], d.row, out=xr[d.rd])
        else:
            np.copyto(xr[d.rd], d.op(xr[d.rs1], d.row), where=warp.tmask)
        warp.scoreboard[d.wb] = now + d.latency
    warp.pc += 4


def _v_un(core, warp, d, now):
    """One source: FPU unary, ``fcvt`` and ``fmv``."""
    if d.wb >= 0:
        src = (warp.fr if d.fsrc else warp.xr)[d.rs1]
        dst = (warp.fr if d.fdst else warp.xr)[d.rd]
        if warp._full:
            d.op(src, out=dst)
        else:
            np.copyto(dst, d.op(src), where=warp.tmask)
        warp.scoreboard[d.wb] = now + d.latency
    warp.pc += 4


def _v_const(core, warp, d, now):
    # lui / auipc / jal-link: the written value is static per PC.
    if d.wb >= 0:
        if warp._full:
            warp.xr[d.rd][...] = d.val
        else:
            warp.xr[d.rd][warp.tmask] = d.val
        warp.scoreboard[d.wb] = now + d.latency
    warp.pc += 4


def _v_jal(core, warp, d, now):
    _v_const(core, warp, d, now)
    warp.pc = d.target


def _v_jalr(core, warp, d, now):
    target = core._uniform_value(warp, warp.xr[d.rs1] + d.imm)
    _v_const(core, warp, d, now)
    warp.pc = int(target) & ~1


def _v_branch(core, warp, d, now):
    cond = d.op(warp.xr[d.rs1], warp.xr[d.rs2])
    active = cond if warp._full else cond[warp.tmask]
    lanes = len(active)
    if not lanes:
        raise SimulationError(
            f"core {core.cid} warp {warp.wid}: branch with empty mask "
            f"at pc {warp.pc:#x}"
        )
    taken = np.count_nonzero(active)
    if taken == lanes:
        warp.pc = d.target
    elif not taken:
        warp.pc += 4
    else:
        raise SimulationError(
            f"core {core.cid} warp {warp.wid}: divergent branch executed "
            f"without SPLIT at pc {warp.pc:#x} (miscompiled kernel)"
        )


def _v_csr(core, warp, d, now):
    val = core._read_csr(warp, d.imm)
    if d.wb >= 0:
        if warp._full:
            warp.xr[d.rd][...] = val
        else:
            np.copyto(warp.xr[d.rd], val, where=warp.tmask)
        warp.scoreboard[d.wb] = now + d.latency
    warp.pc += 4


def _h_join(core, warp, d, now):
    entry = warp.pop_join()
    if entry.uniform:
        warp.pc += 4
        return
    warp.tmask = entry.mask
    warp._full = np.count_nonzero(entry.mask) == warp.num_threads
    if entry.pc is not None:
        warp.pc = entry.pc
    else:
        warp.pc += 4


def _h_pred(core, warp, d, now):
    cont = warp.xr[d.rs1] != 0
    if not warp._full:
        cont &= warp.tmask
    lanes = np.count_nonzero(cont)
    if lanes:
        warp.tmask = cont
        warp._full = lanes == warp.num_threads
        warp.pc += 8  # skip the loop-exit jump
    else:
        bits = int(warp.xr[d.rs2][warp.first_active_lane()])
        warp.set_tmask_bits(bits)
        warp.pc += 4  # execute the loop-exit jump


def _h_tmc(core, warp, d, now):
    bits = int(warp.xr[d.rs1][warp.first_active_lane()])
    warp.set_tmask_bits(bits)
    warp.pc += 4
    if not np.count_nonzero(warp.tmask):
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
# Scalar reference handlers: per-lane Python loops over the active mask
# of ``warp.x``/``warp.f``, applying the same op to one-element slices.
# ---------------------------------------------------------------------------


def _s_apply(warp, d, now, *srcs):
    dst = (warp.f if d.fdst else warp.x)[d.rd]
    for lane in np.nonzero(warp.tmask)[0]:
        dst[lane] = d.op(*(s[lane:lane + 1] for s in srcs))[0]
    warp.scoreboard[d.wb] = now + d.latency


def _s_rr(core, warp, d, now):
    if d.wb >= 0:
        src = warp.f if d.fsrc else warp.x
        _s_apply(warp, d, now, src[d.rs1], src[d.rs2])
    warp.pc += 4


def _s_ri(core, warp, d, now):
    if d.wb >= 0:
        _s_apply(warp, d, now, warp.x[d.rs1], d.row)
    warp.pc += 4


def _s_un(core, warp, d, now):
    if d.wb >= 0:
        _s_apply(warp, d, now, (warp.f if d.fsrc else warp.x)[d.rs1])
    warp.pc += 4


def _s_const(core, warp, d, now):
    if d.wb >= 0:
        dst = warp.x[d.rd]
        for lane in np.nonzero(warp.tmask)[0]:
            dst[lane] = d.val
        warp.scoreboard[d.wb] = now + d.latency
    warp.pc += 4


def _s_csr(core, warp, d, now):
    val = core._read_csr(warp, d.imm)
    if d.wb >= 0:
        dst = warp.x[d.rd]
        for lane in np.nonzero(warp.tmask)[0]:
            dst[lane] = val[lane]
        warp.scoreboard[d.wb] = now + d.latency
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

VECTOR_TABLE = {"rr": _v_rr, "ri": _v_ri, "un": _v_un, "const": _v_const,
                "csr": _v_csr}

SCALAR_TABLE = {"rr": _s_rr, "ri": _s_ri, "un": _s_un, "const": _s_const,
                "csr": _s_csr}


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
        d.row = np.full(config.threads, ins.imm, dtype=np.int64)
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
    elif m in _COMPUTE:
        shape, d.op = _COMPUTE[m]
        d.handler = table[shape]
        if shape == "ri":
            imm = ins.imm & 31 if m in _SHIFT_IMMS else ins.imm
            d.row = np.full(config.threads, _i32(imm), dtype=np.int32)
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
    else:  # pragma: no cover - closed mnemonic set
        raise SimulationError(f"cannot decode {m}")
    return d


def decode_program(program: Program,
                   config: VortexConfig) -> dict[int, DecodedInstr]:
    """Decode every static instruction once, keyed by PC."""
    table = SCALAR_TABLE if scalar_path_enabled() else VECTOR_TABLE
    base = program.code_base
    code = {
        base + 4 * i: decode_one(ins, base + 4 * i, config, table)
        for i, ins in enumerate(program.instructions)
    }
    # SPLIT fuses with the following branch; both are static, so the
    # direction sense and target resolve here. A malformed pair keeps
    # ``aux=None`` and the runtime fallback reproduces the original
    # diagnostics (including a split with no successor instruction).
    for pc, d in code.items():
        nxt = code.get(pc + 4)
        if d.mnemonic == "split" and nxt is not None \
                and nxt.mnemonic in ("beq", "bne") and nxt.rs2 == 0:
            d.aux = (nxt.mnemonic == "beq", nxt.target)
    return code


__all__ = [
    "SCALAR_ENV",
    "DecodedInstr",
    "decode_one",
    "decode_program",
    "scalar_path_enabled",
]
