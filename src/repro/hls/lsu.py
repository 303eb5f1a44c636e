"""Load/store unit (LSU) inference.

The dominant HLS area mechanism in the paper is that **each static global
array access site is synthesized into its own load/store unit**, and the
flavour of that unit decides its cost: the default burst-coalesced unit
instantiates 32 parallel load units with deep reorder buffers ("each array
access ... was synthesized into 32 load units", §III-A, consuming "over
1,000 BRAM blocks per line", §III-B), while the area-efficient
``__pipelined_load`` unit (Listing 3) is tiny but serialises
non-consecutive accesses.

The LSU kind is chosen from the access pattern, recovered by an affine
analysis of the index expression:

* ``UNIFORM``    — index invariant across work items and loop iterations;
* ``STREAMING``  — unit stride in ``get_global_id(0)`` with no other
  varying term: consecutive work items touch consecutive elements, so the
  access coalesces into a cheap streaming unit. A unit-stride innermost
  loop induction with no thread-varying term (single-work-item style) also
  streams;
* ``STRIDED``    — affine but not coalescable (non-unit stride, or varying
  in several dimensions, e.g. backprop's ``w[index]``);
* ``INDIRECT``   — non-affine (data-dependent, e.g. BFS edge lists);
* ``PIPELINED``  — user-directed ``__pipelined_load``;
* ``LOCAL_PORT`` / ``CONSTANT_CACHE`` — on-chip accesses.

STRIDED and INDIRECT map to the expensive burst-coalesced unit.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from ..ocl.ir import (
    ATOMIC_OPS,
    Const,
    Instr,
    Kernel,
    LocalArray,
    MEMORY_READS,
    MEMORY_WRITES,
    Opcode,
    Param,
    Value,
)
from ..ocl.types import AddressSpace
from ..passes import loops as loop_analysis


class LSUKind(enum.Enum):
    UNIFORM = "uniform"
    STREAMING = "streaming"
    STRIDED = "strided"
    INDIRECT = "indirect"
    PIPELINED = "pipelined"
    ATOMIC = "atomic"
    LOCAL_PORT = "local_port"
    CONSTANT_CACHE = "constant_cache"


#: Number of parallel load units inside one burst-coalesced LSU (§III-A).
BURST_COALESCED_UNITS = 32


# ---------------------------------------------------------------------------
# Affine analysis of index expressions.
# ---------------------------------------------------------------------------

#: Affine form: {symbol: coefficient} + {None: constant}. Symbols are
#: ("gid", d) / ("lid", d) / ("grp", d) for thread ids, ("iv", block_id)
#: for loop inductions, ("u", value_id) for other uniform unknowns.
#: Coefficients are ints, or the sentinel ``UNKNOWN`` for a nonzero
#: coefficient of statically unknown magnitude (e.g. ``gid1 * width``
#: where width is a runtime scalar).
Affine = dict

#: Nonzero coefficient of unknown magnitude.
UNKNOWN = "?"


def _aff_const(c: int) -> Affine:
    return {None: c}


def _aff_sym(sym: tuple) -> Affine:
    return {sym: 1, None: 0}


def _coeff_add(a, b):
    if a == 0:
        return b
    if b == 0:
        return a
    if a == UNKNOWN or b == UNKNOWN:
        return UNKNOWN
    return a + b


def _coeff_mul(a, c):
    if a == 0 or c == 0:
        return 0
    if a == UNKNOWN or c == UNKNOWN:
        return UNKNOWN
    return a * c


def _aff_add(a: Affine, b: Affine, sign: int = 1) -> Affine:
    out = dict(a)
    for k, v in b.items():
        out[k] = _coeff_add(out.get(k, 0), _coeff_mul(v, sign))
    return out


def _aff_scale(a: Affine, c) -> Affine:
    return {k: _coeff_mul(v, c) for k, v in a.items()}


def _is_pure_const(a: Affine) -> bool:
    """Constant affine with a *known* integer value."""
    return all(k is None or v == 0 for k, v in a.items()) and a.get(None, 0) != UNKNOWN


def _varying_syms(a: Affine) -> dict:
    return {
        k: v
        for k, v in a.items()
        if k is not None and k[0] in _VARYING_PREFIXES and v != 0
    }


class AffineIndexAnalysis:
    """Computes affine forms for int32 values in one kernel."""

    def __init__(self, kernel: Kernel):
        self.kernel = kernel
        self.loop_info = loop_analysis.analyze(kernel)
        self._cache: dict[int, Affine | None] = {}
        self._phi_stack: set[int] = set()

    def affine(self, value: Value) -> Affine | None:
        """Affine form of ``value``, or None if non-affine."""
        vid = id(value)
        if vid in self._cache:
            return self._cache[vid]
        result = self._compute(value)
        self._cache[vid] = result
        return result

    def _compute(self, value: Value) -> Affine | None:
        if isinstance(value, Const):
            return _aff_const(int(value.value))
        if isinstance(value, Param):
            # Uniform runtime scalar: a unique symbol.
            return _aff_sym(("u", id(value)))
        if not isinstance(value, Instr):
            return None
        op = value.op
        if op is Opcode.GID:
            return _aff_sym(("gid", value.attrs["dim"]))
        if op is Opcode.LID:
            return _aff_sym(("lid", value.attrs["dim"]))
        if op is Opcode.GROUP_ID:
            return _aff_sym(("grp", value.attrs["dim"]))
        if op in (Opcode.LOCAL_SIZE, Opcode.GLOBAL_SIZE, Opcode.NUM_GROUPS):
            return _aff_sym(("u", id(value)))
        if op is Opcode.ADD or op is Opcode.SUB:
            a = self.affine(value.args[0])
            b = self.affine(value.args[1])
            if a is None or b is None:
                return None
            return _aff_add(a, b, 1 if op is Opcode.ADD else -1)
        if op is Opcode.MUL:
            a = self.affine(value.args[0])
            b = self.affine(value.args[1])
            if a is None or b is None:
                return None
            if _is_pure_const(a):
                return _aff_scale(b, a.get(None, 0))
            if _is_pure_const(b):
                return _aff_scale(a, b.get(None, 0))
            a_var = _varying_syms(a)
            b_var = _varying_syms(b)
            if a_var and b_var:
                return None  # product of two thread/loop-varying values
            if not a_var and not b_var:
                # uniform * uniform: a fresh uniform symbol.
                return _aff_sym(("u", id(value)))
            # varying * uniform: stride magnitudes become unknown.
            varying_side = a if a_var else b
            out: Affine = {
                k: UNKNOWN for k, v in _varying_syms(varying_side).items()
            }
            out[("u", id(value))] = 1
            out[None] = UNKNOWN
            return out
        if op is Opcode.SHL:
            b = self.affine(value.args[1])
            a = self.affine(value.args[0])
            if a is None or b is None or not _is_pure_const(b):
                return None
            return _aff_scale(a, 2 ** (b.get(None, 0) & 31))
        if op is Opcode.PHI:
            return self._phi_affine(value)
        if op in (Opcode.IMIN, Opcode.IMAX, Opcode.SELECT, Opcode.IABS):
            return None
        if op is Opcode.LOAD:
            return None  # data-dependent → indirect
        if op in ATOMIC_OPS:
            return None
        return None

    def _phi_affine(self, phi: Instr) -> Affine | None:
        """Loop-induction phis get an ("iv", header_id) symbol; other phis
        are non-affine (we cannot express path-dependence)."""
        if id(phi) in self._phi_stack:
            return None
        block = phi.block
        if block is None:
            return None
        loop = self.loop_info.innermost(block)
        if loop is not None and loop.header is block:
            # Check the classic induction shape: one incoming is phi+const.
            self._phi_stack.add(id(phi))
            try:
                for pred, val in phi.attrs["incomings"]:
                    if id(pred) in loop.blocks:
                        if (
                            isinstance(val, Instr)
                            and val.op is Opcode.ADD
                            and val.args[0] is phi
                            and isinstance(val.args[1], Const)
                        ):
                            return _aff_sym(("iv", id(block)))
                return None
            finally:
                self._phi_stack.discard(id(phi))
        return None


# ---------------------------------------------------------------------------
# LSU classification per access site.
# ---------------------------------------------------------------------------

_VARYING_PREFIXES = ("gid", "lid", "grp", "iv")


@dataclass
class LSUSite:
    """One static memory access site and its inferred LSU."""

    instr: Instr
    kind: LSUKind
    is_store: bool
    space: AddressSpace


def classify_kernel(kernel: Kernel) -> list[LSUSite]:
    """Infer one LSU per static LOAD/STORE/atomic site in the kernel."""
    analysis = AffineIndexAnalysis(kernel)
    sites: list[LSUSite] = []
    for ins in kernel.instructions():
        if ins.op not in (MEMORY_READS | MEMORY_WRITES):
            continue
        root = ins.args[0]
        space = root.ty.space  # type: ignore[union-attr]
        is_store = ins.op is Opcode.STORE
        if ins.op in ATOMIC_OPS:
            kind = LSUKind.ATOMIC
        elif isinstance(root, LocalArray) or space in (
            AddressSpace.LOCAL,
            AddressSpace.PRIVATE,
        ):
            kind = LSUKind.LOCAL_PORT
        elif space is AddressSpace.CONSTANT:
            kind = LSUKind.CONSTANT_CACHE
        elif kernel.directives.get(ins) == "pipelined_load":
            kind = LSUKind.PIPELINED
        else:
            kind = _classify_global(analysis, ins)
        sites.append(LSUSite(instr=ins, kind=kind, is_store=is_store, space=space))
    return sites


def _classify_global(analysis: AffineIndexAnalysis, ins: Instr) -> LSUKind:
    aff = analysis.affine(ins.args[1])
    if aff is None:
        return LSUKind.INDIRECT
    varying = _varying_syms(aff)
    if not varying:
        return LSUKind.UNIFORM
    # Row-major streaming: unit stride along get_global_id(0); slower
    # dimensions (gid1/gid2) may carry any coefficient — the access is
    # still contiguous within a row of work items.
    if varying.get(("gid", 0)) == 1 and all(
        k[0] == "gid" for k in varying
    ):
        return LSUKind.STREAMING
    # Single-work-item style sequential burst: exactly one unit-stride
    # loop induction and no thread-varying term.
    iv_terms = [(k, v) for k, v in varying.items() if k[0] == "iv"]
    thread_terms = [k for k in varying if k[0] in ("gid", "lid", "grp")]
    if len(iv_terms) == 1 and iv_terms[0][1] == 1 and not thread_terms:
        return LSUKind.STREAMING
    return LSUKind.STRIDED
