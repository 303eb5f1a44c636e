"""Kernel IR → Vortex machine code.

This is the analog of the paper's extended PoCL + LLVM pipeline (Fig. 5):
divergence analysis decides which branches become SPLIT/JOIN regions and
which loops become PRED loops, work-item queries lower to the CSR-based
scheduling the dispatcher provides, and a register allocator maps SSA
values onto the x/f register files with stack spilling.

Divergence lowering (§II-D of the paper):

* divergent if/else: ``split p`` + conditional branch; one ``join`` is
  placed at the head of the branch's immediate postdominator. SPLIT is
  *fused* with the branch that follows it (the branch unit and the IPDOM
  stack cooperate, as in the Vortex RTL): it resolves the taken/not-taken
  lane masks and their PCs at once, pushes {orig_mask} and {else_mask,
  else_pc}, and steers the warp to the taken side. The first JOIN pops
  the else side and redirects the warp there; the second restores the
  original mask and falls through (see simx.warp for the stack machine).
* divergent loop exits: the header's exit branch becomes
  ``pred cond, saved_mask`` — lanes that want to continue stay on; when
  none remain the saved mask (captured by ``csrr`` at loop entry into one
  of the reserved mask registers x28-x31) is restored and the next
  instruction (the jump to the loop exit) executes.

Kernels are specialized per launch geometry (work-group sizes become
compile-time constants), as PoCL does; the runtime caches the compiled
image per (kernel, NDRange shape).

Unsupported shapes raise :class:`CompilationError`: divergent breaks out
of loops, barriers under divergent control (sync divergence), and loops
mixing a divergent exit with other exits. The benchmark suite is written
within these constraints, mirroring how real SIMT compilers restructure
such code.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

from ..errors import CompilationError
from ..ocl.ir import (
    ATOMIC_OPS,
    Block,
    Const,
    Instr,
    Kernel,
    LocalArray,
    Opcode,
    Param,
    Value,
    clone_kernel,
    predecessors,
)
from ..ocl.ndrange import NDRange
from ..ocl.types import BOOL, FLOAT32, AddressSpace
from ..ocl.validate import validate
from ..passes import cse as cse_pass
from ..passes import divergence as div_pass
from ..passes import loops as loop_pass
from ..passes.cfg import postdominators
from . import layout
from .asm import Assembler, Program, disassemble
from .isa import (
    AT,
    AT2,
    AT3,
    CSR,
    FAT,
    FAT2,
    LOOP_MASK_REGS,
    SP,
    WAVE_REG,
    ZERO,
    Instruction,
)
from .regalloc import Allocation, allocate


def _float_bits(value: float) -> int:
    return struct.unpack("<i", struct.pack("<f", float(value)))[0]


@dataclass
class FrameLayout:
    """Per-thread stack frame: private arrays, spills, printf staging."""

    private_offsets: dict[int, int] = field(default_factory=dict)
    spill_base: int = 0
    printf_base: int = 0
    size: int = 0


@dataclass
class VortexKernelImage:
    """A compiled kernel, ready for the runtime to load and dispatch."""

    kernel_name: str
    program: Program
    #: format string -> absolute device address.
    fmt_table: dict[str, int]
    frame: FrameLayout
    #: local array id -> offset within the group's local window.
    local_offsets: dict[int, int]
    local_window_bytes: int
    ndrange: NDRange
    #: static instruction count (reported in stats).
    num_instructions: int = 0
    #: True when the kernel carries its own work-item loop (one warp per
    #: work-group, lanes sweeping the group in waves of T) — the
    #: PoCL-style scheduling for barrier-free kernels. False for barrier
    #: kernels, which need one hardware lane per work item and warp-set
    #: dispatch.
    wave_mode: bool = False
    threads: int = 0

    def disassembly(self) -> str:
        return disassemble(self.program)


class CodeGen:
    def __init__(self, kernel: Kernel, ndrange: NDRange,
                 threads: int = 0):
        validate(kernel)
        kernel = clone_kernel(kernel)
        cse_pass.run(kernel, merge_loads=False)
        self.kernel = kernel
        self.ndrange = ndrange
        #: Work-item-loop scheduling: barrier-free kernels are wrapped in
        #: a wave loop so one warp sweeps a whole work-group (PoCL's
        #: work-item loops, "work scheduling that reflects Vortex
        #: hardware", §II-D). Barrier kernels need one resident lane per
        #: item and keep warp-set dispatch.
        self.threads = threads
        self.wave_mode = bool(threads) and not kernel.uses_barrier()
        self._pin_entry = self.wave_mode
        self.div = div_pass.analyze(kernel)
        self.loops = loop_pass.analyze(kernel)
        self.pdoms = postdominators(kernel)
        self.alloc: Allocation = allocate(
            kernel, pin_entry_values=self._pin_entry
        )
        self.asm = Assembler()
        self.fmt_table: dict[str, int] = {}
        self._fmt_cursor = layout.FMT_BASE
        self.frame = FrameLayout()
        self.local_offsets: dict[int, int] = {}
        self.local_window_bytes = 0
        #: block id -> number of JOINs at its head.
        self.join_counts: dict[int, int] = {}
        #: loop header block id -> mask register for its PRED lowering.
        self.pred_loops: dict[int, int] = {}
        #: block id -> mask registers to save before its terminator.
        self.mask_saves: dict[int, list[int]] = {}
        self._analyze_control()
        self._layout_frame()

    # ------------------------------------------------------------------
    # Control-structure analysis and legality checks.
    # ------------------------------------------------------------------

    def _analyze_control(self) -> None:
        kernel = self.kernel
        # Classify loops: PRED-mode loops have a divergent header exit.
        pred_loop_headers: set[int] = set()
        for loop in self.loops.loops:
            exits = self.loops.exit_branches(loop)
            div_exits = [
                e for e in exits
                if e.op is Opcode.CBR and self.div.branch_is_divergent(e)
            ]
            if not div_exits:
                continue
            header_term = loop.header.terminator
            if div_exits != [header_term] or len(exits) != 1:
                raise CompilationError(
                    f"kernel {kernel.name}: loop at {loop.header.name} has "
                    "divergent breaks; restructure with flag variables "
                    "(divergent exits are only supported as the loop "
                    "header condition)"
                )
            pred_loop_headers.add(id(loop.header))

        # Nesting depth among PRED loops selects the mask register.
        for loop in self.loops.loops:
            if id(loop.header) not in pred_loop_headers:
                continue
            depth = 0
            p = loop.parent
            while p is not None:
                if id(p.header) in pred_loop_headers:
                    depth += 1
                p = p.parent
            if depth >= len(LOOP_MASK_REGS):
                raise CompilationError(
                    f"kernel {kernel.name}: divergent loops nested deeper "
                    f"than {len(LOOP_MASK_REGS)} levels"
                )
            mask_reg = LOOP_MASK_REGS[depth]
            self.pred_loops[id(loop.header)] = mask_reg
            # Save the current thread mask in every out-of-loop
            # predecessor of the header (the loop pre-header).
            preds = predecessors(kernel)
            for pred in preds[loop.header]:
                if id(pred) not in loop.blocks:
                    self.mask_saves.setdefault(id(pred), []).append(mask_reg)

        # Divergent non-loop branches: place JOIN at the ipdom.
        for block in kernel.blocks:
            term = block.terminator
            if term is None or term.op is not Opcode.CBR:
                continue
            if not self.div.branch_is_divergent(term):
                continue
            if id(block) in self.pred_loops:
                continue  # handled by PRED
            join_block = self.pdoms.immediate(block)
            if join_block is None:
                raise CompilationError(
                    f"kernel {kernel.name}: divergent branch in "
                    f"{block.name} has no reconvergence point"
                )
            inner_branch = self.loops.innermost(block)
            inner_join = self.loops.innermost(join_block)
            if inner_branch is not inner_join:
                raise CompilationError(
                    f"kernel {kernel.name}: divergent branch in "
                    f"{block.name} reconverges outside its loop "
                    "(divergent break?); restructure with flag variables"
                )
            self.join_counts[id(join_block)] = (
                self.join_counts.get(id(join_block), 0) + 1
            )

        # Barriers must execute under uniform control.
        for block in kernel.blocks:
            for ins in block.instrs:
                if ins.op is not Opcode.BARRIER:
                    continue
                if id(block) in self.div.divergent_interior_blocks:
                    raise CompilationError(
                        f"kernel {kernel.name}: barrier under divergent "
                        "control flow"
                    )
                loop = self.loops.innermost(block)
                while loop is not None:
                    if id(loop.header) in self.pred_loops:
                        raise CompilationError(
                            f"kernel {kernel.name}: barrier inside a "
                            "divergent loop"
                        )
                    loop = loop.parent

    def _layout_frame(self) -> None:
        offset = 0
        for arr in self.kernel.arrays:
            nbytes = arr.size * arr.ty.element.size_bytes
            if arr.space is AddressSpace.PRIVATE:
                self.frame.private_offsets[id(arr)] = offset
                offset += (nbytes + 3) & ~3
            else:
                self.local_offsets[id(arr)] = self.local_window_bytes
                self.local_window_bytes += (nbytes + 3) & ~3
        self.frame.spill_base = offset
        offset += self.alloc.spill_bytes
        self.frame.printf_base = offset
        max_printf = 0
        for ins in self.kernel.instructions():
            if ins.op is Opcode.PRINTF:
                max_printf = max(max_printf, 4 * len(ins.args))
        offset += max_printf
        self.frame.size = offset
        if self.frame.size > layout.STACK_SIZE_PER_THREAD:
            raise CompilationError(
                f"kernel {self.kernel.name}: frame of {self.frame.size} bytes "
                f"exceeds the per-thread stack "
                f"({layout.STACK_SIZE_PER_THREAD} bytes)"
            )
        if self.local_window_bytes > layout.LOCAL_WINDOW_SIZE:
            raise CompilationError(
                f"kernel {self.kernel.name}: local arrays need "
                f"{self.local_window_bytes} bytes; the local window is "
                f"{layout.LOCAL_WINDOW_SIZE}"
            )

    # ------------------------------------------------------------------
    # Value access helpers.
    # ------------------------------------------------------------------

    def _spill_off(self, v: Value) -> int:
        return self.frame.spill_base + self.alloc.spill_slots[id(v)]

    def xsrc(self, v: Value, scratch: int = AT) -> int:
        """Materialise an int/bool/pointer value; returns its register."""
        if isinstance(v, Const):
            val = int(v.value) if v.ty is not BOOL else int(bool(v.value))
            self.asm.li(scratch, val)
            return scratch
        if self.alloc.is_spilled(v):
            self.asm.emit("lw", rd=scratch, rs1=SP, imm=self._spill_off(v))
            return scratch
        return self.alloc.reg_of(v)

    def fsrc(self, v: Value, scratch: int = FAT) -> int:
        """Materialise a float value; returns its f-register."""
        if isinstance(v, Const):
            self.asm.li(AT, _float_bits(v.value))
            self.asm.emit("fmv.w.x", rd=scratch, rs1=AT)
            return scratch
        if self.alloc.is_spilled(v):
            self.asm.emit("flw", rd=scratch, rs1=SP, imm=self._spill_off(v))
            return scratch
        return self.alloc.reg_of(v)

    def _to_xreg(self, v: Value, reg: int) -> None:
        """Force an int-class value into a specific register."""
        if isinstance(v, Const):
            val = int(v.value) if v.ty is not BOOL else int(bool(v.value))
            self.asm.li(reg, val)
        elif self.alloc.is_spilled(v):
            self.asm.emit("lw", rd=reg, rs1=SP, imm=self._spill_off(v))
        else:
            self.asm.mv(reg, self.alloc.reg_of(v))

    def xdst(self, ins: Instr) -> tuple[int, bool]:
        """(register to compute into, needs_spill_store)."""
        if self.alloc.is_spilled(ins):
            return AT, True
        return self.alloc.reg_of(ins), False

    def fdst(self, ins: Instr) -> tuple[int, bool]:
        if self.alloc.is_spilled(ins):
            return FAT, True
        return self.alloc.reg_of(ins), False

    def finish_x(self, ins: Instr, reg: int, spill: bool) -> None:
        if spill:
            self.asm.emit("sw", rs1=SP, rs2=reg, imm=self._spill_off(ins))

    def finish_f(self, ins: Instr, reg: int, spill: bool) -> None:
        if spill:
            self.asm.emit("fsw", rs1=SP, rs2=reg, imm=self._spill_off(ins))

    # ------------------------------------------------------------------
    # Top-level emission.
    # ------------------------------------------------------------------

    @property
    def _num_waves(self) -> int:
        if not self.wave_mode:
            return 1
        return -(-self.ndrange.items_per_group // self.threads)

    def run(self) -> VortexKernelImage:
        kernel = self.kernel
        asm = self.asm
        asm.label(kernel.name)
        self._emit_prologue()
        if self.wave_mode:
            asm.li(WAVE_REG, 0)
            if self._num_waves > 1:
                asm.label(self._wave_loop_label())
                self._emit_wave_mask()
        next_of: dict[int, Block | None] = {}
        for i, block in enumerate(kernel.blocks):
            next_of[id(block)] = (
                kernel.blocks[i + 1] if i + 1 < len(kernel.blocks) else None
            )
        for block in kernel.blocks:
            self._emit_block(block, next_of[id(block)])
        program = self.asm.assemble(layout.CODE_BASE)
        return VortexKernelImage(
            kernel_name=kernel.name,
            program=program,
            fmt_table=dict(self.fmt_table),
            frame=self.frame,
            local_offsets=dict(self.local_offsets),
            local_window_bytes=self.local_window_bytes,
            ndrange=self.ndrange,
            num_instructions=len(program.instructions),
            wave_mode=self.wave_mode,
            threads=self.threads,
        )

    def _wave_loop_label(self) -> str:
        return f".{self.kernel.name}.waveloop"

    def _emit_wave_mask(self) -> None:
        """At each wave head, activate min(T, items_left) lanes."""
        ipg = self.ndrange.items_per_group
        if ipg % self.threads == 0:
            return  # every wave is full; the dispatch mask persists
        asm = self.asm
        asm.li(AT, ipg)
        asm.emit("sub", rd=AT, rs1=AT, rs2=WAVE_REG)  # items left
        asm.li(AT2, self.threads)
        skip = self.asm.fresh_label("fullwave")
        asm.emit("blt", rs1=AT, rs2=AT2, label=skip)
        asm.mv(AT, AT2)
        asm.label(skip)
        asm.li(AT2, 1)
        asm.emit("sll", rd=AT2, rs1=AT2, rs2=AT)
        asm.emit("addi", rd=AT2, rs1=AT2, imm=-1)
        asm.emit("tmc", rs1=AT2)

    def _emit_wave_epilogue(self) -> None:
        """RET lowering in wave mode: advance to the next wave or halt."""
        asm = self.asm
        if self._num_waves <= 1:
            asm.emit("halt")
            return
        ipg = self.ndrange.items_per_group
        asm.emit("addi", rd=WAVE_REG, rs1=WAVE_REG, imm=self.threads)
        asm.li(AT, ipg)
        asm.emit("blt", rs1=WAVE_REG, rs2=AT, label=self._wave_loop_label())
        asm.emit("halt")

    def _block_label(self, block: Block) -> str:
        return f".{self.kernel.name}.{block.name}"

    def _emit_prologue(self) -> None:
        asm = self.asm
        # Kernel parameters live in the argument block.
        if self.kernel.params:
            asm.li(AT2, layout.ARG_BASE)
        for param in self.kernel.params:
            off = 4 * param.index
            if param.ty is FLOAT32:
                if self.alloc.is_spilled(param):
                    asm.emit("flw", rd=FAT, rs1=AT2, imm=off)
                    asm.emit("fsw", rs1=SP, rs2=FAT, imm=self._spill_off(param))
                else:
                    asm.emit("flw", rd=self.alloc.reg_of(param), rs1=AT2, imm=off)
            else:
                if self.alloc.is_spilled(param):
                    asm.emit("lw", rd=AT, rs1=AT2, imm=off)
                    asm.emit("sw", rs1=SP, rs2=AT, imm=self._spill_off(param))
                else:
                    asm.emit("lw", rd=self.alloc.reg_of(param), rs1=AT2, imm=off)
        # Array base addresses.
        for arr in self.kernel.arrays:
            if arr.space is AddressSpace.PRIVATE:
                base_reg, base_off = SP, self.frame.private_offsets[id(arr)]
            else:
                asm.emit("csrrs", rd=AT, rs1=0, imm=int(CSR.LOCAL_BASE))
                base_reg, base_off = AT, self.local_offsets[id(arr)]
            if self.alloc.is_spilled(arr):
                asm.emit("addi", rd=AT, rs1=base_reg, imm=base_off)
                asm.emit("sw", rs1=SP, rs2=AT, imm=self._spill_off(arr))
            else:
                asm.emit(
                    "addi", rd=self.alloc.reg_of(arr), rs1=base_reg, imm=base_off
                )

    def _emit_block(self, block: Block, next_block: Block | None) -> None:
        asm = self.asm
        asm.label(self._block_label(block))
        for _ in range(self.join_counts.get(id(block), 0)):
            asm.emit("join")
        for ins in block.non_phis():
            if ins.is_terminator:
                self._emit_terminator(block, ins, next_block)
            else:
                self._emit_instr(ins)

    # ------------------------------------------------------------------
    # Terminators, phi copies, divergence lowering.
    # ------------------------------------------------------------------

    def _emit_terminator(
        self, block: Block, term: Instr, next_block: Block | None
    ) -> None:
        asm = self.asm
        self._emit_phi_copies(block)
        for mask_reg in self.mask_saves.get(id(block), []):
            asm.emit("csrrs", rd=mask_reg, rs1=0, imm=int(CSR.TMASK))

        if term.op is Opcode.RET:
            if self.wave_mode:
                self._emit_wave_epilogue()
            else:
                asm.emit("halt")
            return
        if term.op is Opcode.BR:
            target = term.targets[0]
            if target is not next_block:
                asm.j(self._block_label(target))
            return

        # CBR
        then_b, else_b = term.targets
        cond = term.args[0]
        if id(block) in self.pred_loops:
            # Divergent loop exit: PRED keeps looping lanes on; when all
            # lanes are done it restores the saved mask and executes the
            # jump to the exit block.
            mask_reg = self.pred_loops[id(block)]
            cond_reg = self.xsrc(cond, AT)
            asm.emit("pred", rs1=cond_reg, rs2=mask_reg)
            asm.j(self._block_label(else_b))
            if then_b is not next_block:
                asm.j(self._block_label(then_b))
            return

        divergent = self.div.branch_is_divergent(term)
        cond_reg = self.xsrc(cond, AT)
        if divergent:
            asm.emit("split", rs1=cond_reg)
            asm.emit("beq", rs1=cond_reg, rs2=ZERO,
                     label=self._block_label(else_b))
            if then_b is not next_block:
                asm.j(self._block_label(then_b))
            return
        # Uniform branch.
        if then_b is next_block:
            asm.emit("beq", rs1=cond_reg, rs2=ZERO,
                     label=self._block_label(else_b))
        elif else_b is next_block:
            asm.emit("bne", rs1=cond_reg, rs2=ZERO,
                     label=self._block_label(then_b))
        else:
            asm.emit("beq", rs1=cond_reg, rs2=ZERO,
                     label=self._block_label(else_b))
            asm.j(self._block_label(then_b))

    def _emit_phi_copies(self, block: Block) -> None:
        """Lower the parallel copies implied by successor phis."""
        asm = self.asm
        copies: list[tuple[Instr, Value]] = []
        for succ in block.successors:
            for phi in succ.phis():
                for pred, val in phi.attrs["incomings"]:
                    if pred is block:
                        copies.append((phi, val))
        if not copies:
            return

        # 1. Copies into spill slots read registers but write memory.
        reg_copies: list[tuple[Instr, Value]] = []
        for phi, val in copies:
            if self.alloc.is_spilled(phi):
                if phi.ty is FLOAT32:
                    src = self.fsrc(val, FAT)
                    asm.emit("fsw", rs1=SP, rs2=src, imm=self._spill_off(phi))
                else:
                    src = self.xsrc(val, AT)
                    asm.emit("sw", rs1=SP, rs2=src, imm=self._spill_off(phi))
            else:
                reg_copies.append((phi, val))

        # 2. Register-to-register moves with cycle breaking.
        moves: dict[tuple[str, int], tuple[str, int]] = {}  # dst -> src
        late: list[tuple[Instr, Value]] = []  # const / spilled sources
        for phi, val in reg_copies:
            cls = "f" if phi.ty is FLOAT32 else "x"
            dst = (cls, self.alloc.reg_of(phi))
            if isinstance(val, Const) or self.alloc.is_spilled(val):
                late.append((phi, val))
            else:
                src = (cls, self.alloc.reg_of(val))
                if src != dst:
                    moves[dst] = src

        scratch_for = {"x": AT, "f": FAT}
        in_scratch: dict[tuple[str, int], str] = {}
        while moves:
            # Emit any move whose destination is not a pending source.
            ready = [d for d in moves if d not in moves.values()]
            if ready:
                dst = ready[0]
                src = moves.pop(dst)
                self._emit_move(dst, src, in_scratch)
            else:
                # Cycle: park one destination's current value in a scratch.
                dst = next(iter(moves))
                cls = dst[0]
                if cls == "x":
                    asm.mv(scratch_for["x"], dst[1])
                else:
                    asm.fmv(scratch_for["f"], dst[1])
                in_scratch[dst] = cls
                src = moves.pop(dst)
                self._emit_move(dst, src, in_scratch)

        # 3. Constant / spilled sources into registers.
        for phi, val in late:
            if phi.ty is FLOAT32:
                reg = self.alloc.reg_of(phi)
                if isinstance(val, Const):
                    asm.li(AT, _float_bits(val.value))
                    asm.emit("fmv.w.x", rd=reg, rs1=AT)
                else:
                    asm.emit("flw", rd=reg, rs1=SP, imm=self._spill_off(val))
            else:
                self._to_xreg(val, self.alloc.reg_of(phi))

    def _emit_move(
        self,
        dst: tuple[str, int],
        src: tuple[str, int],
        in_scratch: dict[tuple[str, int], str],
    ) -> None:
        asm = self.asm
        cls, dreg = dst
        sreg = src[1]
        if src in in_scratch:
            sreg = AT if cls == "x" else FAT
            del in_scratch[src]
        if cls == "x":
            asm.mv(dreg, sreg)
        else:
            asm.fmv(dreg, sreg)

    # ------------------------------------------------------------------
    # Straight-line instruction lowering.
    # ------------------------------------------------------------------

    _X_BINOPS = {
        Opcode.ADD: "add", Opcode.SUB: "sub", Opcode.MUL: "mul",
        Opcode.DIV: "div", Opcode.REM: "rem", Opcode.AND: "and",
        Opcode.OR: "or", Opcode.XOR: "xor", Opcode.SHL: "sll",
        Opcode.ASHR: "sra", Opcode.LSHR: "srl",
    }
    _F_BINOPS = {
        Opcode.FADD: "fadd.s", Opcode.FSUB: "fsub.s", Opcode.FMUL: "fmul.s",
        Opcode.FDIV: "fdiv.s", Opcode.FMIN: "fmin.s", Opcode.FMAX: "fmax.s",
        Opcode.POW: "fpow.s",
    }
    _F_UNOPS = {
        Opcode.SQRT: "fsqrt.s", Opcode.EXP: "fexp.s", Opcode.LOG: "flog.s",
        Opcode.SIN: "fsin.s", Opcode.COS: "fcos.s", Opcode.FLOOR: "ffloor.s",
    }
    _CSR_QUERIES = {
        Opcode.GROUP_ID: (CSR.GROUP_ID0, CSR.GROUP_ID1, CSR.GROUP_ID2),
    }
    _AMO_MNEMONICS = {
        Opcode.ATOMIC_ADD: "amoadd.w",
        Opcode.ATOMIC_MIN: "amomin.w",
        Opcode.ATOMIC_MAX: "amomax.w",
        Opcode.ATOMIC_XCHG: "amoswap.w",
    }

    def _emit_instr(self, ins: Instr) -> None:
        asm = self.asm
        op = ins.op

        if op in self._X_BINOPS:
            a = self.xsrc(ins.args[0], AT)
            b = self.xsrc(ins.args[1], AT2)
            d, spill = self.xdst(ins)
            asm.emit(self._X_BINOPS[op], rd=d, rs1=a, rs2=b)
            self.finish_x(ins, d, spill)
        elif op in self._F_BINOPS:
            a = self.fsrc(ins.args[0], FAT)
            b = self.fsrc(ins.args[1], FAT2)
            d, spill = self.fdst(ins)
            asm.emit(self._F_BINOPS[op], rd=d, rs1=a, rs2=b)
            self.finish_f(ins, d, spill)
        elif op in self._F_UNOPS:
            a = self.fsrc(ins.args[0], FAT)
            d, spill = self.fdst(ins)
            asm.emit(self._F_UNOPS[op], rd=d, rs1=a)
            self.finish_f(ins, d, spill)
        elif op is Opcode.FNEG:
            a = self.fsrc(ins.args[0], FAT)
            d, spill = self.fdst(ins)
            asm.emit("fsgnjn.s", rd=d, rs1=a, rs2=a)
            self.finish_f(ins, d, spill)
        elif op is Opcode.FABS:
            a = self.fsrc(ins.args[0], FAT)
            d, spill = self.fdst(ins)
            asm.emit("fsgnjx.s", rd=d, rs1=a, rs2=a)
            self.finish_f(ins, d, spill)
        elif op is Opcode.ICMP:
            self._emit_icmp(ins)
        elif op is Opcode.FCMP:
            self._emit_fcmp(ins)
        elif op is Opcode.SELECT:
            self._emit_select(ins)
        elif op in (Opcode.IMIN, Opcode.IMAX):
            self._emit_iminmax(ins)
        elif op is Opcode.IABS:
            self._to_xreg(ins.args[0], AT)
            asm.emit("srai", rd=AT2, rs1=AT, imm=31)
            asm.emit("xor", rd=AT, rs1=AT, rs2=AT2)
            d, spill = self.xdst(ins)
            asm.emit("sub", rd=d, rs1=AT, rs2=AT2)
            self.finish_x(ins, d, spill)
        elif op is Opcode.SITOFP:
            a = self.xsrc(ins.args[0], AT)
            d, spill = self.fdst(ins)
            asm.emit("fcvt.s.w", rd=d, rs1=a)
            self.finish_f(ins, d, spill)
        elif op is Opcode.FPTOSI:
            a = self.fsrc(ins.args[0], FAT)
            d, spill = self.xdst(ins)
            asm.emit("fcvt.w.s", rd=d, rs1=a)
            self.finish_x(ins, d, spill)
        elif op is Opcode.ZEXT:
            a = self.xsrc(ins.args[0], AT)
            d, spill = self.xdst(ins)
            asm.mv(d, a)
            self.finish_x(ins, d, spill)
        elif op is Opcode.LOAD:
            self._emit_load(ins)
        elif op is Opcode.STORE:
            self._emit_store(ins)
        elif op in ATOMIC_OPS:
            self._emit_atomic(ins)
        elif op in (Opcode.GID, Opcode.LID):
            self._emit_workitem_id(ins)
        elif op is Opcode.GROUP_ID:
            csr = self._CSR_QUERIES[Opcode.GROUP_ID][ins.attrs["dim"]]
            d, spill = self.xdst(ins)
            asm.emit("csrrs", rd=d, rs1=0, imm=int(csr))
            self.finish_x(ins, d, spill)
        elif op in (Opcode.LOCAL_SIZE, Opcode.GLOBAL_SIZE, Opcode.NUM_GROUPS):
            dim = ins.attrs["dim"]
            value = {
                Opcode.LOCAL_SIZE: self.ndrange.local_size,
                Opcode.GLOBAL_SIZE: self.ndrange.global_size,
                Opcode.NUM_GROUPS: self.ndrange.num_groups,
            }[op][dim]
            d, spill = self.xdst(ins)
            asm.li(d, value)
            self.finish_x(ins, d, spill)
        elif op is Opcode.BARRIER:
            asm.emit("csrrs", rd=AT, rs1=0, imm=int(CSR.GROUP_SLOT))
            asm.emit("csrrs", rd=AT2, rs1=0, imm=int(CSR.GROUP_WARPS))
            asm.emit("bar", rs1=AT, rs2=AT2)
        elif op is Opcode.PRINTF:
            self._emit_printf(ins)
        elif op is Opcode.PHI:  # pragma: no cover - skipped by caller
            pass
        else:  # pragma: no cover - closed opcode set
            raise CompilationError(f"codegen cannot lower {op}")

    def _emit_icmp(self, ins: Instr) -> None:
        asm = self.asm
        pred = ins.attrs["pred"]
        a = ins.args[0]
        b = ins.args[1]
        d, spill = self.xdst(ins)
        if pred in ("slt", "sgt"):
            x = self.xsrc(a if pred == "slt" else b, AT)
            y = self.xsrc(b if pred == "slt" else a, AT2)
            asm.emit("slt", rd=d, rs1=x, rs2=y)
        elif pred in ("sge", "sle"):
            x = self.xsrc(a if pred == "sge" else b, AT)
            y = self.xsrc(b if pred == "sge" else a, AT2)
            asm.emit("slt", rd=d, rs1=x, rs2=y)
            asm.emit("xori", rd=d, rs1=d, imm=1)
        elif pred == "eq":
            x = self.xsrc(a, AT)
            y = self.xsrc(b, AT2)
            asm.emit("xor", rd=d, rs1=x, rs2=y)
            asm.emit("sltiu", rd=d, rs1=d, imm=1)
        elif pred == "ne":
            x = self.xsrc(a, AT)
            y = self.xsrc(b, AT2)
            asm.emit("xor", rd=d, rs1=x, rs2=y)
            asm.emit("sltu", rd=d, rs1=ZERO, rs2=d)
        else:  # pragma: no cover - validator rejects
            raise CompilationError(f"bad icmp predicate {pred}")
        self.finish_x(ins, d, spill)

    def _emit_fcmp(self, ins: Instr) -> None:
        asm = self.asm
        pred = ins.attrs["pred"]
        a, b = ins.args
        d, spill = self.xdst(ins)
        table = {
            "oeq": ("feq.s", False, False),
            "one": ("feq.s", True, False),
            "olt": ("flt.s", False, False),
            "ole": ("fle.s", False, False),
            "ogt": ("flt.s", False, True),
            "oge": ("fle.s", False, True),
        }
        mnem, invert, swap = table[pred]
        x = self.fsrc(b if swap else a, FAT)
        y = self.fsrc(a if swap else b, FAT2)
        asm.emit(mnem, rd=d, rs1=x, rs2=y)
        if invert:
            asm.emit("xori", rd=d, rs1=d, imm=1)
        self.finish_x(ins, d, spill)

    def _emit_select(self, ins: Instr) -> None:
        asm = self.asm
        cond, a, b = ins.args
        is_float = ins.ty is FLOAT32
        # mask = -cond; result = b ^ ((a ^ b) & mask)  (branchless: safe
        # under divergence). Operands are materialised first because
        # fsrc/li of float constants stages bits through AT.
        if is_float:
            fa = self.fsrc(a, FAT)
            asm.emit("fmv.x.w", rd=AT2, rs1=fa)
            fb = self.fsrc(b, FAT2)
            asm.emit("fmv.x.w", rd=AT3, rs1=fb)
        else:
            self._to_xreg(a, AT2)
            self._to_xreg(b, AT3)
        self._to_xreg(cond, AT)
        asm.emit("sub", rd=AT, rs1=ZERO, rs2=AT)
        asm.emit("xor", rd=AT2, rs1=AT2, rs2=AT3)
        asm.emit("and", rd=AT2, rs1=AT2, rs2=AT)
        asm.emit("xor", rd=AT2, rs1=AT2, rs2=AT3)
        if is_float:
            d, spill = self.fdst(ins)
            asm.emit("fmv.w.x", rd=d, rs1=AT2)
            self.finish_f(ins, d, spill)
        else:
            d, spill = self.xdst(ins)
            asm.mv(d, AT2)
            self.finish_x(ins, d, spill)

    def _emit_iminmax(self, ins: Instr) -> None:
        asm = self.asm
        a, b = ins.args
        self._to_xreg(a, AT2)
        self._to_xreg(b, AT3)
        if ins.op is Opcode.IMIN:
            asm.emit("slt", rd=AT, rs1=AT2, rs2=AT3)  # a < b -> pick a
        else:
            asm.emit("slt", rd=AT, rs1=AT3, rs2=AT2)  # b < a -> pick a
        asm.emit("sub", rd=AT, rs1=ZERO, rs2=AT)
        asm.emit("xor", rd=AT2, rs1=AT2, rs2=AT3)
        asm.emit("and", rd=AT2, rs1=AT2, rs2=AT)
        asm.emit("xor", rd=AT2, rs1=AT2, rs2=AT3)
        d, spill = self.xdst(ins)
        asm.mv(d, AT2)
        self.finish_x(ins, d, spill)

    def _address(self, ins: Instr) -> tuple[int, int]:
        """Compute a memory operand; returns (base_reg, imm_offset)."""
        asm = self.asm
        ptr, index = ins.args[0], ins.args[1]
        base = self.xsrc(ptr, AT2)
        if isinstance(index, Const):
            off = 4 * int(index.value)
            if -2048 <= off < 2048:
                return base, off
            asm.li(AT, off)
            asm.emit("add", rd=AT, rs1=AT, rs2=base)
            return AT, 0
        idx = self.xsrc(index, AT)
        asm.emit("slli", rd=AT, rs1=idx, imm=2)
        asm.emit("add", rd=AT, rs1=AT, rs2=base)
        return AT, 0

    def _emit_load(self, ins: Instr) -> None:
        base, off = self._address(ins)
        if ins.ty is FLOAT32:
            d, spill = self.fdst(ins)
            self.asm.emit("flw", rd=d, rs1=base, imm=off)
            self.finish_f(ins, d, spill)
        else:
            d, spill = self.xdst(ins)
            self.asm.emit("lw", rd=d, rs1=base, imm=off)
            self.finish_x(ins, d, spill)

    def _emit_store(self, ins: Instr) -> None:
        value = ins.args[2]
        if value.ty is FLOAT32:
            v = self.fsrc(value, FAT)
            base, off = self._address(ins)
            self.asm.emit("fsw", rs1=base, rs2=v, imm=off)
        else:
            base, off = self._address(ins)
            v = self.xsrc(value, AT3)
            self.asm.emit("sw", rs1=base, rs2=v, imm=off)

    def _emit_atomic(self, ins: Instr) -> None:
        asm = self.asm
        if ins.ty is FLOAT32:
            raise CompilationError(
                "float atomics are not supported by the Vortex backend"
            )
        base, off = self._address(ins)  # base in AT, AT2, or a real reg
        if off:
            asm.emit("addi", rd=AT, rs1=base, imm=off)
            base = AT
        elif base == AT2:
            # Free AT2 for the operand reloads below.
            asm.mv(AT, AT2)
            base = AT
        if ins.op is Opcode.ATOMIC_CAS:
            expected, desired = ins.args[2], ins.args[3]
            self._to_xreg(expected, AT3)  # amocas: rd holds expected/old
            v = self.xsrc(desired, AT2)
            asm.emit("amocas.w", rd=AT3, rs1=base, rs2=v)
            d, spill = self.xdst(ins)
            asm.mv(d, AT3)
            self.finish_x(ins, d, spill)
            return
        v = self.xsrc(ins.args[2], AT2)
        d, spill = self.xdst(ins)
        asm.emit(self._AMO_MNEMONICS[ins.op], rd=d, rs1=base, rs2=v)
        self.finish_x(ins, d, spill)

    def _emit_workitem_id(self, ins: Instr) -> None:
        """GID/LID via the dispatcher CSRs and launch-time constants."""
        asm = self.asm
        dim = ins.attrs["dim"]
        lx, ly, _lz = self.ndrange.local_size
        # linear local id: wave base + lane (wave mode) or the
        # dispatcher's LOCAL_OFFSET + lane (warp-set mode).
        asm.emit("csrrs", rd=AT2, rs1=0, imm=int(CSR.THREAD_ID))
        if self.wave_mode:
            asm.emit("add", rd=AT, rs1=WAVE_REG, rs2=AT2)
        else:
            asm.emit("csrrs", rd=AT, rs1=0, imm=int(CSR.LOCAL_OFFSET))
            asm.emit("add", rd=AT, rs1=AT, rs2=AT2)
        # Decompose into the requested dimension.
        if dim == 0:
            self._emit_mod_const(AT, lx)
        elif dim == 1:
            self._emit_div_const(AT, lx)
            self._emit_mod_const(AT, ly)
        else:
            self._emit_div_const(AT, lx * ly)
        if ins.op is Opcode.LID:
            d, spill = self.xdst(ins)
            asm.mv(d, AT)
            self.finish_x(ins, d, spill)
            return
        # gid = group_id(dim) * local_size(dim) + lid
        csr = self._CSR_QUERIES[Opcode.GROUP_ID][dim]
        asm.emit("csrrs", rd=AT2, rs1=0, imm=int(csr))
        lsz = self.ndrange.local_size[dim]
        self._emit_mul_const(AT2, lsz)
        d, spill = self.xdst(ins)
        asm.emit("add", rd=d, rs1=AT, rs2=AT2)
        self.finish_x(ins, d, spill)

    def _emit_mod_const(self, reg: int, c: int) -> None:
        asm = self.asm
        if c == 1:
            asm.li(reg, 0)
        elif c & (c - 1) == 0:
            asm.emit("andi", rd=reg, rs1=reg, imm=c - 1)
        else:
            asm.li(AT3, c)
            asm.emit("rem", rd=reg, rs1=reg, rs2=AT3)

    def _emit_div_const(self, reg: int, c: int) -> None:
        asm = self.asm
        if c == 1:
            return
        if c & (c - 1) == 0:
            asm.emit("srli", rd=reg, rs1=reg, imm=c.bit_length() - 1)
        else:
            asm.li(AT3, c)
            asm.emit("div", rd=reg, rs1=reg, rs2=AT3)

    def _emit_mul_const(self, reg: int, c: int) -> None:
        asm = self.asm
        if c == 0:
            asm.li(reg, 0)
        elif c == 1:
            return
        elif c & (c - 1) == 0:
            asm.emit("slli", rd=reg, rs1=reg, imm=c.bit_length() - 1)
        else:
            asm.li(AT3, c)
            asm.emit("mul", rd=reg, rs1=reg, rs2=AT3)

    def _emit_printf(self, ins: Instr) -> None:
        asm = self.asm
        fmt = ins.attrs["fmt"]
        if fmt not in self.fmt_table:
            addr = self._fmt_cursor
            nbytes = (len(fmt.encode()) + 1 + 3) & ~3
            if addr + nbytes > layout.FMT_LIMIT:
                raise CompilationError("printf format-string region full")
            self.fmt_table[fmt] = addr
            self._fmt_cursor += nbytes
        for i, arg in enumerate(ins.args):
            off = self.frame.printf_base + 4 * i
            if arg.ty is FLOAT32:
                v = self.fsrc(arg, FAT)
                asm.emit("fsw", rs1=SP, rs2=v, imm=off)
            else:
                v = self.xsrc(arg, AT)
                asm.emit("sw", rs1=SP, rs2=v, imm=off)
        asm.li(AT, self.fmt_table[fmt])
        asm.emit("addi", rd=AT2, rs1=SP, imm=self.frame.printf_base)
        asm.emit("printfx", rs1=AT, rs2=AT2)


def compile_kernel(
    kernel: Kernel, ndrange: NDRange, threads: int = 0
) -> VortexKernelImage:
    """Compile one kernel for one launch geometry.

    ``threads`` (the configuration's T) enables the wave-loop scheduling
    for barrier-free kernels; 0 forces warp-set dispatch.
    """
    return CodeGen(kernel, ndrange, threads=threads).run()
