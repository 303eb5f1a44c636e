"""Unit and property tests for the SimX components: memory, DRAM,
cache, warp state, instruction metadata, and configuration."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError, TrapError
from repro.vortex import layout
from repro.vortex.isa import Instruction
from repro.vortex.simx.cache import Cache
from repro.vortex.simx.config import DDR4_DRAM, HBM2_DRAM, VortexConfig
from repro.vortex.simx.core import instr_meta
from repro.vortex.simx.decode import VECTOR_TABLE, decode_one
from repro.vortex.simx.dram import DRAM
from repro.vortex.simx.machine import Machine
from repro.vortex.simx.mem import Memory
from repro.vortex.simx.warp import Warp


def _lsu_warp(threads, addrs, mask=None):
    """Core 0 of a one-warp machine, and its warp issuing with lane
    byte addresses ``addrs`` in x6 (``mask``: the active lanes)."""
    machine = Machine(VortexConfig(cores=1, warps=1, threads=threads))
    core = machine.cores[0]
    warp = core.warps[0]
    mask = np.ones(threads, dtype=bool) if mask is None else mask
    warp.reset_for_group(0x1000, mask, {}, np.zeros(threads, np.int32))
    warp.x[6] = addrs
    return core, warp


def _issue(core, warp, mnemonic, rd=5, rs2=7, imm=0):
    """Run one LSU handler as the issue stage would."""
    d = decode_one(Instruction(mnemonic, rd=rd, rs1=6, rs2=rs2, imm=imm),
                   warp.pc, core.config, VECTOR_TABLE)
    d.handler(core, warp, d, 0)


class TestMemory:
    def test_word_roundtrip(self):
        mem = Memory(size=4096)
        mem.write_word(128, -42)
        assert mem.read_word(128) == -42

    def test_gather_scatter_i32(self):
        core, warp = _lsu_warp(4, [0, 8, 16, 64])
        warp.x[7] = [1, 2, 3, -4]
        _issue(core, warp, "sw")
        _issue(core, warp, "lw")
        np.testing.assert_array_equal(warp.x[5], [1, 2, 3, -4])

    def test_gather_f32_bit_faithful(self):
        vals = np.array([1.5, -2.25, 3e-8, -0.0], dtype=np.float32)
        core, warp = _lsu_warp(4, [4, 8, 12, 4096])
        warp.f[7] = vals
        _issue(core, warp, "fsw")
        _issue(core, warp, "flw")
        np.testing.assert_array_equal(warp.f[5].view(np.int32),
                                      vals.view(np.int32))

    def test_unaligned_access_traps(self):
        core, warp = _lsu_warp(1, [2])
        with pytest.raises(TrapError, match="unaligned"):
            _issue(core, warp, "lw")

    def test_out_of_range_traps(self):
        mem = Memory(size=4096)
        with pytest.raises(TrapError, match="out of range"):
            mem.read_word(4096)
        core, warp = _lsu_warp(1, [-4])
        with pytest.raises(TrapError):
            _issue(core, warp, "lw")

    def test_cstring(self):
        mem = Memory(size=4096)
        mem.write_bytes(100, b"hello\x00world")
        assert mem.read_cstring(100) == "hello"

    def test_unterminated_cstring_traps(self):
        mem = Memory(size=256)
        mem.write_bytes(0, b"\x01" * 256)
        with pytest.raises(TrapError, match="unterminated"):
            mem.read_cstring(0)


def _lsu_rows(threads, rng):
    """Lane address rows: all valid, then out-of-range (negative, past
    the end, straddling the end) and unaligned lanes at the first,
    middle and last lane, alone, both kinds in one row in either order,
    and at random; also the last valid word, alone."""
    size = layout.MEM_SIZE
    out_of_range = (-4, -1, size, size - 2, 2**31 - 4)
    good = layout.HEAP_BASE + 4 * np.arange(threads)
    rows = [good]
    spots = sorted({0, threads // 2, threads - 1})
    for p in spots:
        for value in out_of_range + (good[p] + 1, good[p] + 2, size - 4):
            row = good.copy()
            row[p] = value
            rows.append(row)
    for p, q in ((0, threads - 1), (threads - 1, 0), (0, threads // 2)):
        if p != q:
            for first, second in ((size + 8, 6), (6, -8)):
                row = good.copy()
                row[p], row[q] = first, second
                rows.append(row)
    for _ in range(12):
        row = good.copy()
        for p in rng.choice(threads, rng.integers(1, threads + 1),
                            replace=False):
            row[p] = rng.choice([rng.choice(out_of_range),
                                 good[p] + rng.integers(1, 4),
                                 good[p]])
        rows.append(row)
    return rows


@pytest.mark.parametrize("threads", [1, 4, 16])
@pytest.mark.parametrize("mnemonic", ["lw", "flw", "sw", "fsw"])
def test_lsu_trap_text_matches_check_word(mnemonic, threads):
    """A load or store traps at issue with the text Memory._check_word
    gives for the row of active lanes' addresses, full mask or partial,
    and a row of valid lanes does not trap."""
    rng = np.random.default_rng(threads)
    for imm in (0, 4):
        for row in _lsu_rows(threads, rng):
            masks = [np.ones(threads, dtype=bool)]
            if threads > 1:
                masks += [np.arange(threads) % 2 == 0,
                          rng.random(threads) < 0.5]
            for mask in masks:
                core, warp = _lsu_warp(threads, row - imm, mask)
                active = warp.x[6][mask].astype(np.int64) + imm
                try:
                    core.machine.memory._check_word(active)
                    expected = None
                except TrapError as exc:
                    expected = str(exc)
                where = f"{mnemonic} T={threads} row={row} mask={mask}"
                if expected is None:
                    _issue(core, warp, mnemonic, imm=imm)
                    continue
                with pytest.raises(TrapError) as caught:
                    _issue(core, warp, mnemonic, imm=imm)
                assert str(caught.value) == expected, where


class TestDRAM:
    def test_row_hit_cheaper_than_miss(self):
        dram = DRAM(DDR4_DRAM, line_size=64)
        t1 = dram.access(0, now=0)  # cold: row miss
        t2 = dram.access(64 * DDR4_DRAM.banks, now=t1)  # same bank+row
        assert (t2 - t1) < t1
        assert dram.stats.row_hits >= 1

    def test_bank_serialisation(self):
        dram = DRAM(DDR4_DRAM, line_size=64)
        # Two back-to-back requests to the same bank serialise.
        t1 = dram.access(0, now=0)
        t2 = dram.access(64 * DDR4_DRAM.banks * DDR4_DRAM.lines_per_row * 7,
                         now=0)
        assert t2 > t1  # second waits for the bank + pays a row miss

    def test_different_banks_parallel(self):
        dram = DRAM(DDR4_DRAM, line_size=64)
        t1 = dram.access(0, now=0)
        t2 = dram.access(64, now=0)  # adjacent line -> different bank
        assert t2 == t1  # same service time, in parallel

    def test_completion_monotone_in_now(self):
        dram = DRAM(DDR4_DRAM, line_size=64)
        t_early = dram.access(0, now=0)
        dram2 = DRAM(DDR4_DRAM, line_size=64)
        t_late = dram2.access(0, now=1000)
        assert t_late > t_early

    @given(st.lists(st.integers(0, 2**20), min_size=1, max_size=50))
    @settings(max_examples=25, deadline=None)
    def test_completions_always_after_request(self, line_addrs):
        dram = DRAM(DDR4_DRAM, line_size=64)
        now = 0
        for addr in line_addrs:
            done = dram.access(addr * 64, now)
            assert done > now
            now += 1

    def test_row_table_evicts_deterministically(self):
        d1 = DRAM(DDR4_DRAM, line_size=64)
        d2 = DRAM(DDR4_DRAM, line_size=64)
        seq = [i * 64 * DDR4_DRAM.banks * DDR4_DRAM.lines_per_row
               for i in range(20)]
        for a in seq:
            d1.access(a, 0)
            d2.access(a, 0)
        assert d1.open_rows == d2.open_rows

    def test_hbm_profile_has_more_banks(self):
        assert HBM2_DRAM.banks > DDR4_DRAM.banks


class TestCache:
    def test_hit_after_fill(self):
        c = Cache(size=1024, ways=2, line_size=64)
        assert not c.lookup(0)
        c.fill(0)
        assert c.lookup(0)

    def test_lru_eviction(self):
        c = Cache(size=256, ways=2, line_size=64)  # 2 sets x 2 ways
        # Lines 0, 128, 256 all map to set 0 (line_index % 2 == 0).
        c.fill(0)
        c.fill(128)
        c.lookup(0)  # refresh 0
        c.fill(256)  # evicts 128 (LRU)
        assert c.lookup(0)
        assert not c.lookup(128)

    def test_double_fill_does_not_duplicate_line(self):
        # Two outstanding misses on the same line both fill on return;
        # the second fill must refresh the resident way, not allocate
        # the tag into a second one (which would silently halve the
        # set's effective associativity).
        c = Cache(size=256, ways=2, line_size=64)  # 2 sets x 2 ways
        c.fill(0)
        c.fill(0)
        assert c.tags[0].count(0) == 1
        c.fill(128)  # second distinct line fits in the same set
        assert c.lookup(0)
        assert c.lookup(128)

    def test_refill_refreshes_lru(self):
        c = Cache(size=256, ways=2, line_size=64)
        c.fill(0)    # way A <- tag of line 0
        c.fill(128)  # way B <- tag of line 128
        c.fill(0)    # refreshes way A
        c.fill(256)  # evicts the LRU line, which is now 128
        assert c.lookup(0)
        assert not c.lookup(128)

    @given(st.lists(st.integers(0, 63), min_size=1, max_size=200))
    @settings(max_examples=25, deadline=None)
    def test_stats_consistency(self, lines):
        c = Cache(size=2048, ways=4, line_size=64)
        for ln in lines:
            if not c.lookup(ln * 64):
                c.fill(ln * 64)
        assert c.stats.hits + c.stats.misses == len(lines)


class TestWarp:
    def test_ipdom_lifo(self):
        w = Warp(0, 4)
        w.tmask[:] = True
        w.push_uniform_marker()
        w.push_divergence(np.array([1, 1, 1, 1], dtype=bool),
                          np.array([0, 0, 1, 1], dtype=bool), 0x100)
        top = w.pop_join()
        assert top.pc == 0x100
        mid = w.pop_join()
        assert mid.pc is None and mid.mask is not None
        marker = w.pop_join()
        assert marker.uniform

    def test_join_on_empty_stack_raises(self):
        w = Warp(0, 4)
        with pytest.raises(SimulationError, match="IPDOM"):
            w.pop_join()

    def test_tmask_bits_roundtrip(self):
        w = Warp(0, 8)
        w.set_tmask_bits(0b10110001)
        assert w.tmask_bits() == 0b10110001

    def test_first_active_lane(self):
        w = Warp(0, 8)
        w.set_tmask_bits(0b00101000)
        assert w.first_active_lane() == 3

    def test_no_active_lanes_raises(self):
        w = Warp(0, 4)
        w.set_tmask_bits(0)
        with pytest.raises(SimulationError):
            w.first_active_lane()

    def test_reset_for_group_clears_state(self):
        w = Warp(0, 4)
        w.x[5] = 99
        w.ipdom.append(object())
        w.reset_for_group(0x1000, np.ones(4, dtype=bool), {1: 2},
                          np.zeros(4, dtype=np.int32))
        assert (w.x[5] == 0).all()
        assert not w.ipdom
        assert w.pc == 0x1000 and w.active


class TestInstrMeta:
    def test_alu_sources(self):
        meta = instr_meta(Instruction("add", rd=5, rs1=6, rs2=7))
        assert meta.srcs_x == (6, 7)
        assert meta.dst == ("x", 5)
        assert meta.kind == "alu"

    def test_float_sources(self):
        meta = instr_meta(Instruction("fadd.s", rd=2, rs1=3, rs2=4))
        assert meta.srcs_f == (3, 4)
        assert meta.dst == ("f", 2)
        assert meta.kind == "fpu"

    def test_load_is_mem(self):
        meta = instr_meta(Instruction("flw", rd=2, rs1=5, imm=0))
        assert meta.is_mem
        assert meta.srcs_x == (5,)
        assert meta.dst == ("f", 2)

    def test_store_has_no_dst(self):
        meta = instr_meta(Instruction("sw", rs1=5, rs2=6, imm=0))
        assert meta.dst is None
        assert meta.srcs_x == (5, 6)

    def test_amocas_reads_rd(self):
        meta = instr_meta(Instruction("amocas.w", rd=5, rs1=6, rs2=7))
        assert 5 in meta.srcs_x

    def test_x0_dst_dropped(self):
        meta = instr_meta(Instruction("addi", rd=0, rs1=1, imm=4))
        assert meta.dst is None

    def test_simt_kinds(self):
        for m in ("tmc", "split", "join", "bar", "pred", "halt"):
            assert instr_meta(Instruction(m)).kind == "simt"


class TestConfig:
    def test_invalid_geometry_rejected(self):
        with pytest.raises(SimulationError):
            VortexConfig(threads=0)
        with pytest.raises(SimulationError):
            VortexConfig(warps=0)

    def test_with_geometry(self):
        cfg = VortexConfig()
        new = cfg.with_geometry(warps=2, threads=16)
        assert (new.warps, new.threads) == (2, 16)
        assert new.cores == cfg.cores

    def test_label(self):
        assert VortexConfig(cores=4, warps=8, threads=2).label() == "4c8w2t"

    def test_hbm_swaps_dram(self):
        assert VortexConfig().hbm().dram.kind == "hbm2"


class TestDeterminism:
    def test_same_launch_same_cycles(self):
        import numpy as np
        from repro.benchmarks import get_benchmark
        from repro.ocl import Context
        from repro.vortex import VortexBackend

        def run():
            bench = get_benchmark("vecadd")
            ctx = Context(VortexBackend(VortexConfig(cores=2, warps=4,
                                                     threads=4)))
            prog = ctx.program(bench.build())
            rng = np.random.default_rng(0)
            a = ctx.buffer(rng.random(256, dtype=np.float32))
            b = ctx.buffer(rng.random(256, dtype=np.float32))
            c = ctx.alloc(256)
            return prog.launch("vecadd", [a, b, c, 256], 256, 16).cycles

        assert run() == run()


class TestRiscvDivisionSemantics:
    """RISC-V M-extension corner cases (div-by-zero never traps on the
    device; the reference interpreter treats it as a kernel bug)."""

    def _run_div(self, a, b, op):
        import numpy as np
        from repro.vortex.simx.core import _sdiv, _srem

        x = np.array([a], dtype=np.int32)
        y = np.array([b], dtype=np.int32)
        fn = _sdiv if op == "div" else _srem
        return int(fn(x, y)[0])

    def test_div_by_zero_returns_minus_one(self):
        assert self._run_div(7, 0, "div") == -1

    def test_rem_by_zero_returns_dividend(self):
        assert self._run_div(7, 0, "rem") == 7

    def test_int_min_overflow(self):
        assert self._run_div(-(2**31), -1, "div") == -(2**31)
        assert self._run_div(-(2**31), -1, "rem") == 0

    def test_truncating_division(self):
        assert self._run_div(-7, 2, "div") == -3
        assert self._run_div(-7, 2, "rem") == -1


class TestWarpStateDump:
    """Stuck-machine diagnostics: a deadlocked or cycle-limit-overrun
    simulation must die with a per-warp state dump attached, so an
    ERROR row in a sweep is debuggable without a traced re-run."""

    def test_cycle_overrun_error_carries_warp_dump(self):
        from repro.benchmarks import get_benchmark
        from repro.ocl import Context
        from repro.vortex import VortexBackend

        config = VortexConfig(cores=2, warps=2, threads=2)
        ctx = Context(VortexBackend(config, max_cycles=5))
        prog = ctx.program(get_benchmark("vecadd").build())
        n = 64
        a = ctx.buffer(np.zeros(n, dtype=np.float32))
        b = ctx.buffer(np.zeros(n, dtype=np.float32))
        c = ctx.alloc(n)
        with pytest.raises(SimulationError) as excinfo:
            prog.launch("vecadd", [a, b, c, n], n, 4)
        exc = excinfo.value
        assert "simulation exceeded 5 cycles" in str(exc)
        assert "warp states at cycle" in str(exc)
        assert exc.warp_dump  # machine state travels with the error
        assert "core 0 warp 0:" in exc.warp_dump
        assert "core 1 warp 1:" in exc.warp_dump
        assert "pc=0x" in exc.warp_dump

    def test_describe_warp_states_covers_every_status(self):
        from repro.vortex.simx.machine import Machine
        from repro.vortex.simx.warp import BLOCKED

        machine = Machine(VortexConfig(cores=1, warps=4, threads=2))
        core = machine.cores[0]
        w0, w1, w2, w3 = core.warps
        w0.active = True
        w0.pc = 0x80
        w0.tmask[:] = True
        w0.group_key = 7
        w0.at_barrier = True
        core.barriers[3] = [w0.wid]
        w1.active = True
        w1.ready_at = BLOCKED
        w2.active = True
        w2.ready_at = 50
        w3.active = True
        w3.ready_at = 0  # <= now: can issue (BLOCKED while inactive)
        lines = machine.describe_warp_states(now=10).splitlines()
        assert len(lines) == 4
        assert "core 0 warp 0: pc=0x0080 mask=0x3 group=7" in lines[0]
        assert "waiting at barrier 3" in lines[0]
        assert "blocked" in lines[1]
        assert "stalled until cycle 50" in lines[2]
        assert "ready" in lines[3]

    def test_halted_warps_render_as_halted(self):
        from repro.vortex.simx.machine import Machine

        machine = Machine(VortexConfig(cores=1, warps=2, threads=2))
        dump = machine.describe_warp_states(now=0)
        assert dump.count("halted") == 2
