"""Tests for the functional interpreter: arithmetic semantics, barriers,
atomics, printf, and error detection."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import InterpreterError, RuntimeLaunchError
from repro.ocl import (
    FLOAT32,
    GLOBAL_FLOAT32,
    GLOBAL_INT32,
    INT32,
    KernelBuilder,
    NDRange,
    interpret,
)
from repro.ocl.interp import f32, wrap32
from repro.profiling import Profiler

i32s = st.integers(min_value=-(2**31), max_value=2**31 - 1)


class TestWrap32:
    @given(i32s)
    def test_identity_in_range(self, x):
        assert wrap32(x) == x

    @given(st.integers())
    def test_always_in_range(self, x):
        assert -(2**31) <= wrap32(x) <= 2**31 - 1

    @given(i32s, i32s)
    def test_matches_numpy_add(self, a, b):
        with np.errstate(over="ignore"):
            expected = int(np.int32(a) + np.int32(b))
        assert wrap32(a + b) == expected

    @given(i32s, i32s)
    def test_matches_numpy_mul(self, a, b):
        with np.errstate(over="ignore"):
            expected = int(np.int32(a) * np.int32(b))
        assert wrap32(a * b) == expected


def _binop_kernel(name, op_name, ty):
    b = KernelBuilder(name)
    x = b.param("x", GLOBAL_FLOAT32 if ty is FLOAT32 else GLOBAL_INT32)
    y = b.param("y", GLOBAL_FLOAT32 if ty is FLOAT32 else GLOBAL_INT32)
    out = b.param("out", GLOBAL_FLOAT32 if ty is FLOAT32 else GLOBAL_INT32)
    gid = b.global_id(0)
    res = getattr(b, op_name)(b.load(x, gid), b.load(y, gid))
    b.store(out, gid, res)
    return b.finish()


class TestIntSemantics:
    def test_division_truncates_toward_zero(self):
        kernel = _binop_kernel("divk", "div", INT32)
        x = np.array([7, -7, 7, -7], dtype=np.int32)
        y = np.array([2, 2, -2, -2], dtype=np.int32)
        out = np.zeros(4, dtype=np.int32)
        interpret(kernel, [x, y, out], NDRange.create(4))
        np.testing.assert_array_equal(out, [3, -3, -3, 3])

    def test_remainder_sign_follows_dividend(self):
        kernel = _binop_kernel("remk", "rem", INT32)
        x = np.array([7, -7, 7, -7], dtype=np.int32)
        y = np.array([3, 3, -3, -3], dtype=np.int32)
        out = np.zeros(4, dtype=np.int32)
        interpret(kernel, [x, y, out], NDRange.create(4))
        np.testing.assert_array_equal(out, [1, -1, 1, -1])

    def test_division_by_zero_raises(self):
        kernel = _binop_kernel("divz", "div", INT32)
        x = np.ones(1, dtype=np.int32)
        y = np.zeros(1, dtype=np.int32)
        out = np.zeros(1, dtype=np.int32)
        with pytest.raises(InterpreterError):
            interpret(kernel, [x, y, out], NDRange.create(1))

    def test_add_overflow_wraps(self):
        kernel = _binop_kernel("addk", "add", INT32)
        x = np.array([2**31 - 1], dtype=np.int32)
        y = np.array([1], dtype=np.int32)
        out = np.zeros(1, dtype=np.int32)
        interpret(kernel, [x, y, out], NDRange.create(1))
        assert out[0] == -(2**31)

    def test_shifts(self):
        b = KernelBuilder("shifts")
        out = b.param("out", GLOBAL_INT32)
        b.store(out, 0, b.shl(1, 4))
        b.store(out, 1, b.ashr(-16, 2))
        b.store(out, 2, b.lshr(-16, 28))
        kernel = b.finish()
        out_arr = np.zeros(3, dtype=np.int32)
        interpret(kernel, [out_arr], NDRange.create(1))
        np.testing.assert_array_equal(out_arr, [16, -4, 15])


class TestFloatSemantics:
    @given(st.floats(min_value=-1e6, max_value=1e6),
           st.floats(min_value=-1e6, max_value=1e6))
    @settings(max_examples=30, deadline=None)
    def test_fadd_matches_float32(self, a, b):
        assert f32(f32(a) + f32(b)) == float(np.float32(a) + np.float32(b))

    def test_sqrt_of_negative_is_nan(self):
        b = KernelBuilder("sq")
        x = b.param("x", GLOBAL_FLOAT32)
        out = b.param("out", GLOBAL_FLOAT32)
        b.store(out, 0, b.sqrt(b.load(x, 0)))
        kernel = b.finish()
        x_arr = np.array([-1.0], dtype=np.float32)
        out_arr = np.zeros(1, dtype=np.float32)
        interpret(kernel, [x_arr, out_arr], NDRange.create(1))
        assert math.isnan(out_arr[0])

    def test_math_builtins(self):
        b = KernelBuilder("m")
        x = b.param("x", GLOBAL_FLOAT32)
        out = b.param("out", GLOBAL_FLOAT32)
        v = b.load(x, 0)
        b.store(out, 0, b.exp(v))
        b.store(out, 1, b.log(v))
        b.store(out, 2, b.sin(v))
        b.store(out, 3, b.cos(v))
        b.store(out, 4, b.floor(v))
        b.store(out, 5, b.pow(v, b.const(2.0)))
        kernel = b.finish()
        x_arr = np.array([1.5], dtype=np.float32)
        out_arr = np.zeros(6, dtype=np.float32)
        interpret(kernel, [x_arr, out_arr], NDRange.create(1))
        expected = [math.exp(1.5), math.log(1.5), math.sin(1.5),
                    math.cos(1.5), 1.0, 2.25]
        np.testing.assert_allclose(out_arr, np.float32(expected), rtol=1e-6)


class TestAtomics:
    def test_atomic_add_histogram(self):
        b = KernelBuilder("hist")
        data = b.param("data", GLOBAL_INT32)
        bins = b.param("bins", GLOBAL_INT32)
        gid = b.global_id(0)
        b.atomic_add(bins, b.load(data, gid), 1)
        kernel = b.finish()
        rng = np.random.default_rng(0)
        data_arr = rng.integers(0, 4, 64).astype(np.int32)
        bins_arr = np.zeros(4, dtype=np.int32)
        interpret(kernel, [data_arr, bins_arr], NDRange.create(64, 8))
        np.testing.assert_array_equal(bins_arr, np.bincount(data_arr, minlength=4))

    def test_atomic_returns_old_value(self):
        b = KernelBuilder("old")
        cell = b.param("cell", GLOBAL_INT32)
        out = b.param("out", GLOBAL_INT32)
        old = b.atomic_add(cell, 0, 5)
        b.store(out, 0, old)
        kernel = b.finish()
        cell_arr = np.array([100], dtype=np.int32)
        out_arr = np.zeros(1, dtype=np.int32)
        interpret(kernel, [cell_arr, out_arr], NDRange.create(1))
        assert out_arr[0] == 100 and cell_arr[0] == 105

    def test_atomic_min_max(self):
        b = KernelBuilder("mm")
        data = b.param("data", GLOBAL_INT32)
        out = b.param("out", GLOBAL_INT32)
        gid = b.global_id(0)
        v = b.load(data, gid)
        b.atomic_min(out, 0, v)
        b.atomic_max(out, 1, v)
        kernel = b.finish()
        data_arr = np.array([5, -3, 9, 2], dtype=np.int32)
        out_arr = np.array([2**31 - 1, -(2**31)], dtype=np.int32)
        interpret(kernel, [data_arr, out_arr], NDRange.create(4))
        assert out_arr[0] == -3 and out_arr[1] == 9

    def test_atomic_cas(self):
        b = KernelBuilder("cas")
        cell = b.param("cell", GLOBAL_INT32)
        b.atomic_cas(cell, 0, 7, 99)
        kernel = b.finish()
        cell_arr = np.array([7], dtype=np.int32)
        interpret(kernel, [cell_arr], NDRange.create(1))
        assert cell_arr[0] == 99
        cell_arr = np.array([8], dtype=np.int32)
        interpret(kernel, [cell_arr], NDRange.create(1))
        assert cell_arr[0] == 8


class TestBarriers:
    def test_barrier_divergence_detected(self):
        b = KernelBuilder("diverge")
        lid = b.local_id(0)
        with b.if_(b.lt(lid, 2)):
            b.barrier()
        kernel = b.finish()
        with pytest.raises(InterpreterError, match="barrier divergence"):
            interpret(kernel, [], NDRange.create(4, 4))

    def test_barrier_counts(self):
        b = KernelBuilder("bk")
        b.barrier()
        b.barrier()
        kernel = b.finish()
        result = interpret(kernel, [], NDRange.create(8, 4))
        assert result.barriers_executed == 4  # 2 groups x 2 barriers


class TestErrors:
    def test_out_of_bounds_load(self):
        b = KernelBuilder("oob")
        data = b.param("data", GLOBAL_INT32)
        out = b.param("out", GLOBAL_INT32)
        b.store(out, 0, b.load(data, 100))
        kernel = b.finish()
        with pytest.raises(InterpreterError, match="out-of-bounds"):
            interpret(kernel, [np.zeros(4, dtype=np.int32),
                               np.zeros(1, dtype=np.int32)], NDRange.create(1))

    @pytest.mark.parametrize("value", [math.inf, -math.inf])
    def test_ftoi_of_infinity_is_typed(self, value):
        b = KernelBuilder("ftoi_inf")
        x = b.param("x", GLOBAL_FLOAT32)
        out = b.param("out", GLOBAL_INT32)
        b.store(out, 0, b.ftoi(b.load(x, 0)))
        kernel = b.finish()
        out_arr = np.zeros(1, dtype=np.int32)
        with pytest.raises(InterpreterError, match="float-to-int"):
            interpret(kernel, [np.array([value], dtype=np.float32), out_arr],
                      NDRange.create(1))
        # NaN still converts to 0 and finite values still wrap.
        for x_val, want in ((math.nan, 0), (3e9, 3_000_000_000 - 2**32)):
            interpret(kernel, [np.array([x_val], dtype=np.float32), out_arr],
                      NDRange.create(1))
            assert out_arr[0] == want

    def test_runaway_loop_detected(self):
        b = KernelBuilder("spin")
        with b.while_(lambda: b.const(True)):
            pass
        kernel = b.finish()
        with pytest.raises(InterpreterError, match="exceeded"):
            interpret(kernel, [], NDRange.create(1), max_steps_per_item=1000)

    def test_wrong_arg_count(self):
        b = KernelBuilder("k")
        b.param("x", GLOBAL_INT32)
        kernel = b.finish()
        with pytest.raises(RuntimeLaunchError):
            interpret(kernel, [], NDRange.create(1))

    def test_wrong_dtype(self):
        b = KernelBuilder("k")
        b.param("x", GLOBAL_INT32)
        kernel = b.finish()
        with pytest.raises(RuntimeLaunchError, match="dtype"):
            interpret(kernel, [np.zeros(4, dtype=np.float32)], NDRange.create(1))


class TestProfiledSpans:
    def test_group_spans_tile_the_step_timeline(self):
        # Group g loops g + 1 times, then all its items meet at a barrier:
        # each group's span must hold exactly its own dynamic instructions.
        b = KernelBuilder("spans")
        out = b.param("out", GLOBAL_INT32)
        lmem = b.local_array("lmem", INT32, 4)
        lid = b.local_id(0)
        acc = b.var("acc", INT32, init=0)
        with b.for_range(0, b.add(b.group_id(0), 1)) as i:
            acc.set(b.add(acc.get(), i))
        b.store(lmem, lid, acc.get())
        b.barrier()
        b.store(out, b.global_id(0), b.load(lmem, b.sub(3, lid)))
        kernel = b.finish()
        prof = Profiler()
        out_arr = np.zeros(16, dtype=np.int32)
        result = interpret(kernel, [out_arr], NDRange.create(16, 4),
                           profiler=prof)
        np.testing.assert_array_equal(out_arr, np.repeat([0, 1, 3, 6], 4))
        assert result.barriers_executed == 4

        spans = [e for e in prof.events if e.cat == "interp.group"]
        assert len(spans) == 4
        end = 0
        for span in spans:
            assert span.ts == end
            end = span.ts + span.dur
        durs = [span.dur for span in spans]
        assert all(a < b for a, b in zip(durs, durs[1:])), durs
        assert sum(durs) == result.dynamic_instructions
        ops = {name[len("interp.op."):]: n
               for name, n in prof.counters.items()
               if name.startswith("interp.op.")}
        assert ops == {op.value: n for op, n in result.op_counts.items()}


class TestPrintf:
    def test_printf_collects_output(self):
        b = KernelBuilder("hello")
        gid = b.global_id(0)
        b.printf("item %d", gid)
        kernel = b.finish()
        result = interpret(kernel, [], NDRange.create(3))
        assert result.printf_output == ["item 0", "item 1", "item 2"]

    def test_bad_format_raises(self):
        b = KernelBuilder("bad")
        b.printf("%d %d", b.global_id(0))
        kernel = b.finish()
        with pytest.raises(InterpreterError, match="printf"):
            interpret(kernel, [], NDRange.create(1))


class TestWorkItemQueries:
    def test_2d_ids(self):
        b = KernelBuilder("ids2d")
        out = b.param("out", GLOBAL_INT32)
        gx = b.global_id(0)
        gy = b.global_id(1)
        w = b.global_size(0)
        idx = b.add(b.mul(gy, w), gx)
        packed = b.add(b.mul(b.group_id(1), 100), b.local_id(0))
        b.store(out, idx, packed)
        kernel = b.finish()
        out_arr = np.zeros(16, dtype=np.int32)
        interpret(kernel, [out_arr], NDRange.create((4, 4), (2, 2)))
        # Row 0: groups (0..1, 0): group_id(1)=0, local ids 0,1,0,1
        np.testing.assert_array_equal(out_arr[:4], [0, 1, 0, 1])
        # Row 2: group_id(1)=1 → +100
        np.testing.assert_array_equal(out_arr[8:12], [100, 101, 100, 101])

    def test_num_groups_and_sizes(self):
        b = KernelBuilder("q")
        out = b.param("out", GLOBAL_INT32)
        b.store(out, 0, b.num_groups(0))
        b.store(out, 1, b.local_size(0))
        b.store(out, 2, b.global_size(0))
        kernel = b.finish()
        out_arr = np.zeros(3, dtype=np.int32)
        interpret(kernel, [out_arr], NDRange.create(12, 4))
        np.testing.assert_array_equal(out_arr, [3, 4, 12])
