"""Tests for NDRange geometry, including hypothesis-backed invariants."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import RuntimeLaunchError
from repro.ocl import NDRange


class TestCreate:
    def test_scalar_sizes(self):
        ndr = NDRange.create(64, 16)
        assert ndr.global_size == (64, 1, 1)
        assert ndr.local_size == (16, 1, 1)
        assert ndr.work_dim == 1

    def test_default_local_is_single_item(self):
        # Intel's recommended single-work-item configuration (1,1,1).
        ndr = NDRange.create(8)
        assert ndr.local_size == (1, 1, 1)

    def test_2d(self):
        ndr = NDRange.create((8, 4), (2, 2))
        assert ndr.num_groups == (4, 2, 1)
        assert ndr.total_items == 32
        assert ndr.items_per_group == 4
        assert ndr.work_dim == 2

    def test_indivisible_raises(self):
        with pytest.raises(RuntimeLaunchError):
            NDRange.create(10, 4)

    def test_zero_size_raises(self):
        with pytest.raises(RuntimeLaunchError):
            NDRange.create(0)

    def test_too_many_dims_raises(self):
        with pytest.raises(RuntimeLaunchError):
            NDRange.create((2, 2, 2, 2))


class TestEnumeration:
    def test_groups_dimension0_fastest(self):
        ndr = NDRange.create((4, 4), (2, 2))
        groups = list(ndr.groups())
        assert groups == [(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0)]

    def test_local_items_cover_group(self):
        ndr = NDRange.create((4, 4), (2, 2))
        items = list(ndr.local_items())
        assert len(items) == 4
        assert set(items) == {(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0)}

    def test_global_id_composition(self):
        ndr = NDRange.create((8, 8), (4, 2))
        assert ndr.global_id((1, 2, 0), (3, 1, 0)) == (7, 5, 0)


sizes = st.sampled_from([1, 2, 3, 4, 6, 8, 16])


class TestInvariants:
    @given(sizes, sizes)
    def test_group_enumeration_is_complete(self, groups_x, local_x):
        ndr = NDRange.create(groups_x * local_x, local_x)
        seen = set()
        for group in ndr.groups():
            for local in ndr.local_items():
                seen.add(ndr.global_id(group, local))
        assert len(seen) == ndr.total_items
