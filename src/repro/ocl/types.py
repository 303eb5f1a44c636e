"""Type system for the mini-OpenCL kernel IR.

The IR is deliberately small: 32-bit integers, 32-bit floats, booleans, and
typed pointers qualified by an OpenCL address space. This covers every
kernel in the paper's 28-benchmark suite (Rodinia and the NVIDIA OpenCL SDK
samples are overwhelmingly ``int``/``float`` codes).

Types are interned singletons: ``INT32 is INT32`` everywhere, and pointer
types are cached by (space, element), so type equality is identity and is
cheap in hot interpreter/codegen loops.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class AddressSpace(enum.Enum):
    """OpenCL address spaces.

    GLOBAL   -- off-chip device memory (DDR4/HBM2 on the paper's boards)
    LOCAL    -- on-chip scratchpad shared by a work-group
    PRIVATE  -- per-work-item storage
    CONSTANT -- read-only global memory
    """

    GLOBAL = "global"
    LOCAL = "local"
    PRIVATE = "private"
    CONSTANT = "constant"


@dataclass(frozen=True)
class ScalarType:
    """A primitive value type. ``name`` is the OpenCL spelling."""

    name: str
    bits: int
    is_float: bool = False
    is_bool: bool = False

    @property
    def size_bytes(self) -> int:
        return max(1, self.bits // 8)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return self.name


INT32 = ScalarType("int", 32)
FLOAT32 = ScalarType("float", 32, is_float=True)
BOOL = ScalarType("bool", 1, is_bool=True)

#: All scalar types, for iteration in property-based tests.
SCALAR_TYPES = (INT32, FLOAT32, BOOL)


@dataclass(frozen=True)
class PointerType:
    """A typed pointer into one address space.

    Pointer arithmetic in the IR is expressed as ``load(ptr, index)`` /
    ``store(ptr, index, value)`` with an element index, i.e. the ``gep`` is
    folded into the access. This matches both backends' needs: the HLS flow
    infers one load/store unit per static access site, and the Vortex flow
    lowers the index to a shift+add address computation.
    """

    space: AddressSpace
    element: ScalarType

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{self.space.value} {self.element.name}*"


_POINTER_CACHE: dict[tuple[AddressSpace, ScalarType], PointerType] = {}


def pointer(space: AddressSpace, element: ScalarType) -> PointerType:
    """Return the interned pointer type for (space, element)."""
    key = (space, element)
    ty = _POINTER_CACHE.get(key)
    if ty is None:
        ty = PointerType(space, element)
        _POINTER_CACHE[key] = ty
    return ty


GLOBAL_INT32 = pointer(AddressSpace.GLOBAL, INT32)
GLOBAL_FLOAT32 = pointer(AddressSpace.GLOBAL, FLOAT32)
LOCAL_INT32 = pointer(AddressSpace.LOCAL, INT32)
LOCAL_FLOAT32 = pointer(AddressSpace.LOCAL, FLOAT32)
CONSTANT_INT32 = pointer(AddressSpace.CONSTANT, INT32)
CONSTANT_FLOAT32 = pointer(AddressSpace.CONSTANT, FLOAT32)
PRIVATE_INT32 = pointer(AddressSpace.PRIVATE, INT32)
PRIVATE_FLOAT32 = pointer(AddressSpace.PRIVATE, FLOAT32)

Type = ScalarType | PointerType


def is_pointer(ty: Type) -> bool:
    return isinstance(ty, PointerType)


def type_name(ty: Type) -> str:
    """Human-readable spelling used by the IR printer."""
    if isinstance(ty, PointerType):
        return f"{ty.space.value} {ty.element.name}*"
    return ty.name
