"""Type system of the C-subset IR: scalars and statically-shaped arrays."""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Tuple


class ScalarKind(enum.Enum):
    """Primitive element kinds supported by the IR."""

    INT = "int"
    FLOAT = "float"
    BOOL = "bool"


@dataclass(frozen=True)
class ScalarType:
    """A scalar type with a fixed byte width (defaults follow a 32-bit target)."""

    kind: ScalarKind
    bytes: int = 4

    @property
    def size_bytes(self) -> int:
        return self.bytes

    def __str__(self) -> str:
        if self.kind is ScalarKind.FLOAT and self.bytes == 8:
            return "double"
        if self.kind is ScalarKind.FLOAT:
            return "float"
        if self.kind is ScalarKind.BOOL:
            return "bool"
        return "int"


@dataclass(frozen=True)
class ArrayType:
    """A statically-shaped, row-major array of scalars.

    Static shapes are a deliberate restriction: the ARGO flow needs to know
    buffer sizes at compile time to compute the memory map and the worst-case
    number of shared-memory accesses.
    """

    element: ScalarType
    shape: Tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.shape:
            raise ValueError("ArrayType requires a non-empty shape")
        if any(int(d) <= 0 for d in self.shape):
            raise ValueError(f"array dimensions must be positive, got {self.shape}")
        object.__setattr__(self, "shape", tuple(int(d) for d in self.shape))

    @property
    def num_elements(self) -> int:
        return math.prod(self.shape)

    @property
    def size_bytes(self) -> int:
        return self.num_elements * self.element.size_bytes

    @property
    def ndim(self) -> int:
        return len(self.shape)

    def __str__(self) -> str:
        dims = "".join(f"[{d}]" for d in self.shape)
        return f"{self.element}{dims}"


#: Canonical scalar type instances used throughout the tool chain.
INT = ScalarType(ScalarKind.INT, 4)
FLOAT = ScalarType(ScalarKind.FLOAT, 4)
DOUBLE = ScalarType(ScalarKind.FLOAT, 8)
BOOL = ScalarType(ScalarKind.BOOL, 1)

IRType = ScalarType | ArrayType


def is_array(ty: IRType) -> bool:
    """True when ``ty`` is an :class:`ArrayType`."""
    return isinstance(ty, ArrayType)


def is_scalar(ty: IRType) -> bool:
    """True when ``ty`` is a :class:`ScalarType`."""
    return isinstance(ty, ScalarType)
