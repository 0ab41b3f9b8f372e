"""Address-space layout for program arrays.

Arrays are placed in a flat simulated address space in declaration order,
each aligned to ``alignment`` bytes with optional inter-array padding.
Layout determines which cache sets arrays map to, so it is the knob behind
the Exemplar direct-mapped conflict experiment (and the padding ablation
that fixes it).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from ..errors import MachineError
from ..lang.program import Program


@dataclass(frozen=True)
class LayoutPolicy:
    """How arrays are placed: alignment and padding between arrays."""

    alignment: int = 64
    pad_bytes: int = 0
    base_address: int = 0

    def __post_init__(self) -> None:
        if self.alignment <= 0 or self.alignment & (self.alignment - 1):
            raise MachineError("alignment must be a positive power of two")
        if self.pad_bytes < 0 or self.base_address < 0:
            raise MachineError("padding and base address must be non-negative")

    def to_json(self) -> dict[str, int]:
        return {
            "alignment": self.alignment,
            "pad_bytes": self.pad_bytes,
            "base_address": self.base_address,
        }

    @classmethod
    def from_json(cls, data: Mapping[str, int]) -> "LayoutPolicy":
        return cls(
            alignment=int(data.get("alignment", 64)),
            pad_bytes=int(data.get("pad_bytes", 0)),
            base_address=int(data.get("base_address", 0)),
        )


@dataclass(frozen=True)
class ArrayPlacement:
    """Resolved placement of one array."""

    name: str
    base: int
    extents: tuple[int, ...]
    element_size: int

    @property
    def size_bytes(self) -> int:
        n = 1
        for e in self.extents:
            n *= e
        return n * self.element_size

    @property
    def end(self) -> int:
        return self.base + self.size_bytes

    @property
    def strides(self) -> tuple[int, ...]:
        """Row-major element strides (in elements) per dimension."""
        strides = [1] * len(self.extents)
        for d in range(len(self.extents) - 2, -1, -1):
            strides[d] = strides[d + 1] * self.extents[d + 1]
        return tuple(strides)


@dataclass(frozen=True)
class MemoryLayout:
    """Placement of every array of a program instance."""

    placements: Mapping[str, ArrayPlacement]
    policy: LayoutPolicy

    def __getitem__(self, name: str) -> ArrayPlacement:
        try:
            return self.placements[name]
        except KeyError as exc:
            raise MachineError(f"array {name!r} has no placement") from exc

    def __contains__(self, name: str) -> bool:
        return name in self.placements

    @property
    def total_bytes(self) -> int:
        if not self.placements:
            return 0
        return max(p.end for p in self.placements.values()) - self.policy.base_address

    def element_address(self, name: str, index: tuple[int, ...]) -> int:
        """Byte address of one element (bounds-checked); scalar debugging aid."""
        p = self[name]
        if len(index) != len(p.extents):
            raise MachineError(f"rank mismatch addressing {name}{index}")
        linear = 0
        for sub, ext, stride in zip(index, p.extents, p.strides):
            if not (0 <= sub < ext):
                raise MachineError(f"index {index} out of bounds for {name}{p.extents}")
            linear += sub * stride
        return p.base + linear * p.element_size

    def element_addresses(
        self,
        name: str,
        subscripts: Sequence[np.ndarray | int],
        out: np.ndarray | None = None,
    ) -> np.ndarray:
        """Vectorized byte addresses ``base + sum_d sub_d * stride_d *
        element_size`` of array ``name``.

        ``subscripts`` holds one integer array or scalar per dimension,
        and they broadcast against each other: open grids (each varying
        along its own axes, size 1 on the others) give the full address
        grid without any subscript being expanded first. The result has
        the broadcast shape. With ``out`` (int64, of a shape the
        subscripts broadcast to, possibly a strided view) it is written
        there and returned; temporaries are sized by the subscripts' own
        shapes, not by ``out``. No bounds check: callers validate the
        subscripts (the trace generator checks each one against its
        extent once per loop nest).
        """
        p = self[name]
        if len(subscripts) != len(p.extents):
            raise MachineError(f"rank mismatch addressing {name} with {len(subscripts)} subscripts")
        const = p.base
        terms: list[tuple[np.ndarray, int]] = []
        for sub, stride in zip(subscripts, p.strides):
            sub = np.asarray(sub)
            scale = stride * p.element_size
            if sub.ndim == 0:
                const += int(sub) * scale
            else:
                terms.append((sub, scale))
        shape = np.broadcast_shapes(*(sub.shape for sub, _ in terms))
        if out is None:
            out = np.empty(shape, dtype=np.int64)
        if not terms:
            out[...] = const
            return out
        # Sum the smaller terms first (their partial sum stays small).
        terms.sort(key=lambda t: t[0].size)
        *head, (last, scale) = terms
        partial: np.ndarray | int = const
        for sub, s in head:
            partial = partial + np.multiply(sub, s, dtype=np.int64)
        if last.size == out.size:
            # The largest term is as big as out: build it there in place.
            np.multiply(last, scale, out=out, dtype=np.int64)
            if head or const:
                out += partial
        elif math.prod(shape) < out.size:
            # The address varies along fewer axes than out spans: finish
            # it at its own size, then one broadcasting copy fills out.
            np.copyto(out, partial + np.multiply(last, scale, dtype=np.int64))
        else:
            np.add(np.multiply(last, scale, dtype=np.int64), partial, out=out)
        return out


def build_layout(
    program: Program,
    params: Mapping[str, int] | None = None,
    policy: LayoutPolicy | None = None,
) -> MemoryLayout:
    """Place every declared array of ``program`` under ``policy``."""
    policy = policy or LayoutPolicy()
    env = program.bind_params(params)
    placements: dict[str, ArrayPlacement] = {}
    cursor = policy.base_address
    for decl in program.arrays:
        align = policy.alignment
        cursor = (cursor + align - 1) // align * align
        extents = decl.extents(env)
        placement = ArrayPlacement(decl.name, cursor, extents, decl.dtype.size)
        placements[decl.name] = placement
        cursor = placement.end + policy.pad_bytes
    return MemoryLayout(placements, policy)
