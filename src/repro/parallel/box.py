"""Integer index-space boxes and domain chopping (the AMReX BoxArray).

A :class:`Box` is a half-open rectangle of *cell* indices ``[lo, hi)``.
:func:`chop_domain` splits a domain into boxes of at most ``max_grid_size``
cells per axis — the granularity knob the paper's strong-scaling section
discusses ("one block of cells per device" is the scaling floor).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import DecompositionError


@dataclass(frozen=True)
class Box:
    """A half-open rectangle of cell indices ``[lo, hi)``."""

    lo: Tuple[int, ...]
    hi: Tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.lo) != len(self.hi):
            raise DecompositionError("lo and hi must have the same length")
        if any(h <= l for l, h in zip(self.lo, self.hi)):
            raise DecompositionError(f"empty box {self.lo}..{self.hi}")

    @property
    def ndim(self) -> int:
        return len(self.lo)

    @property
    def shape(self) -> Tuple[int, ...]:
        return tuple(h - l for l, h in zip(self.lo, self.hi))

    @property
    def n_cells(self) -> int:
        return int(np.prod(self.shape))

    def center(self) -> Tuple[float, ...]:
        return tuple(0.5 * (l + h) for l, h in zip(self.lo, self.hi))

    def contains_cell(self, cell: Sequence[int]) -> bool:
        return all(l <= c < h for l, c, h in zip(self.lo, cell, self.hi))

    def intersect(self, other: "Box") -> Optional["Box"]:
        """Overlap box, or None if disjoint."""
        lo = tuple(max(a, b) for a, b in zip(self.lo, other.lo))
        hi = tuple(min(a, b) for a, b in zip(self.hi, other.hi))
        if any(h <= l for l, h in zip(lo, hi)):
            return None
        return Box(lo, hi)

    def grown(self, n: int) -> "Box":
        """Box enlarged by ``n`` cells on every side (the guard region)."""
        return Box(
            tuple(l - n for l in self.lo), tuple(h + n for h in self.hi)
        )

    def shifted(self, offsets: Sequence[int]) -> "Box":
        return Box(
            tuple(l + o for l, o in zip(self.lo, offsets)),
            tuple(h + o for h, o in zip(self.hi, offsets)),
        )

    def is_adjacent(self, other: "Box", guards: int = 1) -> bool:
        """True if ``other`` intersects this box grown by ``guards``."""
        return self.grown(guards).intersect(other) is not None


def chop_domain(
    n_cells: Sequence[int], max_grid_size: int
) -> List[Box]:
    """Split ``[0, n_cells)`` into boxes of at most ``max_grid_size`` per axis.

    Every axis is divided into near-equal segments; the resulting boxes
    tile the domain exactly.
    """
    if max_grid_size < 1:
        raise DecompositionError("max_grid_size must be >= 1")
    per_axis = []
    for n in n_cells:
        n_seg = -(-n // max_grid_size)  # ceil division
        edges = np.linspace(0, n, n_seg + 1).astype(int).tolist()
        per_axis.append(list(zip(edges[:-1], edges[1:])))
    boxes = []
    for combo in product(*per_axis):
        lo = tuple(seg[0] for seg in combo)
        hi = tuple(seg[1] for seg in combo)
        boxes.append(Box(lo, hi))
    return boxes
