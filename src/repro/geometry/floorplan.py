"""Rectangular floorplans of active stack layers.

A floorplan is a set of non-overlapping rectangular blocks (cores, caches,
crossbar/IO) inside a die outline.  The thermal model rasterises the
floorplan onto its cell grid to distribute block power over cells, and the
power model owns per-block power states, so `Block` carries a ``kind`` tag
that both sides agree on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

import numpy as np

CORE = "core"
CACHE = "cache"
OTHER = "other"
BLOCK_KINDS = (CORE, CACHE, OTHER)


@dataclass(frozen=True)
class Block:
    """An axis-aligned rectangular floorplan block.

    Attributes
    ----------
    name:
        Unique block identifier within its floorplan (e.g. ``"core3"``).
    x, y:
        Lower-left corner coordinates [m].
    width, height:
        Extents along x and y [m].
    kind:
        One of ``"core"``, ``"cache"`` or ``"other"``.
    """

    name: str
    x: float
    y: float
    width: float
    height: float
    kind: str = OTHER

    def __post_init__(self) -> None:
        if self.width <= 0.0 or self.height <= 0.0:
            raise ValueError(f"block {self.name}: extents must be positive")
        if self.x < 0.0 or self.y < 0.0:
            raise ValueError(f"block {self.name}: corner must be non-negative")
        if self.kind not in BLOCK_KINDS:
            raise ValueError(f"block {self.name}: unknown kind {self.kind!r}")

    @property
    def area(self) -> float:
        """Block area [m^2]."""
        return self.width * self.height

    @property
    def x2(self) -> float:
        """Upper x coordinate [m]."""
        return self.x + self.width

    @property
    def y2(self) -> float:
        """Upper y coordinate [m]."""
        return self.y + self.height

    def contains(self, x: float, y: float) -> bool:
        """Whether the point ``(x, y)`` lies inside the block."""
        return self.x <= x < self.x2 and self.y <= y < self.y2

    def overlaps(self, other: "Block") -> bool:
        """Whether this block's interior intersects another's."""
        return not (
            self.x2 <= other.x
            or other.x2 <= self.x
            or self.y2 <= other.y
            or other.y2 <= self.y
        )


class Floorplan:
    """A die outline populated with non-overlapping blocks.

    Parameters
    ----------
    width, height:
        Die extents [m].
    blocks:
        Blocks to place; all must fit inside the outline and must not
        overlap each other.
    name:
        Optional identifier (e.g. ``"core tier"``).
    """

    def __init__(
        self,
        width: float,
        height: float,
        blocks: Sequence[Block],
        name: str = "floorplan",
    ) -> None:
        if width <= 0.0 or height <= 0.0:
            raise ValueError("die extents must be positive")
        self.width = float(width)
        self.height = float(height)
        self.name = name
        self.blocks: List[Block] = list(blocks)
        self._index: Dict[str, int] = {}
        self._validate()

    def _validate(self) -> None:
        for i, block in enumerate(self.blocks):
            if block.name in self._index:
                raise ValueError(f"duplicate block name {block.name!r}")
            self._index[block.name] = i
            tol = 1e-9
            if block.x2 > self.width + tol or block.y2 > self.height + tol:
                raise ValueError(
                    f"block {block.name} extends outside the {self.name} outline"
                )
        for i, a in enumerate(self.blocks):
            for b in self.blocks[i + 1 :]:
                if a.overlaps(b):
                    raise ValueError(f"blocks {a.name} and {b.name} overlap")

    # -- queries ------------------------------------------------------------

    @property
    def area(self) -> float:
        """Die area [m^2]."""
        return self.width * self.height

    @property
    def block_names(self) -> List[str]:
        """Block names in placement order."""
        return [b.name for b in self.blocks]

    def block(self, name: str) -> Block:
        """Look a block up by name."""
        return self.blocks[self._index[name]]

    def blocks_of_kind(self, kind: str) -> List[Block]:
        """All blocks of a given kind, in placement order."""
        return [b for b in self.blocks if b.kind == kind]

    def occupied_area(self) -> float:
        """Total area covered by blocks [m^2]."""
        return sum(b.area for b in self.blocks)

    def coverage(self) -> float:
        """Fraction of the die outline covered by blocks [-]."""
        return self.occupied_area() / self.area

    # -- rasterisation --------------------------------------------------------

    def rasterise(self, nx: int, ny: int) -> np.ndarray:
        """Map the floorplan onto a regular cell grid.

        Each cell is assigned the index of the block whose interior
        contains the cell centre, or ``-1`` when the centre falls in
        unoccupied die area.

        Parameters
        ----------
        nx, ny:
            Number of grid cells along x and y.

        Returns
        -------
        numpy.ndarray
            Integer array of shape ``(ny, nx)`` with block indices.
        """
        if nx <= 0 or ny <= 0:
            raise ValueError("grid dimensions must be positive")
        xs = (np.arange(nx) + 0.5) * (self.width / nx)
        ys = (np.arange(ny) + 0.5) * (self.height / ny)
        owner = np.full((ny, nx), -1, dtype=int)
        for idx, block in enumerate(self.blocks):
            in_x = (xs >= block.x) & (xs < block.x2)
            in_y = (ys >= block.y) & (ys < block.y2)
            owner[np.ix_(in_y, in_x)] = idx
        return owner

    def cell_area_fractions(self, nx: int, ny: int) -> Dict[str, np.ndarray]:
        """Per-block boolean masks over the rasterised grid.

        Returns a mapping from block name to a ``(ny, nx)`` boolean mask of
        the cells whose centres the block owns.  Power models divide each
        block's power evenly over its masked cells.
        """
        owner = self.rasterise(nx, ny)
        return {
            block.name: owner == idx for idx, block in enumerate(self.blocks)
        }

    def __repr__(self) -> str:
        return (
            f"Floorplan({self.name!r}, {self.width * 1e3:.2f} x "
            f"{self.height * 1e3:.2f} mm, {len(self.blocks)} blocks)"
        )


def grid_aligned(value: float, pitch: float) -> float:
    """Snap a coordinate to an integer multiple of ``pitch``.

    Helper for constructing floorplans whose block edges coincide with the
    thermal-grid cell boundaries, which removes rasterisation aliasing.
    """
    if pitch <= 0.0:
        raise ValueError("pitch must be positive")
    return round(value / pitch) * pitch


def total_area_by_kind(floorplan: Floorplan) -> Dict[str, float]:
    """Aggregate block area per kind [m^2]."""
    totals: Dict[str, float] = {kind: 0.0 for kind in BLOCK_KINDS}
    for block in floorplan.blocks:
        totals[block.kind] += block.area
    return totals
