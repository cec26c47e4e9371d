"""Shared machinery of the vectorised thermal-model assembly.

Floating-point addition is not associative, so a naive COO build makes
the assembled matrix depend on the order in which duplicate ``(row,
col)`` entries are summed.  The compact model sidesteps the problem
structurally: every *off-diagonal* entry of the conductance matrix is
written by exactly one physical phase (one lateral edge, one vertical
coupling, one bypass, one advection stencil), so off-diagonals are
duplicate-free and any build order yields the identical matrix.  Only
the *diagonal* accumulates; :class:`ConductanceBuilder` records the
phases' diagonal contributions in emission order and reduces them with
a single ``np.bincount`` at build time — a plain sequential sum per
cell over that order.

Two builds are therefore bit-for-bit identical whenever they

* emit the same physical phases in the same order, and
* use one conductance value per phase (all current phases do), which
  makes the *within*-phase edge order irrelevant: each cell's diagonal
  sums the same constant the same number of times in the same phase
  sequence, and off-diagonal values are attached to unique positions.

The loop-built reference implementation in
``tests/reference_assembly.py`` relies on exactly this contract: it
derives each phase's edge list with explicit Python loops, feeds it to
the shared builder phase by phase, and reproduces the production
matrices exactly.
"""

from __future__ import annotations

from typing import List

import numpy as np
from scipy.sparse import coo_matrix, csr_matrix


class ConductanceBuilder:
    """Accumulates a conductance matrix as dense diagonal + unique COO.

    Phases append off-diagonal index/value arrays and diagonal
    contributions (cheap, no per-cell Python work); :meth:`to_csr`
    materialises the canonical CSR matrix.  The duplicate-free
    off-diagonal contract is checked at build time.

    Parameters
    ----------
    n:
        Matrix dimension (number of thermal nodes).
    """

    def __init__(self, n: int) -> None:
        if n < 1:
            raise ValueError("matrix dimension must be positive")
        self.n = int(n)
        self._diag_idx: List[np.ndarray] = []
        self._diag_val: List[np.ndarray] = []
        self._rows: List[np.ndarray] = []
        self._cols: List[np.ndarray] = []
        self._vals: List[np.ndarray] = []

    def add_edges(self, i: np.ndarray, j: np.ndarray, g) -> None:
        """Append conductance edges between node index arrays.

        Every edge ``(i_k, j_k)`` with conductance ``g_k`` contributes
        ``+g`` to both diagonal entries and ``-g`` to both off-diagonal
        entries — the vectorised equivalent of the classic ``add_edge``
        helper.  ``g`` may be a scalar or a per-edge array.  No edge may
        duplicate an off-diagonal position written by any other call.
        """
        i = np.asarray(i, dtype=np.int32).ravel()
        j = np.asarray(j, dtype=np.int32).ravel()
        if i.size != j.size:
            raise ValueError("edge endpoint arrays must have equal length")
        g = np.broadcast_to(np.asarray(g, dtype=np.float64), i.shape)
        self._diag_idx += [i, j]
        self._diag_val += [g, g]
        neg = -g
        self._rows += [i, j]
        self._cols += [j, i]
        self._vals += [neg, neg]

    def add_diagonal(self, cells: np.ndarray, g) -> None:
        """Add ``g`` (scalar or per-cell) to the given diagonal entries."""
        cells = np.asarray(cells, dtype=np.int32).ravel()
        self._diag_idx.append(cells)
        self._diag_val.append(
            np.broadcast_to(np.asarray(g, dtype=np.float64), cells.shape)
        )

    def add_off_diagonal(
        self, rows: np.ndarray, cols: np.ndarray, vals
    ) -> None:
        """Append raw off-diagonal triplets (no duplicates allowed)."""
        rows = np.asarray(rows, dtype=np.int32).ravel()
        cols = np.asarray(cols, dtype=np.int32).ravel()
        if rows.size != cols.size:
            raise ValueError("triplet arrays must have equal length")
        self._rows.append(rows)
        self._cols.append(cols)
        self._vals.append(
            np.broadcast_to(np.asarray(vals, dtype=np.float64), rows.shape)
        )

    def diagonal(self) -> np.ndarray:
        """The accumulated diagonal (one ordered sequential sum per cell).

        ``np.bincount`` with weights adds ``w[k]`` into ``out[idx[k]]``
        for ``k = 0..n-1``, one float add at a time: the sequential
        in-emission-order sum the determinism contract relies on.
        """
        if not self._diag_idx:
            return np.zeros(self.n)
        return np.bincount(
            np.concatenate(self._diag_idx),
            weights=np.concatenate(self._diag_val),
            minlength=self.n,
        )

    def to_csr(self) -> csr_matrix:
        """The canonical CSR matrix of everything accumulated so far.

        Nonzero diagonal entries are merged with the off-diagonal
        triplets; because every stored position is unique the conversion
        never sums floats, making the result independent of scipy's
        internal sort order.
        """
        diag = self.diagonal()
        keep = np.flatnonzero(diag).astype(np.int32)
        row = np.concatenate(self._rows + [keep])
        col = np.concatenate(self._cols + [keep])
        val = np.concatenate(self._vals + [diag[keep]])
        matrix = coo_matrix(
            (val, (row, col)), shape=(self.n, self.n)
        ).tocsr()
        if matrix.nnz != row.size:
            raise AssertionError(
                "duplicate off-diagonal positions in assembly "
                f"({row.size - matrix.nnz} collisions); the deterministic "
                "build contract is violated"
            )
        return matrix
