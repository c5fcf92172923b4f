"""Multilinear algebra: dense tensors with labeled slots and their
flattenings into matrices.

Shapes stay tiny here (axes of length 2, arity at most 4); entries are
exact scalars of QQ or F_p, held in row-major order as the one row of a
``Matrix``, so they share its integer form.  A flattening is a pure copy:
``reshape`` reads the flat entry index of every matrix cell from a table
cached per (shape, row slots, column slots) and picks those entries,
without arithmetic or coercion.
"""

from __future__ import annotations

from functools import cache

from .linalg import Matrix, _pick


@cache
def _flattening_index(shape, row_slots, col_slots):
    """(nrows, ncols, picks): the flat entry index of every cell, row-major,
    of the flattening of a tensor of ``shape`` with multi-indices over
    ``row_slots`` and ``col_slots`` (row-major in each group)."""
    strides = [1] * len(shape)
    for k in range(len(shape) - 2, -1, -1):
        strides[k] = strides[k + 1] * shape[k + 1]

    def offsets(group):
        out = [0]
        for s in group:
            out = [o + i * strides[s] for o in out for i in range(shape[s])]
        return out

    rows, cols = offsets(row_slots), offsets(col_slots)
    return len(rows), len(cols), tuple(r + c for r in rows for c in cols)


class Tensor:
    __slots__ = ("field", "shape", "slots", "_row")

    def __init__(self, field, shape, entries, slots):
        shape = tuple(int(s) for s in shape)
        slots = tuple(slots)
        if len(slots) != len(shape):
            raise ValueError("one slot label per axis")
        if len(set(slots)) != len(slots):
            raise ValueError("slot labels must be pairwise distinct")
        row = Matrix(field, [entries])
        size = 1
        for s in shape:
            size *= s
        if row.ncols != size:
            raise ValueError(f"expected {size} entries, got {row.ncols}")
        self.field = field
        self.shape = shape
        self.slots = slots
        self._row = row

    @property
    def arity(self) -> int:
        return len(self.shape)

    def reshape(self, row_slots, col_slots) -> Matrix:
        """Matrix whose (row, col) multi-indices run over the given slot
        positions, row-major in each group; an empty group gives one row
        (or column)."""
        row_slots = tuple(row_slots)
        col_slots = tuple(col_slots)
        if sorted(row_slots + col_slots) != list(range(self.arity)):
            raise ValueError("row and column slots must partition the axes")
        return _pick(self._row, *_flattening_index(self.shape, row_slots, col_slots))

    def __eq__(self, other):
        return (
            isinstance(other, Tensor)
            and self.field == other.field
            and self.shape == other.shape
            and self.slots == other.slots
            and self._row == other._row
        )

    def __hash__(self):
        return hash((self.shape, self.slots, self._row))

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, slots={self.slots})"
