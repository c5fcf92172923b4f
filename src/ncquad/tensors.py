"""Multilinear algebra: dense tensors with labeled slots and their
flattenings into matrices.

Shapes stay tiny here (axes of length 2, arity at most 4); entries are
exact scalars, stored flat in row-major order.  A flattening is a pure
copy: ``reshape`` reads the flat entry index of every matrix cell from a
table cached per (shape, row slots, column slots) and moves the entries,
already in normal form, into the matrix without arithmetic or coercion.
"""

from __future__ import annotations

from functools import cache

from .linalg import Matrix


def _strides(shape) -> list[int]:
    strides = [1] * len(shape)
    for k in range(len(shape) - 2, -1, -1):
        strides[k] = strides[k + 1] * shape[k + 1]
    return strides


@cache
def _flattening_index(shape, row_slots, col_slots):
    """(rows, ncols): for each matrix row, the flat entry indices of its
    cells, for the flattening of a tensor of ``shape`` with multi-indices
    over ``row_slots`` and ``col_slots`` (row-major in each group)."""
    strides = _strides(shape)

    def offsets(group):
        out = [0]
        for s in group:
            out = [o + i * strides[s] for o in out for i in range(shape[s])]
        return out

    cols = offsets(col_slots)
    return tuple(tuple(r + c for c in cols) for r in offsets(row_slots)), len(cols)


class Tensor:
    __slots__ = ("field", "shape", "slots", "entries")

    def __init__(self, field, shape, entries, slots):
        shape = tuple(int(s) for s in shape)
        slots = tuple(slots)
        if len(slots) != len(shape):
            raise ValueError("one slot label per axis")
        if len(set(slots)) != len(slots):
            raise ValueError("slot labels must be pairwise distinct")
        entries = tuple(field.of(x) for x in entries)
        size = 1
        for s in shape:
            size *= s
        if len(entries) != size:
            raise ValueError(f"expected {size} entries, got {len(entries)}")
        self.field = field
        self.shape = shape
        self.slots = slots
        self.entries = entries

    @property
    def arity(self) -> int:
        return len(self.shape)

    def entry(self, idx):
        flat = sum(i * s for i, s in zip(idx, _strides(self.shape)))
        return self.entries[flat]

    def is_zero(self) -> bool:
        return all(not x for x in self.entries)

    def reshape(self, row_slots, col_slots) -> Matrix:
        """Matrix whose (row, col) multi-indices run over the given slot
        positions, row-major in each group; an empty group gives one row
        (or column)."""
        row_slots = tuple(row_slots)
        col_slots = tuple(col_slots)
        if sorted(row_slots + col_slots) != list(range(self.arity)):
            raise ValueError("row and column slots must partition the axes")
        table, ncols = _flattening_index(self.shape, row_slots, col_slots)
        pick = self.entries.__getitem__
        return Matrix._normal(self.field, [tuple(map(pick, row)) for row in table], ncols)

    def flatten(self) -> tuple:
        return self.entries

    def as_nested(self):
        def build(depth, offset, strides):
            if depth == self.arity:
                return self.entries[offset]
            return [
                build(depth + 1, offset + i * strides[depth], strides)
                for i in range(self.shape[depth])
            ]

        return build(0, 0, _strides(self.shape))

    def __eq__(self, other):
        return (
            isinstance(other, Tensor)
            and self.field == other.field
            and self.shape == other.shape
            and self.slots == other.slots
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.field, self.shape, self.slots, self.entries))

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, slots={self.slots})"
