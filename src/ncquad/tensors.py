"""The tensor w in V0 x V1 x V2 x V3, each V_i of dimension 2, and its
flattenings into matrices.

``Tensor`` holds only w: shape (2, 2, 2, 2) and slot labels V0..V3 are
class constants, and any other shape or labelling is refused.  The 16
entries are the one integer row of a ``Matrix``, row-major (flat index
8*i0 + 4*i1 + 2*i2 + i3): ``Tensor`` coerces scalars of QQ or F_p into it
by ``_integers``, and ``_of_row`` wraps a row of integers as it is.  A
flattening is a pure copy: ``reshape`` gathers the entries of w's row
by a pick table compiled once per (row slots, column slots), without
arithmetic or coercion.
"""

from __future__ import annotations

from functools import cache

from .linalg import Matrix, _integers, _pick, _Picks

SLOT_LABELS = ("V0", "V1", "V2", "V3")


@cache
def _flattening_index(row_slots, col_slots):
    """The compiled pick table of the flat entry index of every cell,
    row-major, of the flattening of w with multi-indices over ``row_slots``
    and ``col_slots`` (row-major in each group); slot s has stride 8 >> s."""
    def offsets(group):
        out = [0]
        for s in group:
            out = [o + i * (8 >> s) for o in out for i in range(2)]
        return out

    rows, cols = offsets(row_slots), offsets(col_slots)
    return _Picks(len(rows), len(cols), [r + c for r in rows for c in cols], 16)


class Tensor:
    """w in V0 x V1 x V2 x V3; ``Tensor(field, shape, entries, slots)``
    raises ``ValueError`` unless shape is (2, 2, 2, 2), slots are V0..V3
    and there are 16 entries."""

    __slots__ = ("field", "_row")
    shape = (2, 2, 2, 2)
    slots = SLOT_LABELS

    def __init__(self, field, shape, entries, slots):
        if tuple(shape) != self.shape or tuple(slots) != self.slots:
            raise ValueError("w must have shape (2,2,2,2) with slots V0..V3")
        num, den = _integers(field, entries)
        if len(num) != 16:
            raise ValueError(f"expected 16 entries, got {len(num)}")
        self.field = field
        self._row = Matrix(field, num, den, 1, 16)

    def reshape(self, row_slots, col_slots) -> Matrix:
        """Matrix whose (row, col) multi-indices run over the given slot
        positions, row-major in each group; an empty group gives one row
        (or column)."""
        row_slots, col_slots = tuple(row_slots), tuple(col_slots)
        if sorted(row_slots + col_slots) != [0, 1, 2, 3]:
            raise ValueError("row and column slots must partition the axes")
        return _pick(self._row, _flattening_index(row_slots, col_slots))

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, slots={self.slots})"


def _of_row(row: Matrix) -> Tensor:
    """w whose entries are the 1 x 16 integer row ``row``, kept as is."""
    w = object.__new__(Tensor)
    w.field, w._row = row.field, row
    return w
