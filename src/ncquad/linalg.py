"""Exact dense linear algebra over QQ and the prime fields F_p.

Every elimination runs in one function, ``_int_echelon(rows, ncols, p)``,
on rows of Python integers.  ``_ints`` turns a row of field elements into
integers: over QQ (p == 0) it scales the row by the lcm of its
denominators, and mod p it takes the residues.  With p == 0 the echelon is
fraction-free elimination over Z (Bareiss 1968), which divides exactly by
the previous pivot and so keeps every entry a minor of the input; with
p > 0 it is plain Gauss elimination mod p.  Everything else is read off
that echelon:

* the rank is the number of pivots, and the column space is spanned by
  the original columns at the pivots;
* a kernel vector is back-substituted from the echelon rows
  (``_int_kernel_vector``), over one running denominator on Z, or by a
  direct solve mod p;
* the determinant is the last Bareiss pivot over Z, or the signed
  product of the pivots mod p;
* the inverse is the kernel of [A_int | -diag(l)] at its free columns
  n..2n-1, where A_int = diag(l) A is the row-scaled integer matrix.

Products work on the same integer rows.  A field element is built only
for an output entry (``_maker``): one ``Fraction(num, den)`` over QQ, one
``FpElement`` mod p.  Each result is uniquely determined by
the matrix: the rank, the determinant, the inverse, a product, and the
reduced kernel basis (the identity on the free columns, which are the
complement of the lexicographically first independent set of columns).
Both element types are normal forms, so the results are the same values,
and the same bytes, that elimination on field elements would give.

``Matrix`` accepts only QQ and F_p, and raises ``TypeError`` for any other
field.  The public constructor ``Matrix(field, rows)`` coerces every
entry through ``field.of``, since callers pass ints and strings.  Every
matrix this module builds from its own results is made by
``Matrix._normal``, which takes the entries as they are.  Matrices are
immutable after construction.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import mul

from .fields import FpElement, PrimeField, RationalField


class Matrix:
    """Immutable rectangular matrix over a fixed field."""

    __slots__ = ("field", "nrows", "ncols", "rows")

    def __init__(self, field, rows, ncols: int | None = None):
        if not isinstance(field, (RationalField, PrimeField)):
            raise TypeError(f"matrices are over QQ or F_p, not {field!r}")
        of = field.of
        rows = [tuple(map(of, row)) for row in rows]
        if rows:
            ncols = len(rows[0])
            if any(len(r) != ncols for r in rows):
                raise ValueError("ragged rows")
        elif ncols is None:
            ncols = 0
        self.field = field
        self.nrows = len(rows)
        self.ncols = ncols
        self.rows = tuple(rows)

    @classmethod
    def _normal(cls, field, rows, ncols: int) -> "Matrix":
        """A matrix on rows whose entries are already elements of ``field``
        in normal form: no coercion and no ragged-row check."""
        m = object.__new__(cls)
        m.field = field
        m.rows = tuple(map(tuple, rows))
        m.nrows = len(m.rows)
        m.ncols = ncols
        return m

    @classmethod
    def _normal_cols(cls, field, cols, nrows: int) -> "Matrix":
        """``_normal`` from a list of columns of length ``nrows``."""
        return cls._normal(field, zip(*cols) if cols else [()] * nrows, len(cols))

    @classmethod
    def identity(cls, field, n: int) -> "Matrix":
        one, zero = field.one, field.zero
        return cls._normal(field, [[one if i == j else zero for j in range(n)]
                                   for i in range(n)], n)

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]

    def col(self, j: int) -> tuple:
        return tuple(r[j] for r in self.rows)

    def cols(self) -> list[tuple]:
        return [self.col(j) for j in range(self.ncols)]

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.field == other.field
            and self.nrows == other.nrows
            and self.ncols == other.ncols
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash((self.field, self.nrows, self.ncols, self.rows))

    def __mul__(self, other: "Matrix") -> "Matrix":
        if self.ncols != other.nrows:
            raise ValueError(f"shape mismatch {self.nrows}x{self.ncols} * {other.nrows}x{other.ncols}")
        if other.field != self.field:
            raise ValueError("field mismatch")
        p, make = self.field.characteristic, _maker(self.field)
        left = [_ints(r, p) for r in self.rows]
        right = [_ints(c, p) for c in other.cols()]
        rows = [[make(sum(map(mul, a, b)), la * lb) for b, lb in right] for a, la in left]
        return Matrix._normal(self.field, rows, other.ncols)

    # -- elimination ----------------------------------------------------

    def _echelon(self):
        """``_int_echelon`` of the integer rows of this matrix."""
        p = self.field.characteristic
        return _int_echelon([_ints(r, p)[0] for r in self.rows], self.ncols, p)

    def rank(self) -> int:
        return len(self._echelon()[1])

    def kernel_basis(self) -> "Matrix":
        """Columns form a basis of the right null space.

        rank + (number of returned columns) == ncols, always.
        """
        ech, pivots, _ = self._echelon()
        p, make = self.field.characteristic, _maker(self.field)
        pivot_set = set(pivots)
        cols = []
        for f in range(self.ncols):
            if f not in pivot_set:
                y, den = _int_kernel_vector(ech, pivots, f, self.ncols, p)
                cols.append([make(v, den) for v in y])
        return Matrix._normal_cols(self.field, cols, self.ncols)

    def det(self):
        if self.nrows != self.ncols:
            raise ValueError("determinant of a non-square matrix")
        n = self.nrows
        p, make = self.field.characteristic, _maker(self.field)
        if n == 0:
            return make(1)
        ints = [_ints(r, p) for r in self.rows]
        ech, pivots, sign = _int_echelon([a for a, _ in ints], n, p)
        if len(pivots) < n:
            return make(0)
        if p:
            return make(sign * math.prod(row[r] for r, row in enumerate(ech)))
        return make(sign * ech[-1][-1], math.prod(l for _, l in ints))

    def inverse(self) -> "Matrix":
        """Column j is the x part of the kernel vector of [A_int | -diag(l)]
        at the free column n + j: A_int x = l_j e_j, so A x = e_j."""
        if self.nrows != self.ncols:
            raise ValueError("inverse of a non-square matrix")
        n = self.nrows
        p, make = self.field.characteristic, _maker(self.field)
        aug = []
        for i, r in enumerate(self.rows):
            ints, lcm = _ints(r, p)
            ints.extend(-lcm if j == i else 0 for j in range(n))
            aug.append(ints)
        ech, pivots, _ = _int_echelon(aug, 2 * n, p)
        if n and pivots[-1] != n - 1:
            raise ValueError("matrix is singular")
        cols = []
        for j in range(n):
            y, den = _int_kernel_vector(ech, pivots, n + j, 2 * n, p)
            cols.append([make(v, den) for v in y[:n]])
        return Matrix._normal_cols(self.field, cols, n)

    def __repr__(self) -> str:
        if self.nrows == 0 or self.ncols == 0:
            return f"Matrix({self.field!r}, {self.nrows}x{self.ncols})"
        body = "; ".join(" ".join(str(x) for x in r) for r in self.rows)
        return f"Matrix({self.field!r}, [{body}])"


def _maker(field):
    """The constructor of one output entry num / den: ``Fraction`` over QQ;
    mod p every den is 1, so an ``FpElement`` of num."""
    if isinstance(field, RationalField):
        return Fraction
    return lambda num, den=1: FpElement(num, field)


def _ints(row, p) -> tuple[list[int], int]:
    """(ints, l) with row == ints / l: over QQ (p == 0) l is the lcm of the
    denominators; mod p the ints are the residues and l is 1."""
    if p:
        return [x.value for x in row], 1
    lcm = math.lcm(*[x.denominator for x in row])
    if lcm == 1:
        return [x.numerator for x in row], 1
    return [x.numerator * (lcm // x.denominator) for x in row], lcm


def _int_echelon(rows, ncols, p):
    """Row echelon form of integer rows, eliminated in place:
    (nonzero rows, pivot columns, sign of the row permutation).

    With p == 0 this is fraction-free Bareiss elimination over Z: every
    division is exact, and the last pivot of a nonsingular square matrix
    is its determinant up to that sign.  With p > 0 it is Gauss
    elimination on residues mod p, with the pivot rows left unscaled.
    """
    m = len(rows)
    pivots = []
    r = 0
    prev = sign = 1
    for c in range(ncols):
        piv = None
        for i in range(r, m):
            if rows[i][c]:
                piv = i
                break
        if piv is None:
            continue
        if piv != r:
            rows[r], rows[piv] = rows[piv], rows[r]
            sign = -sign
        pc = rows[r][c]
        if p:
            inv, prow = pow(pc, -1, p), rows[r][c:]
            for i in range(r + 1, m):
                f = rows[i][c] * inv % p
                if f:
                    rows[i][c:] = [(a - f * b) % p for a, b in zip(rows[i][c:], prow)]
        else:
            for i in range(r + 1, m):
                ric = rows[i][c]
                for j in range(c, ncols):
                    rows[i][j] = (pc * rows[i][j] - ric * rows[r][j]) // prev
            prev = pc
        pivots.append(c)
        r += 1
        if r == m:
            break
    return rows[:r], pivots, sign


def _int_kernel_vector(ech, pivots, f, ncols, p) -> tuple[list[int], int]:
    """(y, den) such that y / den is the reduced kernel vector of the
    echelon rows that is 1 at the free column f and 0 at the other free
    columns.

    Over Z, back-substitution keeps the vector as integers over one
    running denominator; each step divides out the gcd of the new entry's
    numerator and pivot before widening that denominator.  Mod p each
    pivot coordinate is solved directly, and den is 1.
    """
    y = [0] * ncols
    y[f] = den = 1
    for r in range(len(pivots) - 1, -1, -1):
        row, pc = ech[r], pivots[r]
        s = sum(map(mul, row[pc + 1:], y[pc + 1:]))
        if not s:
            continue
        if p:
            y[pc] = -s * pow(row[pc], -1, p) % p
            continue
        piv = row[pc]
        g = math.gcd(s, piv)
        s, piv = s // g, piv // g
        if piv != 1:
            y = [v * piv for v in y]
            den *= piv
        y[pc] = -s
    return y, den


def column_space_basis(m: Matrix) -> Matrix:
    """The original columns of m sitting at the pivot positions."""
    pivots = m._echelon()[1]
    return Matrix._normal(m.field, [[r[j] for j in pivots] for r in m.rows], len(pivots))
