"""Exact dense linear algebra over the scalar fields.

Over the rationals every operation runs on Python integers: each row (for
a product, each column of the right factor too) is scaled once by the lcm
of its denominators, the work is done on those integer rows, and each
output entry is built as a single ``Fraction(num, den)``.  Rank and
kernels use fraction-free (Bareiss) elimination, which keeps intermediate
entries polynomially bounded, and the inverse uses fraction-free
Gauss-Jordan elimination.  The results are the same values, and so the
same bytes, as plain Fraction elimination would give, because each is
uniquely determined by the matrix: the rank, the determinant, the
inverse, a product, and the reduced kernel basis (the identity on the
free columns, which are the complement of the lexicographically first
independent set of columns).  ``Fraction`` is a normal form, so equal
values are equal objects.

Prime fields and quadratic extensions use plain Gauss elimination on
field elements.  Matrices are immutable after construction.

The public constructors (``Matrix(field, rows)``, ``Matrix.from_cols``)
coerce every entry through ``field.of``, since callers pass ints and
strings.  Every matrix this module builds from its own results
(transposes, sums, products, stacks, inverses, kernels, column spaces,
intersections) is made by ``Matrix._normal``, which takes the entries as
they are: field arithmetic already returns elements in normal form.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import mul

from .fields import RationalField


class Matrix:
    """Immutable rectangular matrix over a fixed field."""

    __slots__ = ("field", "nrows", "ncols", "rows")

    def __init__(self, field, rows, ncols: int | None = None):
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

    @classmethod
    def zeros(cls, field, nrows: int, ncols: int) -> "Matrix":
        return cls._normal(field, [[field.zero] * ncols] * nrows, ncols)

    @classmethod
    def from_cols(cls, field, cols, nrows: int | None = None) -> "Matrix":
        cols = [tuple(c) for c in cols]
        if cols:
            nrows = len(cols[0])
            return cls(field, [[cols[j][i] for j in range(len(cols))] for i in range(nrows)])
        if nrows is None:
            raise ValueError("empty column list needs an explicit nrows")
        return cls(field, [()] * nrows, ncols=0)

    def entry(self, i: int, j: int):
        return self.rows[i][j]

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]

    def row(self, i: int) -> tuple:
        return self.rows[i]

    def col(self, j: int) -> tuple:
        return tuple(r[j] for r in self.rows)

    def cols(self) -> list[tuple]:
        return [self.col(j) for j in range(self.ncols)]

    def transpose(self) -> "Matrix":
        return Matrix._normal_cols(self.field, self.rows, self.ncols)

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

    def __add__(self, other: "Matrix") -> "Matrix":
        self._shape_check(other)
        return Matrix._normal(
            self.field,
            [[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(self.rows, other.rows)],
            self.ncols,
        )

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._shape_check(other)
        return Matrix._normal(
            self.field,
            [[a - b for a, b in zip(r1, r2)] for r1, r2 in zip(self.rows, other.rows)],
            self.ncols,
        )

    def __neg__(self) -> "Matrix":
        return Matrix._normal(self.field, [[-a for a in r] for r in self.rows], self.ncols)

    def scale(self, c) -> "Matrix":
        c = self.field.of(c)
        return Matrix._normal(self.field, [[c * a for a in r] for r in self.rows], self.ncols)

    def __mul__(self, other):
        if not isinstance(other, Matrix):
            return self.scale(other)
        if self.ncols != other.nrows:
            raise ValueError(f"shape mismatch {self.nrows}x{self.ncols} * {other.nrows}x{other.ncols}")
        if isinstance(self.field, RationalField):
            left = [_int_row(r) for r in self.rows]
            right = [_int_row(c) for c in other.cols()]
            rows = [[Fraction(sum(map(mul, a, b)), la * lb) for b, lb in right] for a, la in left]
        else:
            ocols = other.cols()
            rows = [[_dot(r, c, self.field) for c in ocols] for r in self.rows]
        return Matrix._normal(self.field, rows, other.ncols)

    def __rmul__(self, other):
        return self.scale(other)

    def apply(self, vec) -> tuple:
        """Matrix times column vector (given as an iterable)."""
        vec = tuple(self.field.of(x) for x in vec)
        if len(vec) != self.ncols:
            raise ValueError("vector length mismatch")
        if isinstance(self.field, RationalField):
            v, lv = _int_row(vec)
            return tuple(Fraction(sum(map(mul, a, v)), la * lv)
                         for a, la in map(_int_row, self.rows))
        return tuple(_dot(r, vec, self.field) for r in self.rows)

    def hstack(self, other: "Matrix") -> "Matrix":
        if other.nrows != self.nrows:
            raise ValueError("row count mismatch in hstack")
        if other.field != self.field:
            raise ValueError("field mismatch")
        return Matrix._normal(
            self.field,
            [r1 + r2 for r1, r2 in zip(self.rows, other.rows)],
            self.ncols + other.ncols,
        )

    def _shape_check(self, other: "Matrix"):
        if self.nrows != other.nrows or self.ncols != other.ncols:
            raise ValueError("shape mismatch")
        if self.field != other.field:
            raise ValueError("field mismatch")

    # -- elimination ----------------------------------------------------

    def _echelon(self):
        """Row echelon data: (rows, pivot column list).

        Over QQ the rows are integer valued (Bareiss); over other fields
        plain elimination is used.  Only the row space matters to callers.
        """
        if isinstance(self.field, RationalField):
            return _bareiss_echelon([_int_row(r)[0] for r in self.rows], self.ncols)
        return _field_echelon([list(r) for r in self.rows], self.ncols)

    def rank(self) -> int:
        return len(self._echelon()[1])

    def kernel_basis(self) -> "Matrix":
        """Columns form a basis of the right null space.

        rank + (number of returned columns) == ncols, always.
        """
        ech, pivots = self._echelon()
        pivot_set = set(pivots)
        free = [c for c in range(self.ncols) if c not in pivot_set]
        if isinstance(self.field, RationalField):
            cols = [_int_kernel_vector(ech, pivots, f, self.ncols) for f in free]
            return Matrix._normal_cols(self.field, cols, self.ncols)
        zero, one = self.field.zero, self.field.one
        cols = []
        for f in free:
            x = [zero] * self.ncols
            x[f] = one
            # back-substitute pivot coordinates, bottom row first
            for r in range(len(pivots) - 1, -1, -1):
                pc = pivots[r]
                s = zero
                for c in range(pc + 1, self.ncols):
                    if x[c] != zero:
                        s = s + self.field.of(ech[r][c] / ech[r][pc]) * x[c]
                x[pc] = -s
            cols.append(x)
        return Matrix._normal_cols(self.field, cols, self.ncols)

    def det(self):
        if self.nrows != self.ncols:
            raise ValueError("determinant of a non-square matrix")
        n = self.nrows
        if n == 0:
            return self.field.one
        if isinstance(self.field, RationalField):
            int_rows, scale = [], 1
            for r in self.rows:
                ints, lcm = _int_row(r)
                int_rows.append(ints)
                scale *= lcm
            d, sign = _bareiss_det(int_rows)
            return Fraction(sign * d, scale)
        rows = [list(r) for r in self.rows]
        det = self.field.one
        for c in range(n):
            piv = None
            for i in range(c, n):
                if rows[i][c]:
                    piv = i
                    break
            if piv is None:
                return self.field.zero
            if piv != c:
                rows[c], rows[piv] = rows[piv], rows[c]
                det = -det
            det = det * rows[c][c]
            inv = self.field.one / rows[c][c]
            for i in range(c + 1, n):
                if rows[i][c]:
                    f = rows[i][c] * inv
                    for j in range(c, n):
                        rows[i][j] = rows[i][j] - f * rows[c][j]
        return det

    def inverse(self) -> "Matrix":
        if self.nrows != self.ncols:
            raise ValueError("inverse of a non-square matrix")
        n = self.nrows
        if isinstance(self.field, RationalField):
            return Matrix._normal(self.field, _int_inverse(self.rows), n)
        aug = [list(r) + [self.field.one if i == j else self.field.zero for j in range(n)]
               for i, r in enumerate(self.rows)]
        for c in range(n):
            piv = None
            for i in range(c, n):
                if aug[i][c]:
                    piv = i
                    break
            if piv is None:
                raise ValueError("matrix is singular")
            aug[c], aug[piv] = aug[piv], aug[c]
            inv = self.field.one / aug[c][c]
            aug[c] = [x * inv for x in aug[c]]
            for i in range(n):
                if i != c and aug[i][c]:
                    f = aug[i][c]
                    aug[i] = [x - f * y for x, y in zip(aug[i], aug[c])]
        return Matrix._normal(self.field, [r[n:] for r in aug], n)

    def is_zero(self) -> bool:
        return all(not x for r in self.rows for x in r)

    def __repr__(self) -> str:
        if self.nrows == 0 or self.ncols == 0:
            return f"Matrix({self.field!r}, {self.nrows}x{self.ncols})"
        body = "; ".join(" ".join(str(x) for x in r) for r in self.rows)
        return f"Matrix({self.field!r}, [{body}])"


def _dot(u, v, field):
    s = field.zero
    for a, b in zip(u, v):
        s = s + a * b
    return s


def _int_row(row) -> tuple[list[int], int]:
    """(ints, l) with row == ints / l, l the lcm of the denominators."""
    lcm = math.lcm(*[x.denominator for x in row])
    if lcm == 1:
        return [x.numerator for x in row], 1
    return [x.numerator * (lcm // x.denominator) for x in row], lcm


def _bareiss_echelon(rows, ncols):
    """Fraction-free row echelon form of integer rows, eliminated in place;
    exact divisions only."""
    m = len(rows)
    pivots = []
    r = 0
    prev = 1
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
        pc = rows[r][c]
        for i in range(r + 1, m):
            ric = rows[i][c]
            for j in range(c, ncols):
                rows[i][j] = (pc * rows[i][j] - ric * rows[r][j]) // prev
        prev = pc
        pivots.append(c)
        r += 1
        if r == m:
            break
    return rows[:r], pivots


def _int_kernel_vector(ech, pivots, f, ncols) -> list[Fraction]:
    """The reduced kernel vector of integer echelon rows that is 1 at the
    free column f and 0 at the other free columns.

    Back-substitution keeps the vector as integers over one running
    denominator; each step divides out the gcd of the new entry's
    numerator and pivot before widening that denominator.
    """
    y = [0] * ncols
    y[f] = den = 1
    for r in range(len(pivots) - 1, -1, -1):
        row, pc = ech[r], pivots[r]
        s = sum(map(mul, row[pc + 1:], y[pc + 1:]))
        if s:
            p = row[pc]
            g = math.gcd(s, p)
            s, p = s // g, p // g
            if p != 1:
                y = [v * p for v in y]
                den *= p
            y[pc] = -s
    return [Fraction(v, den) for v in y]


def _int_inverse(rows) -> list[list[Fraction]]:
    """Inverse of a square rational matrix by fraction-free Gauss-Jordan
    elimination on [A_int | I], A_int the row-wise denominator-cleared
    matrix.

    Each step divides exactly by the previous pivot, so the left block
    ends as d*I with d = det(A_int) up to sign, and the right block as
    d * A_int^{-1}.  Row j of A is row j of A_int over l_j, so entry
    (i, j) of A^{-1} is right[i][j] * l_j / d.
    """
    n = len(rows)
    aug, lcms = [], []
    for i, r in enumerate(rows):
        ints, lcm = _int_row(r)
        ints.extend(1 if j == i else 0 for j in range(n))
        aug.append(ints)
        lcms.append(lcm)
    prev = 1
    for c in range(n):
        piv = None
        for i in range(c, n):
            if aug[i][c]:
                piv = i
                break
        if piv is None:
            raise ValueError("matrix is singular")
        aug[c], aug[piv] = aug[piv], aug[c]
        prow = aug[c]
        pc = prow[c]
        for i in range(n):
            if i != c:
                f = aug[i][c]
                aug[i] = [(pc * a - f * b) // prev for a, b in zip(aug[i], prow)]
        prev = pc
    return [[Fraction(r[n + j] * lcms[j], prev) for j in range(n)] for r in aug]


def _bareiss_det(rows) -> tuple[int, int]:
    """(|minor chain value|, sign) of a square integer matrix via Bareiss."""
    n = len(rows)
    sign = 1
    prev = 1
    for c in range(n - 1):
        piv = None
        for i in range(c, n):
            if rows[i][c]:
                piv = i
                break
        if piv is None:
            return 0, 1
        if piv != c:
            rows[c], rows[piv] = rows[piv], rows[c]
            sign = -sign
        pc = rows[c][c]
        for i in range(c + 1, n):
            ric = rows[i][c]
            for j in range(c, n):
                rows[i][j] = (pc * rows[i][j] - ric * rows[c][j]) // prev
        prev = pc
    return rows[n - 1][n - 1], sign


def _field_echelon(rows, ncols):
    m = len(rows)
    pivots = []
    r = 0
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
        for i in range(r + 1, m):
            if rows[i][c]:
                f = rows[i][c] / rows[r][c]
                for j in range(c, ncols):
                    rows[i][j] = rows[i][j] - f * rows[r][j]
        pivots.append(c)
        r += 1
        if r == m:
            break
    return rows[:r], pivots


# -- subspaces (column spans) -------------------------------------------


def column_space_basis(m: Matrix) -> Matrix:
    """The original columns of m sitting at the pivot positions."""
    _, pivots = m._echelon()
    return Matrix._normal(m.field, [[r[j] for j in pivots] for r in m.rows], len(pivots))


def span_contains(space: Matrix, vec) -> bool:
    v = Matrix.from_cols(space.field, [tuple(space.field.of(x) for x in vec)])
    if v.nrows != space.nrows:
        raise ValueError("ambient mismatch")
    return space.hstack(v).rank() == space.rank()


def intersect_subspaces(a: Matrix, b: Matrix) -> Matrix:
    """Basis of (column span of a) intersect (column span of b).

    Solves a.x = b.y: kernel vectors (x; y) of [a | -b] are mapped through
    a, then pruned to an independent set.  dim satisfies
    dim(a) + dim(b) - dim(a + b).
    """
    if a.field != b.field:
        raise ValueError("field mismatch")
    if a.nrows != b.nrows:
        raise ValueError("ambient mismatch")
    if a.ncols == 0 or b.ncols == 0:
        return Matrix._normal_cols(a.field, [], a.nrows)
    ker = a.hstack(-b).kernel_basis()
    cand = []
    for j in range(ker.ncols):
        x = ker.col(j)[: a.ncols]
        cand.append(a.apply(x))
    return column_space_basis(Matrix._normal_cols(a.field, cand, a.nrows))
