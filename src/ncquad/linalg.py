"""Exact dense linear algebra over QQ and the prime fields F_p.

A ``Matrix`` stores integers, never field elements: over QQ integer
numerators, row-major in one flat tuple, over one common positive
denominator (the matrix is ``_num / _den``; equality and hashing compare
the reduced form, ``_key``), over F_p residues in [0, p) with ``_den`` 1.

Every elimination runs in one function, ``_int_echelon(rows, ncols, p)``:
fraction-free Bareiss elimination over Z for p == 0 (Bareiss 1968), whose
exact divisions keep every entry a minor of the input, and Gauss mod p
for p > 0.  A common denominator changes no rank, pivot or kernel.  A
matrix keeps its echelon after the first elimination, so ``rank``,
``_kernel`` and ``det`` of one matrix share it.  Everything else is read
off the echelon:

* the rank is the number of pivots;
* the reduced kernel basis, unique since it is the identity on the free
  columns (the complement of the lexicographically first independent
  columns), is back-substituted by ``_int_kernel_vector`` over one
  positive running denominator on Z, or solved mod p; ``_kernel`` hands
  it out as those integers, and geometricity decides on them;
* the determinant is the last Bareiss pivot over den^n on Z, or the
  signed product of the pivots mod p.

No inverse is eliminated: ``_adjugate`` writes adj N = det N * N^-1 of a
4x4 matrix from 2x2 minors, for questions that scaling does not change.
``_pick`` builds a matrix from named entries of another one, negated or
zero, which is how tensors, quivers and the Hom counts assemble their
matrices without arithmetic; ``_pick_kept`` picks from the shared
identity once per process.

Scalars are the plain values they are decided on (``fields``):
``Fraction``s over QQ and ``int`` residues in [0, p) over F_p.
``Matrix(field, rows)`` coerces every entry through ``field.of``, since
callers pass ints and strings, and ``build_type_a`` reads its
coefficients as such a 1x3 row to decide the excluded locus on integers.
``rows`` and ``det`` build each entry on demand (``_elements``), one
``Fraction(num, den)`` over QQ or one residue mod p, and geometricity
builds only the witness coordinates a certificate prints.  Both are
normal forms, so they are the values and bytes that elimination on field
elements would give.

``Matrix`` accepts only QQ and F_p, and raises ``TypeError`` for any other
field.  Matrices are immutable; the kept echelon never changes them.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cache
from itertools import repeat
from operator import mul, neg

from .fields import PrimeField, RationalField


class Matrix:
    """Immutable rectangular matrix over a fixed field."""

    __slots__ = ("field", "nrows", "ncols", "_num", "_den", "_ech")

    def __init__(self, field, rows, ncols: int | None = None):
        if not isinstance(field, (RationalField, PrimeField)):
            raise TypeError(f"matrices are over QQ or F_p, not {field!r}")
        rows = [[field.of(x) for x in row] for row in rows]
        if rows:
            ncols = len(rows[0])
            if any(len(r) != ncols for r in rows):
                raise ValueError("ragged rows")
        elif ncols is None:
            ncols = 0
        flat = [x for r in rows for x in r]
        if field.characteristic:
            num, den = flat, 1
        else:
            den = math.lcm(*[x.denominator for x in flat])
            num = [x.numerator * (den // x.denominator) for x in flat]
        self.field = field
        self.nrows = len(rows)
        self.ncols = ncols
        self._num = tuple(num)
        self._den = den
        self._ech = None

    @classmethod
    def _of_num(cls, field, num, den: int, nrows: int, ncols: int) -> "Matrix":
        """The matrix num / den from flat row-major integers that are
        already reduced mod p over F_p (den is then 1)."""
        m = object.__new__(cls)
        m.field = field
        m.nrows = nrows
        m.ncols = ncols
        m._num = tuple(num)
        m._den = den
        m._ech = None
        return m

    @classmethod
    def identity(cls, field, n: int) -> "Matrix":
        """The n x n identity, one shared matrix per field and size."""
        return _identity(field, n)

    @property
    def rows(self) -> tuple:
        n = self.ncols
        return tuple(_elements(self.field, self._num[i * n:(i + 1) * n], self._den)
                     for i in range(self.nrows))

    def _key(self):
        """(numerators, denominator) in lowest terms."""
        g = math.gcd(self._den, *self._num)
        if g == 1:
            return self._num, self._den
        return tuple(x // g for x in self._num), self._den // g

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.field == other.field
            and self.nrows == other.nrows
            and self.ncols == other.ncols
            and self._key() == other._key()
        )

    def __hash__(self):
        return hash((self.field, self.nrows, self.ncols, self._key()))

    # -- elimination ----------------------------------------------------

    def _echelon(self):
        """``_int_echelon`` of a copy of the integer rows, run on the first
        call and kept, so ``rank``, ``_kernel`` and ``det`` of one matrix
        read one elimination.  Nothing mutates the kept rows."""
        if self._ech is None:
            num, n = self._num, self.ncols
            rows = [list(num[i * n:(i + 1) * n]) for i in range(self.nrows)]
            self._ech = _int_echelon(rows, n, self.field.characteristic)
        return self._ech

    def rank(self) -> int:
        return len(self._echelon()[1])

    def _kernel(self) -> list:
        """The reduced basis of the right null space, as integers read off
        the kept echelon: for each free column f, in increasing order, the
        pair (y, den) of ``_int_kernel_vector``, so y / den is 1 at f and 0
        at the other free columns.  rank + len(result) == ncols, always."""
        ech, pivots, _ = self._echelon()
        p, n = self.field.characteristic, self.ncols
        pivot_set = set(pivots)
        return [_int_kernel_vector(ech, pivots, f, n, p) for f in range(n) if f not in pivot_set]

    def det(self):
        if self.nrows != self.ncols:
            raise ValueError("determinant of a non-square matrix")
        n = self.nrows
        ech, pivots, sign = self._echelon()
        if len(pivots) < n:
            value = 0
        elif self.field.characteristic:
            value = sign * math.prod(row[r] for r, row in enumerate(ech))
        else:
            value = sign * ech[-1][-1] if n else 1
        return _elements(self.field, (value,), self._den ** n)[0]

    def __repr__(self) -> str:
        if self.nrows == 0 or self.ncols == 0:
            return f"Matrix({self.field!r}, {self.nrows}x{self.ncols})"
        body = "; ".join(" ".join(str(x) for x in r) for r in self.rows)
        return f"Matrix({self.field!r}, [{body}])"


def _elements(field, num, den: int) -> tuple:
    """The scalars num[k] / den in normal form: ``Fraction``s over QQ,
    residues in [0, p) mod p (den a unit there)."""
    p = field.characteristic
    if p:
        inv = pow(den, -1, p)
        return tuple(x * inv % p for x in num)
    return tuple(map(Fraction, num, repeat(den)))


def _pick(m: Matrix, nrows: int, ncols: int, picks) -> Matrix:
    """The nrows x ncols matrix whose flat row-major entries are named by
    ``picks``: an index k >= 0 is entry k of m (row-major), ~k its
    negation, and None is zero."""
    num, p = m._num, m.field.characteristic
    minus = (lambda x: -x % p) if p else neg
    out = [0 if k is None else num[k] if k >= 0 else minus(num[~k]) for k in picks]
    return Matrix._of_num(m.field, out, m._den, nrows, ncols)


@cache
def _identity(field, n: int) -> Matrix:
    """The shared n x n identity behind ``Matrix.identity``, which the
    pickers below recognise without a public call."""
    return Matrix._of_num(field, [int(i == j) for i in range(n) for j in range(n)], 1, n, n)


def _pick_kept(m: Matrix, nrows: int, ncols: int, picks: tuple) -> Matrix:
    """``_pick``, except that from the shared 4x4 identity each matrix is
    picked once per process, by field and picks, and keeps its echelon."""
    if m is _identity(m.field, 4):
        return _identity_pick(m.field, nrows, ncols, picks)
    return _pick(m, nrows, ncols, picks)


@cache
def _identity_pick(field, nrows: int, ncols: int, picks: tuple) -> Matrix:
    return _pick(_identity(field, 4), nrows, ncols, picks)


def _vstack(top: Matrix, bottom: Matrix) -> Matrix:
    """``top`` over ``bottom``, two matrices with the same columns."""
    den = math.lcm(top._den, bottom._den)
    num = ([x * (den // top._den) for x in top._num]
           + [x * (den // bottom._den) for x in bottom._num])
    return Matrix._of_num(top.field, num, den, top.nrows + bottom.nrows, top.ncols)


def _adjugate(m: Matrix) -> Matrix:
    """adj N = (det N / d) * m^-1 of a 4x4 matrix m = N / d, as integers
    (residues mod p), by Laplace expansion along complementary rows: s_jk
    and c_jk are the 2x2 minors of rows (0, 1) and (2, 3) on columns
    j < k, and each cofactor is one row of the other pair against three of
    them (Eberly, The Laplace Expansion Theorem, 2008)."""
    (a00, a01, a02, a03, a10, a11, a12, a13,
     a20, a21, a22, a23, a30, a31, a32, a33) = m._num
    s01, s02, s03 = a00 * a11 - a01 * a10, a00 * a12 - a02 * a10, a00 * a13 - a03 * a10
    s12, s13, s23 = a01 * a12 - a02 * a11, a01 * a13 - a03 * a11, a02 * a13 - a03 * a12
    c01, c02, c03 = a20 * a31 - a21 * a30, a20 * a32 - a22 * a30, a20 * a33 - a23 * a30
    c12, c13, c23 = a21 * a32 - a22 * a31, a21 * a33 - a23 * a31, a22 * a33 - a23 * a32
    adj = (
        a11 * c23 - a12 * c13 + a13 * c12, a02 * c13 - a01 * c23 - a03 * c12,
        a31 * s23 - a32 * s13 + a33 * s12, a22 * s13 - a21 * s23 - a23 * s12,
        a12 * c03 - a10 * c23 - a13 * c02, a00 * c23 - a02 * c03 + a03 * c02,
        a32 * s03 - a30 * s23 - a33 * s02, a20 * s23 - a22 * s03 + a23 * s02,
        a10 * c13 - a11 * c03 + a13 * c01, a01 * c03 - a00 * c13 - a03 * c01,
        a30 * s13 - a31 * s03 + a33 * s01, a21 * s03 - a20 * s13 - a23 * s01,
        a11 * c02 - a10 * c12 - a12 * c01, a00 * c12 - a01 * c02 + a02 * c01,
        a31 * s02 - a30 * s12 - a32 * s01, a20 * s12 - a21 * s02 + a22 * s01,
    )
    p = m.field.characteristic
    if p:
        adj = [x % p for x in adj]
    return Matrix._of_num(m.field, adj, 1, 4, 4)


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
            prow = rows[r]
            for i in range(r + 1, m):
                row = rows[i]
                ric = row[c]
                for j in range(c, ncols):
                    row[j] = (pc * row[j] - ric * prow[j]) // prev
            prev = pc
        pivots.append(c)
        r += 1
        if r == m:
            break
    return rows[:r], pivots, sign


def _int_kernel_vector(ech, pivots, f, ncols, p) -> tuple[list[int], int]:
    """(y, den), den > 0, such that y / den is the reduced kernel vector
    of the echelon rows that is 1 at the free column f and 0 at the other
    free columns.

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
    if den < 0:
        y, den = [-v for v in y], -den
    return y, den

