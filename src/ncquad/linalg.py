"""Exact dense linear algebra over QQ and the prime fields F_p.

A ``Matrix`` stores integers, never field elements: over QQ integer
numerators, row-major in one flat tuple, over one common positive
denominator (the matrix is ``_num / _den``), over F_p residues in
[0, p) with ``_den`` 1.  A matrix has no value equality: ``==`` and
``hash`` are those of the object, since no caller compares matrices.

Determinants and ranks 4 and 3 are read off minors: a 4x4 matrix keeps
``_det4`` of its integers, which gives ``det`` and, when nonzero, rank 4
and an empty kernel; when it vanishes, a nonzero adjugate's integers
(``_adjugate_num``, from the same ``_minors2``) give rank 3 and the
kernel line, and ``_keep_transpose`` hands them to the transpose.  An
n x 2 matrix is ranked by ``_rank2``.  ``det`` answers for 4x4 matrices
only (det <-, w> = det M_0), and raises ``ValueError`` for any other.

Every elimination runs in one function, ``_int_echelon(rows, ncols, p)``:
fraction-free elimination on primitive rows over Z for p == 0, whose
entries never exceed Bareiss's minors of the input, and Gauss mod p for
p > 0.  A common denominator changes no rank, pivot or kernel.  A matrix
keeps its echelon after the first elimination, so ``rank`` and ``_kernel``
of one matrix share it.  Everything the minors leave open is read off the
echelon:

* the rank is the number of pivots;
* the reduced kernel basis, unique since it is the identity on the free
  columns (the complement of the lexicographically first independent
  columns), is back-substituted by ``_int_kernel_vector`` over one
  positive running denominator on Z, or solved mod p; ``_kernel`` hands
  it out as those integers, and geometricity decides on them.

No inverse is eliminated: ``_adjugate`` is the matrix adj N = det N *
N^-1 of a 4x4, for questions that scaling does not change.
``_pick`` builds a matrix from named entries of another one, negated or
zero, which is how tensors, quivers and the Hom counts assemble their
matrices without arithmetic.  It is one gather: each pick table is a
``_Picks``, compiled once where it is defined into an
``operator.itemgetter`` over the source laid out as (*num, 0, *negated
num), negation mod p over F_p, so a pick runs no Python loop.
``_pick_kept`` picks from the shared identity once per process, keyed
by the compiled table.

Scalars are the plain values they are decided on (``fields``):
``Fraction``s over QQ and ``int`` residues in [0, p) over F_p.
``Matrix(field, num, den, nrows, ncols)`` is the one constructor, from
integers, and ``_integers`` the one coercion of field values into them:
``Tensor`` hands it w's entries, and ``build_type_a`` its coefficients,
whose integers decide the excluded locus and are picked into w's row.
``det`` builds its value on demand (``_elements``), one
``Fraction(num, den)`` over QQ or one residue mod p, and geometricity
builds only the witness coordinates a certificate prints.  Both are
normal forms, so they are the values and bytes that elimination on field
elements would give.

``_integers`` accepts only QQ and F_p, and raises ``TypeError`` for any
other field.  Matrices are immutable; what they keep never changes them.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cache
from itertools import repeat
from operator import itemgetter, mul, neg

from .fields import PrimeField, RationalField


class Matrix:
    """Immutable rectangular matrix over a fixed field."""

    __slots__ = ("field", "nrows", "ncols", "_num", "_den", "_ech", "_d4", "_adj")

    def __init__(self, field, num, den: int, nrows: int, ncols: int):
        """num / den, num flat row-major integers (residues mod p, den 1),
        which ``_integers`` makes from field values."""
        self.field = field
        self.nrows = nrows
        self.ncols = ncols
        self._num = tuple(num)
        self._den = den
        self._ech = self._d4 = self._adj = None

    @classmethod
    def identity(cls, field, n: int) -> "Matrix":
        """The n x n identity, one shared matrix per field and size."""
        return _identity(field, n)

    # -- elimination ----------------------------------------------------

    def _echelon(self):
        """``_int_echelon`` of a copy of the integer rows, run on the first
        call and kept, so ``rank`` and ``_kernel`` of one matrix read one
        elimination.  Nothing mutates the kept rows."""
        if self._ech is None:
            num, n = self._num, self.ncols
            rows = [list(num[i * n:(i + 1) * n]) for i in range(self.nrows)]
            self._ech = _int_echelon(rows, n, self.field.characteristic)
        return self._ech

    def _kept_det4(self):
        """``_det4`` of the integers (mod p) of a 4x4 matrix, computed once
        and kept; None for any other shape.  A singular one also keeps its
        adjugate, from the same ``_minors2``, in ``_adj`` when it is nonzero,
        that is when the rank is exactly 3."""
        if self._d4 is None and self.nrows == self.ncols == 4:
            p, minors = self.field.characteristic, _minors2(self._num)
            self._d4 = _det4(minors) % p if p else _det4(minors)
            if not self._d4:
                adj = _adjugate_num(self._num, minors, p)
                self._adj = adj if any(adj) else None
        return self._d4

    def rank(self) -> int:
        """Read off minors for n x 2 and off the kept determinant and
        adjugate for a 4x4 of rank 4 or 3, else off the kept echelon."""
        if self.ncols == 2:
            return _rank2(self._num, self.field.characteristic)
        if self._kept_det4():
            return 4
        if self._adj:
            return 3
        return len(self._echelon()[1])

    def _kernel(self) -> list:
        """The reduced basis of the right null space, as integers: for each
        free column f, in increasing order, a pair (y, den), den > 0 (1 mod
        p), so y / den is 1 at f and 0 at the other free columns.  Empty
        for an invertible 4x4; for rank 3, N adj N = det N * I = 0, so the
        first nonzero column y of adj N spans the kernel, and f is its last
        nonzero entry; else ``_int_kernel_vector`` off the kept echelon.
        rank + len(result) == ncols, always."""
        if self._kept_det4():
            return []
        adj, p = self._adj, self.field.characteristic
        if adj:
            for k in range(4):
                y = adj[k::4]
                if any(y):
                    break
            f = 3 if y[3] else 2 if y[2] else 1 if y[1] else 0
            if p:
                inv = pow(y[f], -1, p)
                return [([v * inv % p for v in y], 1)]
            return [(y, y[f]) if y[f] > 0 else ([-v for v in y], -y[f])]
        ech, pivots = self._echelon()
        pivot_set, n = set(pivots), self.ncols
        return [_int_kernel_vector(ech, pivots, f, n, p) for f in range(n) if f not in pivot_set]

    def det(self):
        """The determinant of a 4x4 matrix, read off ``_kept_det4``;
        ``ValueError`` for any other shape."""
        value = self._kept_det4()
        if value is None:
            raise ValueError(f"det is taken of 4x4 matrices only, not {self.nrows}x{self.ncols}")
        return _elements(self.field, (value,), self._den ** 4)[0]

    def __repr__(self) -> str:
        if self.nrows == 0 or self.ncols == 0:
            return f"Matrix({self.field!r}, {self.nrows}x{self.ncols})"
        n, entries = self.ncols, _elements(self.field, self._num, self._den)
        body = "; ".join(" ".join(map(str, entries[i:i + n])) for i in range(0, len(entries), n))
        return f"Matrix({self.field!r}, [{body}])"


def _integers(field, values) -> tuple[list, int]:
    """The one coercion of field values into a matrix's integers, (num,
    den): ``field.of`` of each value, then over QQ the numerators over
    their least common denominator, over F_p the residues over 1.
    ``TypeError`` for a field other than QQ or F_p."""
    if not isinstance(field, (RationalField, PrimeField)):
        raise TypeError(f"matrices are over QQ or F_p, not {field!r}")
    values = [field.of(x) for x in values]
    if field.characteristic:
        return values, 1
    den = math.lcm(*[x.denominator for x in values])
    return [x.numerator * (den // x.denominator) for x in values], den


def _elements(field, num, den: int) -> tuple:
    """The scalars num[k] / den in normal form: ``Fraction``s over QQ,
    residues in [0, p) mod p (den a unit there)."""
    p = field.characteristic
    if p:
        inv = pow(den, -1, p)
        return tuple([x * inv % p for x in num])
    return tuple(map(Fraction, num, repeat(den)))


class _Picks:
    """A pick table, compiled once: the nrows x ncols matrix whose flat
    row-major entries ``picks`` names from a source of ``size`` entries,
    an index k >= 0 for entry k, ~k for its negation and None for zero.
    ``get`` gathers them from the source laid out as (*num, 0, *negated
    num), where entry k sits at k, zero at size and the negation of entry
    k at size + 1 + k; ``negates`` says whether the table reads the
    negated block.  A one-entry table gathers a slice, so that ``get``
    returns a tuple there too.  ``ValueError`` unless there are nrows *
    ncols picks, each None or in [-size, size)."""

    __slots__ = ("nrows", "ncols", "picks", "negates", "get")

    def __init__(self, nrows: int, ncols: int, picks, size: int):
        picks = tuple(picks)
        if len(picks) != nrows * ncols or any(k is not None and not -size <= k < size
                                              for k in picks):
            raise ValueError(f"{len(picks)} picks do not name a {nrows}x{ncols} matrix "
                             f"of the {size} entries")
        at = [size if k is None else k if k >= 0 else size + 1 + ~k for k in picks]
        self.nrows, self.ncols, self.picks = nrows, ncols, picks
        self.negates = any(k > size for k in at)
        self.get = itemgetter(*at) if len(at) != 1 else itemgetter(slice(at[0], at[0] + 1))


_ZERO = (0,)


def _pick(m: Matrix, table: _Picks) -> Matrix:
    """The matrix that the compiled pick table ``table`` gathers from the
    flat row-major entries of m."""
    num = m._num
    source = num + _ZERO
    if table.negates:
        p = m.field.characteristic
        source += tuple([-x % p for x in num] if p else map(neg, num))
    return Matrix(m.field, table.get(source), m._den, table.nrows, table.ncols)


@cache
def _identity(field, n: int) -> Matrix:
    """The shared n x n identity behind ``Matrix.identity``, which the
    pickers below recognise without a public call."""
    return Matrix(field, [int(i == j) for i in range(n) for j in range(n)], 1, n, n)


def _pick_kept(m: Matrix, table: _Picks) -> Matrix:
    """``_pick``, except that from the shared 4x4 identity each matrix is
    picked once per process, by field and compiled table, and keeps its
    echelon."""
    if m is _identity(m.field, 4):
        return _identity_pick(m.field, table)
    return _pick(m, table)


@cache
def _identity_pick(field, table: _Picks) -> Matrix:
    return _pick(_identity(field, 4), table)


def _minors2(num) -> tuple:
    """The 2x2 minors of a 4x4 matrix of flat row-major integers on columns
    j < k, in the order 01, 02, 03, 12, 13, 23: six s_jk of rows (0, 1),
    then six c_jk of rows (2, 3), the minors that a Laplace expansion along
    those row pairs reads (Eberly, The Laplace Expansion Theorem, 2008)."""
    (a00, a01, a02, a03, a10, a11, a12, a13,
     a20, a21, a22, a23, a30, a31, a32, a33) = num
    return (a00 * a11 - a01 * a10, a00 * a12 - a02 * a10, a00 * a13 - a03 * a10,
            a01 * a12 - a02 * a11, a01 * a13 - a03 * a11, a02 * a13 - a03 * a12,
            a20 * a31 - a21 * a30, a20 * a32 - a22 * a30, a20 * a33 - a23 * a30,
            a21 * a32 - a22 * a31, a21 * a33 - a23 * a31, a22 * a33 - a23 * a32)


def _det4(minors) -> int:
    """The determinant of a 4x4 matrix of integers from its ``_minors2``:
    those of rows (0, 1) against those of rows (2, 3), paired by
    complementary columns."""
    s01, s02, s03, s12, s13, s23, c01, c02, c03, c12, c13, c23 = minors
    return s01 * c23 - s02 * c13 + s03 * c12 + s12 * c03 - s13 * c02 + s23 * c01


def _adjugate(m: Matrix) -> Matrix:
    """adj N = (det N / d) m^-1 of a 4x4 m = N / d: integers (residues mod p) over 1."""
    return Matrix(m.field, _adjugate_num(m._num, _minors2(m._num), m.field.characteristic), 1, 4, 4)


def _adjugate_num(num, minors, p: int):
    """adj N of the flat integers N of a 4x4 matrix (residues mod p) from
    their ``_minors2``, by Laplace expansion along complementary rows:
    each cofactor is one row of the other pair against three minors."""
    (a00, a01, a02, a03, a10, a11, a12, a13,
     a20, a21, a22, a23, a30, a31, a32, a33) = num
    s01, s02, s03, s12, s13, s23, c01, c02, c03, c12, c13, c23 = minors
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
    return [x % p for x in adj] if p else adj


def _keep_transpose(m: Matrix, mt: Matrix) -> None:
    """Keep in mt = m^T, for a 4x4 m, the determinant m keeps and its
    adjugate transposed, its four columns laid end to end: det m^T = det m
    and adj m^T = (adj m)^T, so the kernel of mt is read off adj m's rows."""
    m._kept_det4()
    mt._d4, mt._adj = m._d4, m._adj and m._adj[0::4] + m._adj[1::4] + m._adj[2::4] + m._adj[3::4]


def _rank2(num, p: int) -> int:
    """The rank of an n x 2 matrix of flat row-major integers (residues
    mod p), read off 2x2 minors: 0 with no nonzero row, else 2 when a later
    row is independent of the first nonzero one (mod p), else 1."""
    nz = [(x, y) for x, y in zip(num[::2], num[1::2]) if x or y]
    if not nz:
        return 0
    a, b = nz[0]
    return 2 if any((a * y - b * x) % p if p else a * y - b * x for x, y in nz[1:]) else 1


def _int_echelon(rows, ncols, p):
    """Row echelon form of integer rows, eliminated in place:
    (nonzero rows, pivot columns).

    With p == 0 this is fraction-free elimination on primitive rows: at
    pivot (r, c) each later row i with ric = row_i[c] != 0 becomes
    (pc/g) row_i - (ric/g) row_r, g = gcd(pc, ric), divided by the gcd of
    its entries.  With p > 0 it is Gauss mod p, pivot rows unscaled.
    Either way a row that is 0 in the pivot column is left alone.

    Entries stay small: after k pivots a non-pivot row lies in the span of
    the pivot rows and its input row, and vanishes on the k pivot columns,
    where the pivot rows are independent; so it lies on a line.  Bareiss's
    row there (Bareiss 1968) has (k+1)-minors for entries, and the
    primitive row, or the input row left alone, divides it: no entry
    exceeds the Bareiss (Hadamard) bound, and pivots and kernel agree.
    """
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
        prow = rows[r]
        pc = prow[c]
        if p:
            inv = pow(pc, -1, p)
            for i in range(r + 1, m):
                f = rows[i][c] * inv % p
                if f:
                    rows[i] = [(x - f * y) % p for x, y in zip(rows[i], prow)]
        else:
            for i in range(r + 1, m):
                ric = rows[i][c]
                if ric:
                    g = math.gcd(pc, ric)
                    a, b = pc // g, ric // g
                    row = [a * x - b * y for x, y in zip(rows[i], prow)]
                    g = math.gcd(*row)
                    rows[i] = [x // g for x in row] if g > 1 else row
        pivots.append(c)
        r += 1
        if r == m:
            break
    return rows[:r], pivots


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

