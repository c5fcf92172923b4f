"""Shared test utilities: independent oracles and random samplers.

The geometricity oracle here deliberately shares no code with the
decision procedure under test: it enumerates projective pairs of
functionals over F_{p^2} = F_p[theta]/(theta^2 - nu) using raw integer
pairs, and reports the slot pairs where some nonzero pure functional
pair annihilates the tensor.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from itertools import permutations, product
from operator import neg

from ncquad.fields import PrimeField, RationalField, _sqrt_mod_p
from ncquad.fileformat import canonical_json_bytes
from ncquad.linalg import _elements
from ncquad.quintuples import Quintuple, SLOT_LABELS
from ncquad.tensors import Tensor


# -- the tests' own field arithmetic ------------------------------------------
#
# ncquad's scalars are plain values: Fractions over QQ, int residues over
# F_p and (x, y) pairs for x + y theta over F[theta].  The references compute
# on Fractions, ``Mod`` residues and ``Quad``s.  ``lift`` turns ncquad's
# values into these, and ``lower`` turns them back for ncquad's records.


def _residue(x, p: int) -> int:
    if isinstance(x, Fraction):
        return x.numerator * pow(x.denominator, -1, p) % p
    return int(x) % p


def _mod(r: int, p: int) -> "Mod":
    """The Mod of an int r, reduced here."""
    m = int.__new__(Mod, r % p)
    m.p = p
    return m


def _mod_op(f):
    def op(x, y):
        if not isinstance(y, (int, Fraction)):
            return NotImplemented
        return _mod(f(int(x), _residue(y, x.p), x.p), x.p)
    return op


class Mod(int):
    """A residue mod p with the field operations; an int, so ``field.of``
    reads it and ncquad's residues compare equal to it."""

    def __new__(cls, value, p: int):
        return _mod(_residue(value, p), p)

    __add__ = __radd__ = _mod_op(lambda a, b, p: a + b)
    __sub__ = _mod_op(lambda a, b, p: a - b)
    __rsub__ = _mod_op(lambda a, b, p: b - a)
    __mul__ = __rmul__ = _mod_op(lambda a, b, p: a * b)
    __truediv__ = _mod_op(lambda a, b, p: a * pow(b, -1, p))
    __rtruediv__ = _mod_op(lambda a, b, p: b * pow(a, -1, p))
    __hash__ = int.__hash__

    def __neg__(self):
        return _mod(-int(self), self.p)

    def __eq__(self, other):
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        return int(self) == _residue(other, self.p)

    def __ne__(self, other):
        return not self == other


class Quad:
    """x + y theta, theta^2 = d, over Fractions or ``Mod``s."""

    __slots__ = ("a", "b", "d")

    def __init__(self, a, b, d):
        self.a, self.b, self.d = a, b, d

    def _of(self, x):
        return x if isinstance(x, Quad) else Quad(x, 0, self.d)

    def __add__(self, other):
        o = self._of(other)
        return Quad(self.a + o.a, self.b + o.b, self.d)

    __radd__ = __add__

    def __neg__(self):
        return Quad(-self.a, -self.b, self.d)

    def __sub__(self, other):
        return self + -self._of(other)

    def __mul__(self, other):
        o = self._of(other)
        return Quad(self.a * o.a + self.b * o.b * self.d, self.a * o.b + self.b * o.a, self.d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._of(other)
        n = o.a * o.a - o.b * o.b * self.d
        q = self * Quad(o.a, -o.b, self.d)
        return Quad(q.a / n, q.b / n, self.d)

    def __eq__(self, other):
        o = self._of(other)
        return self.a == o.a and self.b == o.b

    def __bool__(self) -> bool:
        return bool(self.a) or bool(self.b)


def lift(field, x, d=None):
    """ncquad's values over ``field`` (QQ or F_p), alone or in tuples and
    lists, as Fractions and ``Mod``s; given theta^2 = d, each (x, y) pair
    of scalars is the ``Quad`` x + y theta.  ``Quad``s stay as they are."""
    if isinstance(x, (tuple, list)):
        if d is not None and len(x) == 2 and not isinstance(x[0], (tuple, list, Quad)):
            return Quad(lift(field, x[0]), lift(field, x[1]), lift(field, d))
        return type(x)(lift(field, y, d) for y in x)
    p = field.characteristic
    return Mod(x, p) if p and not isinstance(x, Quad) else x


def lower(field, x):
    """The values ``lift`` makes, alone or in tuples, as ncquad's over
    ``field`` (QQ or F_p), a ``Quad`` as its (x, y) pair; None stays None."""
    if isinstance(x, tuple):
        return tuple(lower(field, y) for y in x)
    if isinstance(x, Quad):
        return field.of(x.a), field.of(x.b)
    return None if x is None else field.of(x)


def spelled(x, field) -> str:
    """A base-field value as certificates spell it: "2 (mod 5)" over F_5."""
    p = field.characteristic
    return f"{int(x) % p} (mod {p})" if p else str(x)


# -- plain functions over the library's public types -------------------------


class GeneralTensor:
    """A dense tensor of any shape over QQ or F_p, one label per axis,
    entries row-major in normal form: the reference for ncquad's
    ``Tensor``, which holds only w, of shape (2, 2, 2, 2) with slots
    V0..V3.  Contractions of w (``contract``) are tensors of lower arity."""

    __slots__ = ("field", "shape", "slots", "entries")

    def __init__(self, field, shape, entries, slots):
        shape, slots = tuple(shape), tuple(slots)
        if len(slots) != len(shape):
            raise ValueError("one slot label per axis")
        if len(set(slots)) != len(slots):
            raise ValueError("slot labels must be pairwise distinct")
        if not isinstance(field, (RationalField, PrimeField)):
            raise TypeError(f"tensors are over QQ or F_p, not {field!r}")
        entries = tuple(field.of(x) for x in entries)
        if len(entries) != math.prod(shape):
            raise ValueError(f"expected {math.prod(shape)} entries, got {len(entries)}")
        self.field, self.shape, self.slots, self.entries = field, shape, slots, entries

    @classmethod
    def of(cls, t) -> "GeneralTensor":
        """t itself, or w (an ncquad ``Tensor``) copied entry by entry."""
        if isinstance(t, cls):
            return t
        return cls(t.field, t.shape, rows(t._row)[0], t.slots)

    def __eq__(self, other):
        return (isinstance(other, GeneralTensor)
                and (self.field, self.shape, self.slots, self.entries)
                == (other.field, other.shape, other.slots, other.entries))


def tensor_entries(t) -> tuple:
    """The entries of t (w or a ``GeneralTensor``), row-major, lifted for
    arithmetic."""
    t = GeneralTensor.of(t)
    return lift(t.field, t.entries)


def tensor_entry(t, idx):
    """The entry of t (w or a ``GeneralTensor``) at the multi-index idx,
    row-major."""
    t = GeneralTensor.of(t)
    flat = 0
    for i, n in zip(idx, t.shape):
        flat = flat * n + i
    return lift(t.field, t.entries[flat])


def matrix(field, rows, ncols=None):
    """The matrix with the given rows of field values, ints or exact
    strings (read by ``Fraction``), coerced once by ``linalg._integers``,
    so ``TypeError`` for a field other than QQ or F_p: how the tests build
    a ``Matrix`` from values.  ``ncols`` sizes a matrix with no rows."""
    from ncquad.linalg import Matrix, _integers

    rows = [[Fraction(x) if isinstance(x, str) else x for x in row] for row in rows]
    if rows:
        ncols = len(rows[0])
        if any(len(r) != ncols for r in rows):
            raise ValueError("ragged rows")
    num, den = _integers(field, [x for r in rows for x in r])
    return Matrix(field, num, den, len(rows), ncols or 0)


def reference_pick(m, nrows: int, ncols: int, picks):
    """The nrows x ncols matrix whose flat row-major entries are named by
    ``picks`` from those of m: an index k >= 0 is entry k, ~k its negation
    (mod p over F_p), and None is zero.  The loop ``linalg._pick`` ran
    before it became one gather over a compiled table."""
    from ncquad.linalg import Matrix

    num, p = m._num, m.field.characteristic
    minus = (lambda x: -x % p) if p else neg
    out = [0 if k is None else num[k] if k >= 0 else minus(num[~k]) for k in picks]
    return Matrix(m.field, out, m._den, nrows, ncols)


def col(m, j: int) -> tuple:
    """Column j of the matrix m, as ncquad's scalars."""
    if not 0 <= j < m.ncols:
        raise IndexError(f"column {j} outside a {m.nrows}x{m.ncols} matrix")
    return _elements(m.field, m._num[j::m.ncols], m._den)


def entry(m, i: int, j: int):
    """The entry of the matrix m at row i and column j, as ncquad's scalar."""
    if not (0 <= i < m.nrows and 0 <= j < m.ncols):
        raise IndexError(f"entry {(i, j)} outside a {m.nrows}x{m.ncols} matrix")
    return _elements(m.field, (m._num[i * m.ncols + j],), m._den)[0]


def matrix_cols(m) -> list[tuple]:
    return [lift(m.field, col(m, j)) for j in range(m.ncols)]


def _of_int_cols(field, cols, nrows: int, scale: int):
    """The matrix whose column j is scale * y / den for the pair
    (y, den) = cols[j], over the common denominator of its columns.  Mod p
    the y are residues and scale and every den are 1."""
    from ncquad.linalg import Matrix

    lcm = math.lcm(*[d for _, d in cols])
    g = math.gcd(scale, lcm)
    factors = [scale // g * (lcm // d) for _, d in cols]
    num = [y[i] * f for i in range(nrows) for (y, _), f in zip(cols, factors)]
    return Matrix(field, num, lcm // g, nrows, len(cols))


def kernel_basis(m):
    """The matrix whose columns are the reduced basis of the right null
    space of m, built from the integers ``Matrix._kernel`` reads off the
    kept echelon; rank + ncols of the result == m.ncols."""
    return _of_int_cols(m.field, m._kernel(), m.ncols, 1)


def matmul(a, b):
    """The product a b of two matrices over one field: numerators multiply
    by rows and columns, denominators by each other."""
    from ncquad.linalg import Matrix

    if a.ncols != b.nrows:
        raise ValueError(f"shape mismatch {a.nrows}x{a.ncols} * {b.nrows}x{b.ncols}")
    if a.field != b.field:
        raise ValueError("field mismatch")
    p, n, k = a.field.characteristic, a.ncols, b.ncols
    right = [b._num[j::k] for j in range(k)]
    num = [sum(x * y for x, y in zip(a._num[i * n:(i + 1) * n], c))
           for i in range(a.nrows) for c in right]
    if p:
        num = [x % p for x in num]
    return Matrix(a.field, num, a._den * b._den, a.nrows, k)


def inverse(m):
    """m^-1 from the kernel of [N | -I] for m = N / d: column j is the x
    part of the kernel vector at the free column n + j, N x = e_j, and
    (N / d)^-1 = d N^-1.  Raises ValueError when m is singular."""
    from ncquad.linalg import _int_echelon, _int_kernel_vector

    if m.nrows != m.ncols:
        raise ValueError("inverse of a non-square matrix")
    n = m.nrows
    p, num = m.field.characteristic, m._num
    aug = [list(num[i * n:(i + 1) * n]) + [-(j == i) for j in range(n)] for i in range(n)]
    ech, pivots = _int_echelon(aug, 2 * n, p)
    if n and pivots[-1] != n - 1:
        raise ValueError("matrix is singular")
    cols = []
    for j in range(n):
        y, den = _int_kernel_vector(ech, pivots, n + j, 2 * n, p)
        cols.append((y[:n], den))
    return _of_int_cols(m.field, cols, n, m._den)


# -- binary forms on field elements (oracle copies, not in the package) -----


class BinaryForm:
    """A binary form over QQ or F_p by field-element coefficients of
    descending s-power: sum(coeffs[i] * s^(d-i) * t^i)."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs):
        self.field = field
        self.coeffs = tuple(field.of(c) for c in coeffs)
        if not self.coeffs:
            raise ValueError("a form needs at least one coefficient")

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return all(not c for c in self.coeffs)

    def __eq__(self, other):
        return (isinstance(other, BinaryForm) and self.field == other.field
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.field, self.coeffs))

    def __repr__(self) -> str:
        d = self.degree
        terms = [f"({c})*s^{d - i}*t^{i}" for i, c in enumerate(self.coeffs) if c]
        return " + ".join(terms) if terms else "0"


def monic(form):
    """The form divided by its first nonzero coefficient; zero stays zero."""
    coeffs = lift(form.field, form.coeffs)
    for c in coeffs:
        if c:
            return BinaryForm(form.field, [x / c for x in coeffs])
    return form


def root_structure(f):
    """How a nonzero binary quadratic a s^2 + b st + c t^2 splits over the
    closure, on field elements: (kind, discriminant, roots), kind
    "split-rational", "double-rational" or "irreducible-quadratic", roots
    projective pairs (s, t) of lifted values, ``Quad``s with theta^2 the
    discriminant in the irreducible case."""
    if f.degree != 2:
        raise ValueError("root_structure expects a quadratic")
    if f.is_zero():
        raise ValueError("root_structure of the zero form")
    field = f.field
    a, b, c = lift(field, f.coeffs)
    one, zero = lift(field, field.of(1)), lift(field, field.of(0))
    disc = b * b - 4 * a * c
    if not disc:
        # b^2 = 4ac, so a = 0 forces b = 0 and the form c t^2
        root = (-b, 2 * a) if a else (one, zero)
        return "double-rational", disc, (root,)
    # the root the certificates print: the nonnegative one in QQ, and mod p
    # ``_sqrt_mod_p``'s, which fixes the order of the two roots
    if field.characteristic:
        r = _sqrt_mod_p(disc, field.p)
    else:
        r = Fraction(math.isqrt(max(disc.numerator, 0)), math.isqrt(disc.denominator))
        r = r if r * r == disc else None
    if r is not None:
        # with a = 0, t * (b*s + c*t): roots (1:0) and (c:-b), distinct since b != 0
        roots = ((-b + r, 2 * a), (-b - r, 2 * a)) if a else ((one, zero), (c, -b))
        return "split-rational", disc, roots
    roots = ((Quad(-b, one, disc), Quad(2 * a, zero, disc)),
             (Quad(-b, -one, disc), Quad(2 * a, zero, disc)))
    return "irreducible-quadratic", disc, roots


def euler_p1xp2(m: int, n: int) -> int:
    """chi(O(m,n)) = (m+1)(n+1)(n+2)/2 on P^1 x P^2, the closed form the
    Kuenneth tables must hit."""
    return (m + 1) * (n + 1) * (n + 2) // 2


def random_matrix_qq(rng, nrows, ncols, height=9):
    from ncquad.fields import QQ

    return matrix(QQ, [[Fraction(rng.randint(-height, height)) for _ in range(ncols)]
                       for _ in range(nrows)])


def random_invertible_qq(rng, n, height=9):
    while True:
        m = random_matrix_qq(rng, n, n, height)
        if det_oracle(rows(m)):
            return m


# -- naive linear algebra (oracle for the QQ and F_p kernels) --------------
#
# Plain Gauss-Jordan, the Leibniz formula and the triple loop, sharing no
# code with ncquad.linalg.  Matrices are lists of rows.  With p == 0 the
# entries are Fractions; with p > 0 they are raw ints, reduced to 0..p-1.


def _reducer(p):
    if p:
        return lambda x: int(x) % p
    return lambda x: x if isinstance(x, Fraction) else Fraction(x)


def _inv(x, p):
    return pow(x, -1, p) if p else 1 / x


def rref_oracle(rows, ncols, p=0):
    """Reduced row echelon form: (nonzero rows, pivot columns)."""
    red = _reducer(p)
    a = [[red(x) for x in r] for r in rows]
    pivots = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(a)) if a[i][c] != 0), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        lead = _inv(a[r][c], p)
        a[r] = [red(x * lead) for x in a[r]]
        for i in range(len(a)):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [red(x - f * y) for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
    return a[:r], pivots


def kernel_oracle(rows, ncols, p=0):
    """Reduced kernel basis: one vector per free column f, equal to 1 at f
    and 0 at the other free columns."""
    red = _reducer(p)
    rref, pivots = rref_oracle(rows, ncols, p)
    basis = []
    for f in (c for c in range(ncols) if c not in pivots):
        x = [red(0)] * ncols
        x[f] = red(1)
        for row, pc in zip(rref, pivots):
            x[pc] = red(-row[f])
        basis.append(tuple(x))
    return basis


def bareiss_echelon(rows, ncols, p=0):
    """Row echelon form of integer rows by textbook fraction-free Bareiss
    elimination (Bareiss 1968): (nonzero rows, pivot columns).  Every row
    below a pivot is rewritten, zero in the pivot column or not, and every
    division is exact, so each entry is a minor of the input.  With p > 0
    it is Gauss elimination on residues mod p, pivot rows unscaled.  The
    tests hold ``linalg._int_echelon``, which keeps its rows primitive, to
    these pivots, to these rows up to scale and to these entry sizes."""
    rows = [list(r) for r in rows]
    m = len(rows)
    pivots = []
    r = 0
    prev = 1
    for c in range(ncols):
        piv = next((i for i in range(r, m) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
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
    return rows[:r], pivots


def det_oracle(rows, p=0):
    """Leibniz formula: the signed sum over all permutations."""
    n = len(rows)
    total = 0
    for perm in permutations(range(n)):
        inversions = sum(1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j])
        term = -1 if inversions % 2 else 1
        for i in range(n):
            term *= rows[i][perm[i]]
        total += term
    return _reducer(p)(total)


def inverse_oracle(rows, p=0):
    """Right half of the reduced form of [A | I]; None when A is singular."""
    n = len(rows)
    aug = [list(r) + [int(i == j) for j in range(n)] for i, r in enumerate(rows)]
    rref, pivots = rref_oracle(aug, 2 * n, p)
    if pivots[:n] != list(range(n)):
        return None
    return [tuple(r[n:]) for r in rref]


def matmul_oracle(a, b, ncols, p=0):
    """Product of an m x k and a k x ncols matrix by the triple loop."""
    red = _reducer(p)
    k = len(b)
    return [tuple(red(sum((a[i][t] * b[t][j] for t in range(k)), red(0))) for j in range(ncols))
            for i in range(len(a))]


def rank_oracle(rows) -> int:
    """Rank of a list of rows of lifted values over QQ, F_p or a
    quadratic extension (``Quad``s), by Gauss elimination."""
    a = [list(r) for r in rows]
    rank = 0
    for c in range(len(a[0]) if a else 0):
        piv = next((i for i in range(rank, len(a)) if a[i][c]), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        for i in range(rank + 1, len(a)):
            f = a[i][c] / a[rank][c]
            a[i] = [x - f * y for x, y in zip(a[i], a[rank])]
        rank += 1
    return rank


def contraction_matrix(q, j):
    """M_j, the 4x4 matrix of V_j^* x V_{j+1}^* -> V_{j+2} x V_{j+3},
    phi x chi -> <phi x chi, w> (indices mod 4), by ``Tensor.reshape``;
    ``Quintuple.contractions`` picks the same entries through its own
    index table, and ``contraction_oracle`` builds M_j by contraction."""
    j %= 4
    return q.w.reshape(((j + 2) % 4, (j + 3) % 4), (j, (j + 1) % 4))


def line_from_phi(phi, contracted_factor=0):
    """The embedded line of an invertible factorization matrix, with its
    inverse computed here; raises ValueError when phi is singular."""
    from ncquad.grassmann import EmbeddedLine

    return EmbeddedLine(phi, inverse(phi), contracted_factor)


# the rows, and the columns, of a 4x4 matrix in the order 0, 2, 1, 3
_SWAP_ROWS = [4 * r + j for r in (0, 2, 1, 3) for j in range(4)]
_SWAP_COLUMNS = [4 * r + j for r in range(4) for j in (0, 2, 1, 3)]


def relative_line(l0, l1):
    """l1 in the coordinates where l0 is the standard line (phi = I,
    contracted factor 0): phi^{-1} is T l1.phi_inv and phi is
    l1.phi T^{-1}, for T = l0.phi with its factors swapped when l0
    contracts factor 1.  ``line_relation`` of it has the verdict, count
    and witnesses of ``reference_line_relation(l0, l1)``, and also its
    reshuffle rank and orientations when l0 contracts factor 0."""
    from ncquad.grassmann import EmbeddedLine

    if l0.contracted_factor == 0:
        t, t_inv = l0.phi, l0.phi_inv
    else:
        t = reference_pick(l0.phi, 4, 4, _SWAP_ROWS)
        t_inv = reference_pick(l0.phi_inv, 4, 4, _SWAP_COLUMNS)
    return EmbeddedLine(matmul(l1.phi, t_inv), matmul(t, l1.phi_inv), l1.contracted_factor)


def det2(v):
    return v[0] * v[3] - v[1] * v[2]


def polar2(u, v):
    return u[0] * v[3] + v[0] * u[3] - u[1] * v[2] - v[1] * u[2]


def rank_one(vecs) -> bool:
    """Whether 2-vectors of field elements span exactly a line."""
    return any(a or b for a, b in vecs) and not any(
        u[0] * v[1] - u[1] * v[0] for i, u in enumerate(vecs) for v in vecs[i + 1:])


def plane_type(n1, n2):
    """"left" when the columns of the 2x2 matrices n1, n2 (row-major)
    share one direction, "right" when their rows do, else "neither"."""
    if rank_one([(n1[0], n1[2]), (n1[1], n1[3]), (n2[0], n2[2]), (n2[1], n2[3])]):
        return "left"
    if rank_one([(n1[0], n1[1]), (n1[2], n1[3]), (n2[0], n2[1]), (n2[2], n2[3])]):
        return "right"
    return "neither"


def left_direction(n1, n2):
    """The first nonzero column of n1, n2, the direction of a left plane."""
    for v in (n1, n2):
        for col in ((v[0], v[2]), (v[1], v[3])):
            if col[0] or col[1]:
                return col
    raise AssertionError("zero plane")


def reference_line_relation(l0, l1):
    """The classifier of two arbitrary embedded lines, on field elements:
    ``line_relation`` before it compared one line with the standard line.
    It forms T l1.phi_inv and psi = l1.phi l0.phi_inv by matrix products,
    builds the three quadratics as ``BinaryForm``s, takes their gcd by
    ``euclid_form_gcd``, which shares no code with ``forms.form_gcd``, and
    classifies its roots and the planes there by the field-element copies
    above, which share none with the integer classifier."""
    from ncquad.grassmann import LineRelation, MeetWitness, reshuffle_rank

    field = l0.field
    if l1.field != field:
        raise ValueError("lines over different fields")
    # swapping the factors of l0's codomain moves row 2a+b of phi to row 2b+a
    T = l0.phi if l0.contracted_factor == 0 else reference_pick(l0.phi, 4, 4, _SWAP_ROWS)
    M = matmul(T, l1.phi_inv)

    # moving plane basis n_i(k) = kx * A_i + ky * B_i, A_i and -B_i columns
    # of M.  Scaling M scales the three forms alike and leaves their monic
    # gcd alone, so the forms are built from an integer multiple of M
    a_cols, b_cols = ((2, 3), (0, 1)) if l1.contracted_factor == 0 else ((1, 3), (0, 2))
    ints = M._num
    A = [ints[j::4] for j in a_cols]
    B = [tuple(-x for x in ints[j::4]) for j in b_cols]

    q1 = BinaryForm(field, (det2(A[0]), polar2(A[0], B[0]), det2(B[0])))
    q2 = BinaryForm(field, (det2(A[1]), polar2(A[1], B[1]), det2(B[1])))
    bform = BinaryForm(field, (
        polar2(A[0], A[1]),
        polar2(A[0], B[1]) + polar2(B[0], A[1]),
        polar2(B[0], B[1]),
    ))

    psi = matmul(l1.phi, l0.phi_inv)
    rr = reshuffle_rank(psi)
    orientations = (l0.contracted_factor, l1.contracted_factor)

    def plane_at(kx, ky):
        a = [lift(field, col(M, j)) for j in a_cols]
        b = [tuple(-x for x in lift(field, col(M, j))) for j in b_cols]
        return [tuple(kx * x + ky * y for x, y in zip(a[i], b[i])) for i in (0, 1)]

    if q1.is_zero() and q2.is_zero() and bform.is_zero():
        types = set()
        for kx, ky in ((1, 0), (0, 1), (1, 1)):
            n1, n2 = plane_at(kx, ky)
            types.add(plane_type(n1, n2))
        if types != {"left"} and types != {"right"}:
            raise AssertionError(f"inconsistent decomposable family types: {types}")
        if types == {"left"}:
            return LineRelation("coincide", psi_reshuffle_rank=rr, orientations=orientations)
        return LineRelation(
            "disjoint",
            flag="opposite decomposable family",
            psi_reshuffle_rank=rr,
            orientations=orientations,
        )

    gcd = euclid_form_gcd([f for f in (q1, q2, bform) if not f.is_zero()])
    if gcd.degree == 0:
        return LineRelation("disjoint", psi_reshuffle_rank=rr, orientations=orientations)

    if gcd.degree == 1:
        a, b = lift(field, gcd.coeffs)  # a*s + b*t
        roots = [((-b, a), None)]
    else:
        kind, disc, rs = root_structure(gcd)
        roots = [(r, disc if kind == "irreducible-quadratic" else None) for r in rs]

    witnesses = []
    for (kx, ky), disc in roots:
        n1, n2 = plane_at(kx, ky)
        ptype = plane_type(n1, n2)
        if ptype == "neither":
            raise AssertionError("plane at a common root is not decomposable")
        if ptype == "left":
            ell = left_direction(n1, n2)
            witnesses.append(MeetWitness(
                param_l1=lower(field, (kx, ky)),
                param_l0=lower(field, (ell[1], -ell[0])),
                extension_disc=lower(field, disc),
            ))
    if witnesses:
        return LineRelation(
            "meet",
            count=len(witnesses),
            witnesses=tuple(witnesses),
            psi_reshuffle_rank=rr,
            orientations=orientations,
        )
    return LineRelation(
        "disjoint",
        flag="decomposable only at opposite-ruling parameters",
        psi_reshuffle_rank=rr,
        orientations=orientations,
    )


def kernel_at(line, s, t):
    """Basis of the point K(s:t) of an embedded line, as the 4 rows of a
    4x2 matrix of lifted values, entry by entry; s and t are lifted values
    or ints, and may be ``Quad``s."""
    if not (s or t):
        raise ValueError("(0:0) is not a parameter")
    phi_inv = lift(line.field, rows(line.phi_inv))
    cols = []
    for b in range(2):
        vec = [0] * 4
        if line.contracted_factor == 0:
            vec[b], vec[2 + b] = -t, s
        else:
            vec[2 * b], vec[2 * b + 1] = -t, s
        cols.append([sum(r[k] * vec[k] for k in range(4)) for r in phi_inv])
    return [(cols[0][i], cols[1][i]) for i in range(4)]


def evaluate(form, s, t):
    """Value of a binary form at integer (s, t), term by term."""
    d = form.degree
    return sum(c * s ** (d - i) * t ** i for i, c in enumerate(lift(form.field, form.coeffs)))


def binary_form_gcd(forms):
    """Monic gcd of one to three binary quadratics (``BinaryForm``s of
    degree 2 over QQ or F_p) by ``forms.form_gcd`` on the integer
    coefficients of the nonzero ones; the zero form when every input is
    zero."""
    from math import lcm

    from ncquad.forms import form_gcd

    field = forms[0].field
    p = field.characteristic
    ints = []
    for f in forms:
        if p:
            ints.append(list(f.coeffs))
        else:
            den = lcm(*(c.denominator for c in f.coeffs))
            ints.append([c.numerator * (den // c.denominator) for c in f.coeffs])
    nonzero = [f for f in ints if any(f)]
    if not nonzero:
        return BinaryForm(field, [0])
    return monic(BinaryForm(field, form_gcd(nonzero, p)))


# -- Euclid on field elements (oracle for forms.form_gcd) ------------------
#
# The monic gcd by textbook Euclid, dividing by the leading field element
# at every step; polynomials are ascending lists of field elements.


def _strip(p):
    while p and not p[-1]:
        p = p[:-1]
    return p


def _poly_mod(a, b):
    a = list(a)
    db, lb = len(b) - 1, b[-1]
    inv = 1 / lb
    while len(a) - 1 >= db and _strip(a):
        a = _strip(a)
        if len(a) - 1 < db:
            break
        f = a[-1] * inv
        shift = len(a) - 1 - db
        for i, c in enumerate(b):
            a[shift + i] = a[shift + i] - f * c
        a = a[:-1]
    return _strip(a)


def euclid_form_gcd(forms):
    """Monic gcd of binary forms over QQ or F_p by textbook Euclid, with
    the conventions of ``binary_form_gcd``: the zero form when every
    input is zero."""
    field = forms[0].field
    nonzero = [f for f in forms if not f.is_zero()]
    if not nonzero:
        return BinaryForm(field, [0])
    s_mult = t_mult = None
    polys = []
    for f in nonzero:
        idx = [i for i, c in enumerate(f.coeffs) if c]
        hi, lo = max(idx), min(idx)
        sm, tm = f.degree - hi, lo
        s_mult = sm if s_mult is None else min(s_mult, sm)
        t_mult = tm if t_mult is None else min(t_mult, tm)
        polys.append(lift(field, list(reversed(f.coeffs[lo:hi + 1]))))
    g = polys[0]
    for p in polys[1:]:
        a, b = _strip(list(g)), _strip(list(p))
        while b:
            a, b = b, _poly_mod(a, b)
        g = a
    du = len(g) - 1
    total = du + s_mult + t_mult
    coeffs = [0] * (total + 1)
    for k, c in enumerate(g):
        coeffs[total - (k + s_mult)] = c
    return monic(BinaryForm(field, coeffs))


# -- column spans (oracle tools built on matrix(field, rows)) -------------


def rows(m) -> tuple:
    """The rows of a ``Matrix`` as tuples of scalars in normal form:
    ``Fraction``s over QQ, residues in [0, p) over F_p."""
    n = m.ncols
    entries = _elements(m.field, m._num, m._den)
    return tuple(entries[i * n:(i + 1) * n] for i in range(m.nrows))


def from_cols(field, cols, nrows=None):
    """The matrix with the given columns, built by ``matrix``."""
    cols = [tuple(c) for c in cols]
    if cols:
        return matrix(field, list(zip(*cols)))
    if nrows is None:
        raise ValueError("empty column list needs an explicit nrows")
    return matrix(field, [()] * nrows, ncols=0)


def transpose(m):
    return from_cols(m.field, rows(m), m.ncols)


def apply(m, vec) -> tuple:
    """Matrix times column vector, through the matrix product."""
    return col(matmul(m, from_cols(m.field, [vec])), 0)


def hstack(a, b):
    """[a | b] for two matrices over one field with equal row counts."""
    if a.field != b.field:
        raise ValueError("field mismatch")
    if a.nrows != b.nrows:
        raise ValueError("row count mismatch in hstack")
    return matrix(a.field, [r1 + r2 for r1, r2 in zip(rows(a), rows(b))], a.ncols + b.ncols)


def span_equal(a, b) -> bool:
    """Whether two matrices over one field have the same column span."""
    if a.nrows != b.nrows:
        raise ValueError("ambient mismatch")
    ra, rb = a.rank(), b.rank()
    return ra == rb == hstack(a, b).rank()


def span_contains(space, vec) -> bool:
    v = from_cols(space.field, [vec])
    if v.nrows != space.nrows:
        raise ValueError("ambient mismatch")
    return hstack(space, v).rank() == space.rank()


def column_space_oracle(m):
    """The original columns of m at the pivot columns of its reduced row
    echelon form (``rref_oracle``)."""
    _, pivots = rref_oracle(rows(m), m.ncols, m.field.characteristic)
    return from_cols(m.field, [col(m, j) for j in pivots], m.nrows)


def intersect_subspaces(a, b):
    """Basis of (column span of a) ∩ (column span of b), by kernel: the
    kernel vectors (x; y) of [a | -b] are mapped through a, then pruned to
    an independent set."""
    if a.field != b.field:
        raise ValueError("field mismatch")
    if a.nrows != b.nrows:
        raise ValueError("ambient mismatch")
    if a.ncols == 0 or b.ncols == 0:
        return from_cols(a.field, [], a.nrows)
    neg_b = from_cols(b.field, [[-x for x in c] for c in matrix_cols(b)], b.nrows)
    ker = kernel_basis(hstack(a, neg_b))
    cand = [apply(a, col(ker, j)[:a.ncols]) for j in range(ker.ncols)]
    return column_space_oracle(from_cols(a.field, cand, a.nrows))


# -- the counted artifacts, built as full subspaces and maps -----------------
#
# Each oracle builds the basis or map that the library only counts, by the
# construction it used before it counted: spans placed in the 16-dim tensor
# space and intersected by kernel, the block composition as phi_i^T applied
# to unit vectors, the mutated composition from unit vectors and R_0, and the
# Hom(R, K_i) section matrix from a table of polynomial products.


def relations_oracle(q):
    """(basis of R0, dim R1, basis of (R0 x V3) ∩ (V0 x R1))."""
    field = q.field
    r0 = column_space_oracle(q.w.reshape((0, 1, 2), (3,)))
    r1 = column_space_oracle(q.w.reshape((1, 2, 3), (0,)))
    cols_a, cols_b = [], []
    for r in matrix_cols(r0):        # indexed by 4a+2b+c
        for d in range(2):
            vec = [0] * 16
            for i in range(8):
                vec[2 * i + d] = r[i]
            cols_a.append(vec)
    for a in range(2):
        for r in matrix_cols(r1):    # indexed by 4b+2c+d
            vec = [0] * 16
            for i in range(8):
                vec[8 * a + i] = r[i]
            cols_b.append(vec)
    line = intersect_subspaces(from_cols(field, cols_a, 16), from_cols(field, cols_b, 16))
    return r0, r1.ncols, line


def record_eliminations(monkeypatch) -> list:
    """Rebind ``linalg._int_echelon`` so that each call appends the
    (rows, columns) it eliminates to the returned list."""
    import ncquad.linalg

    shapes = []
    original = ncquad.linalg._int_echelon

    def recording(rows, ncols, p):
        shapes.append((len(rows), ncols))
        return original(rows, ncols, p)

    monkeypatch.setattr(ncquad.linalg, "_int_echelon", recording)
    return shapes


def span_vectors_oracle(q) -> list:
    """The 8 spanning vectors of [R0 x V3 ; V0 x R1] in the 16-dim space,
    one per row, as lifted entries of w.  Vector (s, d) of R0 x V3 is
    (contraction by e_d) x e_s, whose entry 2i + s, i = 4a+2b+c, is
    w[2i + d]; vector (s, a) of V0 x R1 is e_s x (contraction by e_a),
    whose entry 8s + i, i = 4b+2c+d, is w[8a + i].  ``relations`` picks
    the first 7 through its own table."""
    w = tensor_entries(q.w)
    zero = w[0] * 0
    rows = [[w[t - s + d] if t % 2 == s else zero for t in range(16)]
            for s in range(2) for d in range(2)]
    rows += [[w[t % 8 + 8 * a] if t // 8 == s else zero for t in range(16)]
             for s in range(2) for a in range(2)]
    return rows


def span_rank_oracle(q) -> int:
    """rank [R0 x V3 ; V0 x R1] from all 8 of its spanning vectors
    (``span_vectors_oracle``), by Gauss elimination."""
    return rank_oracle(span_vectors_oracle(q))


def _composition_counts(comp, leg_width=4):
    """(dim ker comp, ranks of the consecutive column blocks of comp)."""
    legs = tuple(from_cols(comp.field, matrix_cols(comp)[off:off + leg_width], comp.nrows).rank()
                 for off in range(0, comp.ncols, leg_width))
    return kernel_basis(comp).ncols, legs


def block_composition_oracle(square):
    """The 4x8 composition of the block quiver: the path (o, n) of leg i is
    phi_i^T applied to the unit vector of its (contracted, other) index."""
    field = square.phi1.field
    cols = []
    for i in range(2):
        line = square.line(i)
        phit = transpose(line.phi)
        for o in range(2):
            for n in range(2):
                a, b = (o, n) if line.contracted_factor == 0 else (n, o)
                unit = [0] * 4
                unit[2 * a + b] = 1
                cols.append(apply(phit, unit))
    return from_cols(field, cols, 4)


def block_quiver_oracle(square):
    """(relation dim, leg ranks) of the block quiver."""
    return _composition_counts(block_composition_oracle(square))


def mutation_oracle(r0):
    """(relation dim, leg ranks) of the mutated quiver: the V0 x V1 leg is
    four unit vectors, the R_0 leg holds each relation with its V2 index
    fixed."""
    field = r0.field
    cols = []
    for o in range(2):
        for n in range(2):
            unit = [0] * 4
            unit[2 * o + n] = 1
            cols.append(unit)
    for r in matrix_cols(r0):        # indexed by 4a+2b+c
        for z in range(2):
            cols.append([r[4 * a + 2 * b + z] for a in range(2) for b in range(2)])
    return _composition_counts(from_cols(field, cols, 4))


# products (u0 s + u1 t) * (k-component of the contracted functional):
# u index 0 -> s, 1 -> t; contracted-factor basis index 0 -> -t, 1 -> s;
# coefficients of (s^2, st, t^2)
_HOM_POLY = {
    (0, 0): (0, -1, 0),   # s * (-t)
    (0, 1): (1, 0, 0),    # s * s
    (1, 0): (0, 0, -1),   # t * (-t)
    (1, 1): (0, 1, 0),    # t * s
}


def hom_R_K_oracle(line) -> int:
    """dim Hom(R, K) as 8 minus the rank of the 6x8 section matrix, summed
    term by term from the product table."""
    field = line.field
    cols = []
    for u in range(2):
        for g in lift(field, rows(line.phi_inv)):      # gamma_c in U0* x U1* coordinates
            col = [0] * 6
            for a in range(2):
                for b in range(2):
                    pol, out = (_HOM_POLY[(u, a)], b) if line.contracted_factor == 0 \
                        else (_HOM_POLY[(u, b)], a)
                    for m, c in enumerate(pol):
                        col[3 * out + m] = col[3 * out + m] + field.of(c) * g[2 * a + b]
            cols.append(col)
    return 8 - from_cols(field, cols, 6).rank()


def random_matrix_fp(rng, field, nrows, ncols):
    return matrix(field, [[field.of(rng.randrange(field.p)) for _ in range(ncols)]
                          for _ in range(nrows)])


def random_invertible_fp(rng, field, n):
    while True:
        m = random_matrix_fp(rng, field, n, n)
        if det_oracle(rows(m), field.p):
            return m


def random_quintuple_fp(rng, field) -> Quintuple:
    while True:
        entries = [field.of(rng.randrange(field.p)) for _ in range(16)]
        if any(e for e in entries):
            return Quintuple(Tensor(field, (2, 2, 2, 2), entries, SLOT_LABELS))


def random_tensor_qq(rng, density, height=9) -> Quintuple:
    """A nonzero quintuple over QQ whose entries are each a nonzero
    rational of height at most ``height`` with probability ``density``."""
    from ncquad.fields import QQ

    while True:
        entries = [Fraction(rng.choice((-1, 1)) * rng.randint(1, height), rng.randint(1, height))
                   if rng.random() < density else Fraction(0) for _ in range(16)]
        if any(entries):
            return Quintuple(Tensor(QQ, (2, 2, 2, 2), entries, SLOT_LABELS))


def _reference_integers(field, values) -> tuple[list, int]:
    """Each value through ``field.of``, then over QQ the numerators over
    their least common denominator, over F_p the residues over 1: the
    coercion ``Matrix(field, rows)`` once made."""
    values = [field.of(x) for x in values]
    if field.characteristic:
        return values, 1
    den = math.lcm(*[x.denominator for x in values])
    return [x.numerator * (den // x.denominator) for x in values], den


def _reference_row(field, entries) -> tuple[list, int]:
    """w's row from its entries keyed by multi-index (i0, i1, i2, i3)."""
    return _reference_integers(field, [entries.get(idx, 0) for idx in product(range(2), repeat=4)])


def reference_type_a_row(a, b, c, field) -> tuple[list, int]:
    """(num, den) of w's row for ``build_type_a(a, b, c, field)``, built as
    the library built it before it picked the row from (a, b, c): each
    coefficient through ``field.of``, the excluded locus decided on their
    integers, and the eight monomials of its docstring placed in a dict.
    ``ValueError`` on the excluded locus, with the library's messages."""
    a, b, c = field.of(a), field.of(b), field.of(c)
    p = field.characteristic
    (x, y, z), _ = _reference_integers(field, (a, b, c))
    if not (x or y or z):
        raise ValueError("excluded locus S: (a:b:c) is not a projective point")
    if len({v * v % p if p else v * v for v in (x, y, z)}) == 1:
        raise ValueError("excluded locus S: a^2 = b^2 = c^2")
    if not x and not y:
        raise ValueError("excluded locus S: point (0:0:1)")
    if not x and not z:
        raise ValueError("excluded locus S: point (0:1:0)")
    return _reference_row(field, {
        (1, 1, 0, 0): a, (1, 0, 1, 0): b, (0, 1, 1, 0): a, (0, 0, 0, 0): c,
        (0, 0, 1, 1): a, (0, 1, 0, 1): b, (1, 0, 0, 1): a, (1, 1, 1, 1): c,
    })


def reference_linear_row(field) -> tuple[list, int]:
    """(num, den) of w's row for ``build_linear_quadric(field)``, from the
    four monomials of its docstring placed in a dict."""
    return _reference_row(field, {(0, 0, 1, 1): 1, (1, 0, 0, 1): -1,
                                  (0, 1, 1, 0): -1, (1, 1, 0, 0): 1})


def random_type_a_triple(rng, height=20):
    """A random rational triple accepted by the type-A constructor."""
    from ncquad.quintuples import build_type_a

    while True:
        a, b, c = (Fraction(rng.randint(-height, height), rng.randint(1, height))
                   for _ in range(3))
        try:
            return (a, b, c), build_type_a(a, b, c)
        except ValueError:
            continue


# -- contraction by functionals (oracle for the flattenings of w) ---------
#
# Per-entry sums over tensor_entry, sharing no code with Tensor.reshape;
# a contraction of w is a ``GeneralTensor``.


def contract(t, slot: int, functional) -> GeneralTensor:
    """Pair axis ``slot`` of ``t`` (w or a ``GeneralTensor``) against a
    functional (coefficient sequence); the arity drops by one."""
    t = GeneralTensor.of(t)
    if not 0 <= slot < len(t.shape):
        raise ValueError(f"slot {slot} out of range for arity {len(t.shape)}")
    field = t.field
    functional = [field.of(c) for c in functional]
    if len(functional) != t.shape[slot]:
        raise ValueError("functional length does not match the slot")
    rest = t.shape[:slot] + t.shape[slot + 1:]
    out = []
    for idx in product(*(range(n) for n in rest)):
        s = 0
        for a, c in enumerate(functional):
            s = s + c * tensor_entry(t, idx[:slot] + (a,) + idx[slot:])
        out.append(s)
    return GeneralTensor(field, rest, out, t.slots[:slot] + t.slots[slot + 1:])


def contraction_oracle(q: Quintuple, j: int):
    """M_j by contraction: column 2a + b is <e_a x e_b, w> at slot pair
    (j, j+1), and its row 2c + d the entry at index c of slot j+2 and d
    of slot j+3 (indices mod 4)."""
    a_slot, b_slot = j % 4, (j + 1) % 4
    rest = sorted({0, 1, 2, 3} - {a_slot, b_slot})
    field = q.field
    cols = []
    for a, b in product(range(2), repeat=2):
        units = {a_slot: [0, 0], b_slot: [0, 0]}
        units[a_slot][a] = units[b_slot][b] = 1
        # the higher slot first, so that the lower keeps its position
        t = contract(q.w, max(units), units[max(units)])
        t = contract(t, min(units), units[min(units)])
        col = []
        for c, d in product(range(2), repeat=2):
            at = {(j + 2) % 4: c, (j + 3) % 4: d}
            col.append(tensor_entry(t, tuple(at[k] for k in rest)))
        cols.append(col)
    return from_cols(field, cols)


def verify_witness(q: Quintuple, j: int, witness) -> bool:
    """Check that <phi x chi, w> = 0 at slot pair (j, j+1), entry by entry
    of w, in the lifted arithmetic of the witness's field."""
    phi, chi = (lift(q.field, v, witness.extension_disc) for v in (witness.phi, witness.chi))
    a, b = j % 4, (j + 1) % 4
    others = [k for k in range(4) if k not in (a, b)]
    for rest in product(range(2), repeat=2):
        total = 0
        for x, y in product(range(2), repeat=2):
            idx = [0] * 4
            idx[a], idx[b] = x, y
            for k, i in zip(others, rest):
                idx[k] = i
            total = total + phi[x] * chi[y] * tensor_entry(q.w, tuple(idx))
        if total:
            return False
    return True


# -- Pluecker coordinates (oracle for points of Gr(1,3)) ------------------
#
# A point is a 2-dim kernel in V with its normalized vector of 2x2 minors;
# two kernels span the same plane iff their vectors agree.

PLUECKER_PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))


class GPoint:
    """A point of Gr(1,3): 2-dim kernel in V plus its Pluecker vector."""

    def __init__(self, kernel, pluecker: tuple):
        self.kernel = kernel
        self.pluecker = pluecker

    @classmethod
    def from_kernel(cls, kernel) -> "GPoint":
        if kernel.nrows != 4 or kernel.ncols != 2:
            raise ValueError("kernel must be a 4x2 basis matrix")
        if kernel.rank() != 2:
            raise ValueError("kernel basis is degenerate")
        k = lift(kernel.field, rows(kernel))
        p = [k[i][0] * k[j][1] - k[j][0] * k[i][1] for i, j in PLUECKER_PAIRS]
        # normalize: first nonzero coordinate 1
        for x in p:
            if x:
                p = [y / x for y in p]
                break
        pt = cls(kernel, tuple(p))
        if not pt.satisfies_pluecker():
            raise AssertionError("Pluecker relation violated; minor bookkeeping bug")
        return pt

    def satisfies_pluecker(self) -> bool:
        p01, p02, p03, p12, p13, p23 = self.pluecker
        return not (p01 * p23 - p02 * p13 + p03 * p12)

    def same_point(self, other: "GPoint") -> bool:
        return self.pluecker == other.pluecker


def point_from_quotient(f) -> GPoint:
    """Point of G from a rank-2 quotient map f: V ->> k^2 (a 2x4 matrix)."""
    if f.nrows != 2 or f.ncols != 4:
        raise ValueError("expected a 2x4 matrix")
    if f.rank() != 2:
        raise ValueError("quotient map must have rank 2")
    return GPoint.from_kernel(kernel_basis(f))


def point_at(line, s, t) -> GPoint:
    """The point K(s:t) of an embedded line."""
    return GPoint.from_kernel(matrix(line.field, kernel_at(line, s, t)))


# -- exhaustive pure-pair enumeration over F_{p^2} -------------------------


def _proj_line_fp2(p, nu):
    """P^1 over F_{p^2}: tuples (a0, b0, a1, b1), each coordinate a + b*theta."""
    pts = [(1, 0, x, y) for x in range(p) for y in range(p)]
    pts.append((0, 0, 1, 0))
    return pts


def _slot_tables(q: Quintuple, j: int):
    """W[a][b] = the four remaining entries once slots (j, j+1) are fixed."""
    other = [k for k in range(4) if k not in (j, (j + 1) % 4)]
    tables = [[None, None], [None, None]]
    for a in range(2):
        for b in range(2):
            vals = []
            for c in range(2):
                for d in range(2):
                    idx = [0, 0, 0, 0]
                    idx[j] = a
                    idx[(j + 1) % 4] = b
                    idx[other[0]] = c
                    idx[other[1]] = d
                    vals.append(int(tensor_entry(q.w, tuple(idx))))
            tables[a][b] = vals
    return tables


def enumeration_oracle_failing_pairs(q: Quintuple, nu: int) -> set[int]:
    """Slot pairs j where a nonzero pure pair over F_{p^2} kills the tensor.

    Pure brute force: both functionals run over all of P^1(F_{p^2}).
    """
    p = q.field.p
    points = _proj_line_fp2(p, nu)
    failing = set()
    for j in range(4):
        tables = _slot_tables(q, j)
        w00, w10 = tables[0][0], tables[1][0]
        w01, w11 = tables[0][1], tables[1][1]
        found = False
        for (a0, b0, a1, b1) in points:
            # contract slot j: v{b}[k] = phi0*W[0][b][k] + phi1*W[1][b][k]
            v0a = [(a0 * w00[k] + a1 * w10[k]) % p for k in range(4)]
            v0b = [(b0 * w00[k] + b1 * w10[k]) % p for k in range(4)]
            v1a = [(a0 * w01[k] + a1 * w11[k]) % p for k in range(4)]
            v1b = [(b0 * w01[k] + b1 * w11[k]) % p for k in range(4)]
            for (c0, d0, c1, d1) in points:
                ok = True
                for k in range(4):
                    ra = (c0 * v0a[k] + d0 * v0b[k] * nu + c1 * v1a[k] + d1 * v1b[k] * nu) % p
                    rb = (c0 * v0b[k] + d0 * v0a[k] + c1 * v1b[k] + d1 * v1a[k]) % p
                    if ra or rb:
                        ok = False
                        break
                if ok:
                    found = True
                    break
            if found:
                break
        if found:
            failing.add(j)
    return failing


def enumeration_oracle_failing_pairs_rank(q: Quintuple, nu: int) -> set[int]:
    """Same answer as the full scan, exhaustive over the first functional
    only: for fixed phi the second functional exists iff the contracted
    4x2 matrix has rank <= 1, i.e. all six 2x2 minors vanish.  Used where
    the double scan is out of reach (p = 101)."""
    p = q.field.p
    points = _proj_line_fp2(p, nu)
    failing = set()
    for j in range(4):
        tables = _slot_tables(q, j)
        w00, w10 = tables[0][0], tables[1][0]
        w01, w11 = tables[0][1], tables[1][1]
        for (a0, b0, a1, b1) in points:
            v0a = [(a0 * w00[k] + a1 * w10[k]) % p for k in range(4)]
            v0b = [(b0 * w00[k] + b1 * w10[k]) % p for k in range(4)]
            v1a = [(a0 * w01[k] + a1 * w11[k]) % p for k in range(4)]
            v1b = [(b0 * w01[k] + b1 * w11[k]) % p for k in range(4)]
            singular = True
            for k in range(4):
                if not singular:
                    break
                for l in range(k + 1, 4):
                    ma = (v0a[k] * v1a[l] + v0b[k] * v1b[l] * nu
                          - v0a[l] * v1a[k] - v0b[l] * v1b[k] * nu) % p
                    mb = (v0a[k] * v1b[l] + v0b[k] * v1a[l]
                          - v0a[l] * v1b[k] - v0b[l] * v1a[k]) % p
                    if ma or mb:
                        singular = False
                        break
            if singular:
                failing.add(j)
                break
    return failing


def nonresidue_int(p: int) -> int:
    n = 2
    while pow(n, (p - 1) // 2, p) != p - 1:
        n += 1
    return n


def schema2_projection(cert) -> dict:
    """The leaves of a certificate that schema/2 keeps, built from the
    record's fields through ``certify``'s leaf renderers: the digest,
    field and convention, the geometricity report, ``det`` when the
    determinant stage ran, the line relation when the lines stage ran,
    and the verdict."""
    from ncquad.certify import _geometricity_json, _line_relation_json
    from ncquad.fileformat import scalar_json

    p = cert.q.field.characteristic
    out = {"digest": cert.digest, "field": cert.field, "convention": cert.convention,
           "geometricity": _geometricity_json(cert.geometricity, p), "verdict": cert.verdict}
    if cert.square is not None:
        out["det"] = scalar_json(cert.square.contraction_det)
    elif cert.stage == "determinant":
        out["det"] = "0"
    if cert.lines is not None:
        out["lines"] = _line_relation_json(cert.lines, p)
    return out


def certificate_json(cert) -> dict:
    """The schema/1 document of ``cert`` as its readers get it: parsed
    from its canonical bytes, every shared stage document spliced in."""
    return json.loads(canonical_json_bytes(cert.to_dict()))


def root_branches(stages) -> set:
    """The rare root branches a certificate's stage documents show: a
    geometricity witness over a quadratic extension, and a line relation
    that coincides, meets at rational roots or meets at conjugate roots."""
    kinds = set()
    for stage in stages:
        if stage["stage"] == "geometricity":
            if any("extension_minpoly" in p.get("witness", {}) for p in stage["report"]["pairs"]):
                kinds.add("extension witness")
        elif stage["stage"] == "lines":
            relation = stage["relation"]
            if relation["verdict"] == "Coincide":
                kinds.add("coincide")
            elif relation["verdict"] == "Meet":
                irreducible = any("extension_minpoly" in w for w in relation["witnesses"])
                kinds.add("irreducible meet" if irreducible else "rational meet")
    return kinds


# -- geometricity on field elements (the reference for the integer path) ----


def rank_one_factor(k00, k01, k10, k11, field):
    """Factor a nonzero singular 2x2 matrix of lifted values as u x v
    (kappa[a][b] = u_a v_b), written as ncquad's values over ``field``."""
    if k00 or k01:
        one = (k00 or k01) / (k00 or k01)
        u, v = (one, k10 / k00 if k00 else k11 / k01), (k00, k01)
    else:
        one = (k10 or k11) / (k10 or k11)
        u, v = (one - one, one), (k10, k11)
    return lower(field, u), lower(field, v)


def reference_pure_kernel_witness(kernel, field):
    """A pure tensor in the column span of a >=2 dimensional kernel of
    2x2 matrices, over the field itself or a quadratic extension, found by
    field-element arithmetic, ``BinaryForm`` and ``root_structure``."""
    from ncquad.quintuples import PureWitness

    v1, v2 = lift(field, col(kernel, 0)), lift(field, col(kernel, 1))
    det1 = v1[0] * v1[3] - v1[1] * v1[2]
    det2 = v2[0] * v2[3] - v2[1] * v2[2]
    polar = v1[0] * v2[3] + v2[0] * v1[3] - v1[1] * v2[2] - v2[1] * v1[2]
    form = BinaryForm(field, (det1, polar, det2))
    if form.is_zero():
        if not det1 and any(v1):
            u, v = rank_one_factor(v1[0], v1[1], v1[2], v1[3], field)
            return PureWitness(u, v), "kernel basis vector is itself singular"
        u, v = rank_one_factor(v2[0], v2[1], v2[2], v2[3], field)
        return PureWitness(u, v), "kernel basis vector is itself singular"
    kind, disc, roots = root_structure(form)
    s, t = roots[0]
    combo = [s * a + t * b for a, b in zip(v1, v2)]
    u, v = rank_one_factor(combo[0], combo[1], combo[2], combo[3], field)
    if kind != "irreducible-quadratic":
        return PureWitness(u, v), "rational singular combination of kernel vectors"
    return (
        PureWitness(u, v, extension_disc=lower(field, disc)),
        f"singular combination exists only over theta^2 = {spelled(disc, field)}",
    )


def reference_pair_report(j: int, K, field):
    """The report of slot pair j from the reduced kernel basis K of M_j,
    a ``Matrix``, on field elements."""
    from ncquad.quintuples import PureWitness, SlotPairReport

    kd = K.ncols
    if kd == 0:
        return SlotPairReport(j, True, 0, certificate="contraction matrix invertible")
    if kd == 1:
        v = lift(field, col(K, 0))
        if v[0] * v[3] - v[1] * v[2]:
            return SlotPairReport(j, True, 1,
                                  certificate="kernel spanned by a nonsingular 2x2 element")
        u, w = rank_one_factor(v[0], v[1], v[2], v[3], field)
        return SlotPairReport(j, False, 1, witness=PureWitness(u, w),
                              certificate="kernel spanned by a singular 2x2 element")
    witness, note = reference_pure_kernel_witness(K, field)
    return SlotPairReport(j, False, kd, witness=witness, certificate=note)


def reference_is_geometric(q):
    """``is_geometric`` on field elements: every pair's report from the
    ``kernel_basis`` matrix of its own contraction matrix."""
    from ncquad.quintuples import GeometricityReport

    return GeometricityReport(tuple(
        reference_pair_report(j, kernel_basis(contraction_matrix(q, j)), q.field)
        for j in range(4)))


# -- geometricity from the oracle kernels ------------------------------------


def geometricity_oracle(q) -> dict:
    """The geometricity report of q as ``certify._geometricity_json``
    writes it, from ``kernel_oracle`` on each of the four contraction
    matrices; no pair reuses another's kernel.  A witness is factored
    from the oracle's basis by the field-element reference above, which
    runs no elimination."""
    from ncquad.fileformat import scalar_json

    field = q.field
    pairs = []
    for j in range(4):
        m = contraction_matrix(q, j)
        basis = kernel_oracle(rows(m), 4, field.characteristic)
        witness = None
        if not basis:
            passed, note = True, "contraction matrix invertible"
        elif len(basis) == 1:
            v = lift(field, basis[0])
            passed = bool(v[0] * v[3] - v[1] * v[2])
            if passed:
                note = "kernel spanned by a nonsingular 2x2 element"
            else:
                u, w = rank_one_factor(*v, field)
                witness, note = (u, w, None), "kernel spanned by a singular 2x2 element"
        else:
            pw, note = reference_pure_kernel_witness(from_cols(field, basis), field)
            passed, witness = False, (pw.phi, pw.chi, pw.extension_disc)
        entry = {"pair": [j, (j + 1) % 4], "passed": passed,
                 "kernel_dim": len(basis), "certificate": note}
        if witness is not None:
            phi, chi, disc = witness
            entry["witness"] = {"phi": [scalar_json(x) for x in phi],
                                "chi": [scalar_json(x) for x in chi]}
            if disc is not None:
                entry["witness"]["extension_minpoly"] = f"theta^2-({spelled(disc, field)})"
        pairs.append(entry)
    return {"passed": all(e["passed"] for e in pairs), "pairs": pairs}


def random_tensor_fp(rng, field, density) -> Quintuple:
    """A nonzero quintuple over F_p whose entries are each nonzero with
    probability ``density``."""
    while True:
        entries = [field.of(rng.randrange(1, field.p)) if rng.random() < density else 0
                   for _ in range(16)]
        if any(entries):
            return Quintuple(Tensor(field, (2, 2, 2, 2), entries, SLOT_LABELS))


def change_basis(q, gs) -> Quintuple:
    """The quintuple with w transformed by g_0 x g_1 x g_2 x g_3, for 2x2
    matrices g_i acting on V_i: one slot at a time, by per-entry sums."""
    field = q.field
    w = list(tensor_entries(q.w))
    for slot, g in enumerate(gs):
        stride = 1 << (3 - slot)
        out = [0] * 16
        for idx in range(16):
            i = (idx // stride) % 2
            base = idx - i * stride
            out[idx] = entry(g, i, 0) * w[base] + entry(g, i, 1) * w[base + stride]
        w = out
    return Quintuple(Tensor(field, (2, 2, 2, 2), w, SLOT_LABELS))


def permute_slots(q, sigma) -> Quintuple:
    """The quintuple whose slot k holds slot ``sigma[k]`` of q: its entry
    at (i_0, i_1, i_2, i_3) is the entry of w whose index in slot
    ``sigma[k]`` is i_k.  A pick table on the 16 row-major entries, read
    off the bits of each flat index."""
    picks = []
    for flat in range(16):
        old = [0] * 4
        for k in range(4):
            old[sigma[k]] = (flat >> (3 - k)) & 1
        picks.append(8 * old[0] + 4 * old[1] + 2 * old[2] + old[3])
    w = tensor_entries(q.w)
    return Quintuple(Tensor(q.field, (2, 2, 2, 2), [w[i] for i in picks], SLOT_LABELS))


# -- the relations, quiver and ext_table stage documents, built inline -------
#
# The dict literals ``full_pipeline`` wrote for every input before it shared
# each distinct stage document between inputs; the shared documents must
# encode to the same bytes.


def reference_relations_stage(rel, table) -> dict:
    return {
        "stage": "relations",
        "passed": rel.valid,
        "dims": dict(zip(("R0", "R1", "W"), rel.dims)),
        "issues": list(rel.issues),
        "window": {f"{i},{j}": list(table.cells[(i, j)])
                   for (i, j) in sorted(table.cells)},
        "window_mismatches": [list(c) for c in table.mismatches],
    }


def _reference_quiver_json(qa) -> dict:
    return {
        "vertices": list(qa.vertices),
        "arrows": [
            {"from": a.source, "to": a.target, "labels": list(a.labels), "space": a.space}
            for a in qa.arrows
        ],
        "arrow_dim_total": sum(len(a.labels) for a in qa.arrows),
        "relation_dim": qa.relation_dim,
        "total_dim": qa.total_dim,
        "gram": [list(r) for r in qa.gram],
    }


def reference_quiver_stage(bq, lq, mreport, base_changed) -> dict:
    return {
        "stage": "quiver",
        "passed": bq.relation_dim == 4 and mreport.structural_match,
        "block": _reference_quiver_json(bq),
        "linear": _reference_quiver_json(lq),
        "mutation": {
            "orthogonality_bijective": mreport.orthogonality_bijective,
            "a13_dim": mreport.a13_dim,
            "new_hom_dim": mreport.new_hom_dim,
            "structural_match": mreport.structural_match,
            "notes": list(mreport.notes),
            "base_changed_linear_gram": [list(r) for r in base_changed],
        },
    }


def reference_ext_table_stage(hom) -> dict:
    """Every cell derived afresh by ``_cell`` from the Hom(R, K_i) dims ``hom``."""
    from ncquad.certify import OBJECTS, _cell

    cells = {f"{i},{j}": _cell(hom, i, j) for i in range(4) for j in range(4)}
    return {"stage": "ext_table", "passed": True,
            "table": {"objects": list(OBJECTS), "cells": cells},
            "axioms_tagged": ["pullback fully faithful", "blow-up functors fully faithful"]}


def _reference_witness_coordinates(witness, p: int, **coordinates) -> dict:
    from ncquad.fields import _field_str
    from ncquad.fileformat import scalar_json

    out = {key: [scalar_json(x) for x in vec] for key, vec in coordinates.items()}
    if witness.extension_disc is not None:
        out["extension_minpoly"] = f"theta^2-({_field_str(witness.extension_disc, p)})"
    return out


def reference_geometricity_stage(report, p: int) -> dict:
    pairs = []
    for r in report.pairs:
        entry = {"pair": [r.j, (r.j + 1) % 4], "passed": r.passed,
                 "kernel_dim": r.kernel_dim, "certificate": r.certificate}
        if r.witness is not None:
            entry["witness"] = _reference_witness_coordinates(
                r.witness, p, phi=r.witness.phi, chi=r.witness.chi)
        pairs.append(entry)
    return {"stage": "geometricity", "passed": report.passed,
            "report": {"passed": report.passed, "pairs": pairs}}


def reference_lines_stage(lr, passed: bool, p: int) -> dict:
    return {"stage": "lines", "passed": passed, "relation": {
        "verdict": lr.verdict.capitalize(),
        "count": lr.count,
        "flag": lr.flag,
        "psi_reshuffle_rank": lr.psi_reshuffle_rank,
        "orientations": list(lr.orientations),
        "witnesses": [_reference_witness_coordinates(w, p, param_line1=w.param_l1,
                                                     param_line0=w.param_l0)
                      for w in lr.witnesses],
    }}


def reference_gram_stage(euler) -> dict:
    from ncquad.squares import BLOCK_GRAM

    return {"stage": "gram", "passed": euler == BLOCK_GRAM, "euler": [list(r) for r in euler]}
