"""Shared test utilities: independent oracles and random samplers.

The geometricity oracle here deliberately shares no code with the
decision procedure under test: it enumerates projective pairs of
functionals over F_{p^2} = F_p[theta]/(theta^2 - nu) using raw integer
pairs, and reports the slot pairs where some nonzero pure functional
pair annihilates the tensor.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations, product

from ncquad.quintuples import Quintuple, SLOT_LABELS
from ncquad.tensors import Tensor


def random_rational(rng, height=10) -> Fraction:
    return Fraction(rng.randint(-height, height), rng.randint(1, height))


def random_matrix_qq(rng, nrows, ncols, height=9):
    from ncquad.fields import QQ
    from ncquad.linalg import Matrix

    return Matrix(QQ, [[Fraction(rng.randint(-height, height)) for _ in range(ncols)]
                       for _ in range(nrows)])


def random_invertible_qq(rng, n, height=9):
    while True:
        m = random_matrix_qq(rng, n, n, height)
        if m.det():
            return m


# -- naive Fraction linear algebra (oracle for the QQ kernels) -------------
#
# Plain Gauss-Jordan, the Leibniz formula and the triple loop on Fraction
# entries, sharing no code with ncquad.linalg.  Matrices are lists of rows.


def rref_oracle(rows, ncols):
    """Reduced row echelon form: (nonzero rows, pivot columns)."""
    a = [[Fraction(x) for x in r] for r in rows]
    pivots = []
    r = 0
    for c in range(ncols):
        p = next((i for i in range(r, len(a)) if a[i][c] != 0), None)
        if p is None:
            continue
        a[r], a[p] = a[p], a[r]
        lead = a[r][c]
        a[r] = [x / lead for x in a[r]]
        for i in range(len(a)):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
    return a[:r], pivots


def kernel_oracle(rows, ncols):
    """Reduced kernel basis: one vector per free column f, equal to 1 at f
    and 0 at the other free columns."""
    red, pivots = rref_oracle(rows, ncols)
    basis = []
    for f in (c for c in range(ncols) if c not in pivots):
        x = [Fraction(0)] * ncols
        x[f] = Fraction(1)
        for row, pc in zip(red, pivots):
            x[pc] = -row[f]
        basis.append(tuple(x))
    return basis


def det_oracle(rows):
    """Leibniz formula: the signed sum over all permutations."""
    n = len(rows)
    total = Fraction(0)
    for perm in permutations(range(n)):
        inversions = sum(1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j])
        term = Fraction(-1 if inversions % 2 else 1)
        for i in range(n):
            term *= rows[i][perm[i]]
        total += term
    return total


def inverse_oracle(rows):
    """Right half of the reduced form of [A | I]; None when A is singular."""
    n = len(rows)
    aug = [list(r) + [Fraction(int(i == j)) for j in range(n)] for i, r in enumerate(rows)]
    red, pivots = rref_oracle(aug, 2 * n)
    if pivots[:n] != list(range(n)):
        return None
    return [tuple(r[n:]) for r in red]


def matmul_oracle(a, b, ncols):
    """Product of an m x k and a k x ncols matrix by the triple loop."""
    k = len(b)
    return [tuple(sum((a[i][t] * b[t][j] for t in range(k)), Fraction(0)) for j in range(ncols))
            for i in range(len(a))]


def span_equal(a, b) -> bool:
    """Whether two matrices over one field have the same column span."""
    if a.nrows != b.nrows:
        raise ValueError("ambient mismatch")
    ra, rb = a.rank(), b.rank()
    return ra == rb == a.hstack(b).rank()


def random_matrix_fp(rng, field, nrows, ncols):
    from ncquad.linalg import Matrix

    return Matrix(field, [[field.of(rng.randrange(field.p)) for _ in range(ncols)]
                          for _ in range(nrows)])


def random_invertible_fp(rng, field, n):
    while True:
        m = random_matrix_fp(rng, field, n, n)
        if m.det():
            return m


def random_quintuple_fp(rng, field) -> Quintuple:
    while True:
        entries = [field.of(rng.randrange(field.p)) for _ in range(16)]
        if any(e for e in entries):
            return Quintuple(Tensor(field, (2, 2, 2, 2), entries, SLOT_LABELS))


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
# Per-entry sums over Tensor.entry, sharing no code with Tensor.reshape.


def contract(t: Tensor, slot: int, functional) -> Tensor:
    """Pair axis ``slot`` of ``t`` against a functional (coefficient
    sequence); the arity drops by one."""
    if not 0 <= slot < len(t.shape):
        raise ValueError(f"slot {slot} out of range for arity {len(t.shape)}")
    field = t.field
    functional = [field.of(c) for c in functional]
    if len(functional) != t.shape[slot]:
        raise ValueError("functional length does not match the slot")
    rest = t.shape[:slot] + t.shape[slot + 1:]
    out = []
    for idx in product(*(range(n) for n in rest)):
        s = field.zero
        for a, c in enumerate(functional):
            s = s + c * t.entry(idx[:slot] + (a,) + idx[slot:])
        out.append(s)
    return Tensor(field, rest, out, t.slots[:slot] + t.slots[slot + 1:])


def verify_witness(q: Quintuple, j: int, witness) -> bool:
    """Check that <phi x chi, w> = 0 at slot pair (j, j+1)."""
    from ncquad.fields import QuadraticExtension

    w = q.w
    if witness.extension_disc is not None:
        ext = QuadraticExtension(q.field, witness.extension_disc)
        w = Tensor(ext, w.shape, [ext.of(x) for x in w.entries], w.slots)
    first = contract(w, j % 4, witness.phi)
    # after removing slot j, slot (j+1) mod 4 sits at position j if j < 3, else 0
    pos = j % 4 if j % 4 < 3 else 0
    return contract(first, pos, witness.chi).is_zero()


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
        field = kernel.field
        p = []
        for i, j in PLUECKER_PAIRS:
            p.append(kernel[i, 0] * kernel[j, 1] - kernel[j, 0] * kernel[i, 1])
        # normalize: first nonzero coordinate 1
        for x in p:
            if x:
                inv = field.one / x
                p = [inv * y for y in p]
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
    return GPoint.from_kernel(f.kernel_basis())


def point_at(line, s, t) -> GPoint:
    """The point K(s:t) of an embedded line."""
    return GPoint.from_kernel(line.kernel_at(s, t))


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
                    vals.append(q.w.entry(tuple(idx)).value)
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
