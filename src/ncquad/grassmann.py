"""Lines in the Grassmannian G = Gr(1,3) of lines in P^3.

A point of G is a 2-dimensional kernel inside the fixed 4-dimensional
space V.  An embedded line comes from a factorization phi: V ~ U0 x U1
(a 4x4 invertible matrix); its points are the kernels

    K(s:t) = phi^{-1}( span(-t, s) x U1 )        (contracted factor 0)
    K(s:t) = phi^{-1}( U0 x span(-t, s) )        (contracted factor 1)

so the parametrizing P^1 is the projectivization of the contracted
factor.  The standard line (phi = I, contracted factor 0) is line 0 of
every square, and a line is compared with it exactly: whether some plane
of its family equals a plane of the standard one reduces to common roots
of three binary quadratics (the determinants of the 2x2 reshapes of a
basis of the moving plane and their polar form).  They are integers, the
numerators of phi^{-1} or its residues mod p, and so is their gcd.  Its
roots are classified on integers by ``forms._quadratic_root``, the
classifier geometricity asks too, and the plane at each root is a meet
when its columns share one direction, decided on integer pairs
x + y theta (``_left_direction``).  Scalars are built only for the meet
parameters a certificate prints: base-field values, or (x, y) pairs for
x + y theta when the roots need a quadratic extension.
"""

from __future__ import annotations

from .forms import _quadratic_root, form_gcd
from .linalg import Matrix, _elements, _pick, _pick_kept, _Picks
from .records import Record


class EmbeddedLine(Record):
    """A line P^1 -> G induced by phi: V ~ U0 x U1 and a contracted factor.

    ``phi_inv`` is handed over by the geometric square that stores it, so
    a line never inverts a matrix; only ranks are read from ``phi``, which
    may be any nonzero multiple of the inverse."""

    phi: Matrix
    phi_inv: Matrix
    contracted_factor: int

    def __post_init__(self):
        for m in (self.phi, self.phi_inv):
            if m.nrows != 4 or m.ncols != 4:
                raise ValueError("phi must be 4x4")
        if self.contracted_factor not in (0, 1):
            raise ValueError("contracted factor is 0 or 1")

    @property
    def field(self):
        return self.phi.field


class MeetWitness(Record):
    """An intersection point: parameters on both lines, plus the minimal
    polynomial data when the coordinates need a quadratic extension: then
    they are (x, y) pairs for x + y theta, theta^2 = extension_disc."""

    param_l1: tuple
    param_l0: tuple
    extension_disc: object = None


class LineRelation(Record):
    verdict: str                     # "disjoint" | "meet" | "coincide"
    count: int = 0
    witnesses: tuple = ()
    flag: str = ""
    psi_reshuffle_rank: int = 0
    orientations: tuple = (0, 0)


def _det2(v):
    return v[0] * v[3] - v[1] * v[2]


def _polar2(u, v):
    return u[0] * v[3] + v[0] * u[3] - u[1] * v[2] - v[1] * u[2]


def _left_direction(n1, n2, d: int, p: int):
    """The first nonzero column of the 2x2 matrices n1, n2 (row-major)
    when every column is a multiple of it, that is when their span is the
    plane l x U1 of the standard family for that column l; None otherwise.
    Each entry is a pair (x, y) of integers (residues mod p, reduced) for
    x + y theta, theta^2 = d a non-square, or d = 0 when every y is 0;
    x + y theta = 0 iff x = y = 0."""
    cols = ((n1[0], n1[2]), (n1[1], n1[3]), (n2[0], n2[2]), (n2[1], n2[3]))
    lead = next((col for col in cols if any(x or y for x, y in col)), None)
    if lead is None:
        return None
    (a, b), (c, e) = lead
    for (f, g), (h, k) in cols:
        # (a + b theta)(h + k theta) - (c + e theta)(f + g theta)
        x, y = a * h + b * k * d - c * f - e * g * d, a * k + b * h - c * g - e * f
        if (x % p or y % p) if p else (x or y):
            return None
    return lead


# entry (2i'+i, 2j'+j) of the reshuffle is entry (2i'+j', 2i+j) of psi
_RESHUFFLE_PICKS = _Picks(4, 4, [4 * (2 * i1 + j1) + 2 * i0 + j0
                                 for i1 in range(2) for i0 in range(2)
                                 for j1 in range(2) for j0 in range(2)], 16)


def reshuffle_rank(psi: Matrix) -> int:
    """Rank of the partial transpose R[2i'+i][2j'+j] = psi[2i'+j'][2i+j];
    rank one detects Kronecker-decomposable maps."""
    return _pick(psi, _RESHUFFLE_PICKS).rank()


def _gcd_roots(g, lead: int, p: int):
    """The distinct roots (kx : ky) of the gcd g, integers (residues mod p)
    led by ``lead`` > 0 (1 mod p), in the order of the monic gcd: kx a
    pair (x, y) for (x + y theta') / lead, ky an integer for ky / lead,
    and theta'^2, a non-square integer, or None for rational roots."""
    if len(g) == 2:                  # a s + b t
        a, b = g
        return [((-b, 0), a)], None
    a, b, c = g                      # a s^2 + b st + c t^2
    if not a:                        # t (b s + c t), or c t^2
        return [((lead, 0), 0)] + ([((c, 0), -b)] if b else []), None
    r = _quadratic_root(a, b, c, p)
    if r is None:
        return [((-b, 1), 2 * a), ((-b, -1), 2 * a)], b * b - 4 * a * c
    return [((-b + r, 0), 2 * a)] + ([((-b - r, 0), 2 * a)] if r else []), None


def line_relation(line: EmbeddedLine) -> LineRelation:
    """Exact classifier of ``line`` against the standard line, phi = I
    with contracted factor 0, whose family is the left family {l x U1}.

    The moving plane P(k) of ``line`` is spanned by two vectors linear in
    the parameter k, columns of M = phi^{-1}.  P(k) is a point of the
    standard family iff every element of P(k) is a singular 2x2 matrix
    with a common left (column) factor; full decomposability is three
    binary quadratics in k, and the verdict follows from their gcd.
    Scaling M scales the three forms alike and leaves their gcd alone, so
    the forms and the gcd are integers, from the numerators of M, and so
    is the plane at each root of the gcd (``_gcd_roots``).  Only printed
    meet parameters are field elements: M's values at the roots of the
    monic gcd, the same under any scaling.

    The ruling lemma: a 2-dimensional space of singular 2x2 matrices is a
    line on the smooth quadric surface {det = 0} ~ P^1 x P^1 in P^3, so it
    lies in one of the quadric's two rulings: it is l x U1 (every column a
    multiple of l) or U0 x m (every row a multiple of m).  So at a root of
    the gcd, where every element of P(k) is singular, P(k) is a point of
    the standard family exactly when ``_left_direction`` finds its column
    l, and that root is a meet; otherwise it lies in the opposite ruling.
    When no form survives, every element of every P(k) is singular; for an
    invertible phi^{-1}, which every line of a square has, k -> P(k) maps
    the connected P^1 into one of the two disjoint rulings, so the ruling
    is read at one parameter, k = (1 : 0).
    """
    field, p = line.field, line.field.characteristic
    M = line.phi_inv
    # moving plane basis n_i(k) = kx * A_i + ky * B_i, A_i and -B_i columns of M
    a_cols, b_cols = ((2, 3), (0, 1)) if line.contracted_factor == 0 else ((1, 3), (0, 2))
    ints = M._num
    A = [ints[j::4] for j in a_cols]
    B = [tuple(-x for x in ints[j::4]) for j in b_cols]
    forms = (
        (_det2(A[0]), _polar2(A[0], B[0]), _det2(B[0])),
        (_det2(A[1]), _polar2(A[1], B[1]), _det2(B[1])),
        (_polar2(A[0], A[1]), _polar2(A[0], B[1]) + _polar2(B[0], A[1]), _polar2(B[0], B[1])),
    )
    if p:
        forms = [tuple(c % p for c in f) for f in forms]
    forms = [f for f in forms if any(f)]

    rr = reshuffle_rank(line.phi)

    def relation(verdict, **kw):
        return LineRelation(verdict, psi_reshuffle_rank=rr,
                            orientations=(0, line.contracted_factor), **kw)

    def plane_at(kx, ky):
        # n_1 and n_2 at k = (kx[0] + kx[1] theta' : ky), entries as pairs
        n = [[(kx[0] * a + ky * b, kx[1] * a) for a, b in zip(A[i], B[i])] for i in (0, 1)]
        return [[(x % p, y % p) for x, y in v] for v in n] if p else n

    if not forms:
        if _left_direction(*plane_at((1, 0), 0), 0, p) is not None:
            return relation("coincide")
        return relation("disjoint", flag="opposite decomposable family")

    gcd = form_gcd(forms, p)
    if len(gcd) == 1:
        return relation("disjoint")
    # monic as residues mod p, or over a positive lead on Z, so that the
    # roots are those of the monic gcd in its order
    lead = next(c for c in gcd if c)
    if p:
        inv = pow(lead, -1, p)
        gcd, lead = [c * inv % p for c in gcd], 1
    elif lead < 0:
        gcd, lead = [-c for c in gcd], -lead
    roots, disc = _gcd_roots(gcd, lead, p)
    ext_disc = None if disc is None else _elements(field, (disc,), lead * lead)[0]

    def printed(pairs, den):
        # the field values (x + y theta') / den, theta' = lead * theta
        xs = _elements(field, [x for x, _ in pairs], den)
        if ext_disc is None:
            return xs
        return tuple(zip(xs, _elements(field, [y * lead for _, y in pairs], den)))

    witnesses = []
    for kx, ky in roots:
        ell = _left_direction(*plane_at(kx, ky), disc or 0, p)
        if ell is not None:
            (x0, y0), ell1 = ell
            witnesses.append(MeetWitness(
                param_l1=printed((kx, (ky, 0)), lead),
                param_l0=printed((ell1, (-x0, -y0)), lead * M._den),
                extension_disc=ext_disc,
            ))
    if witnesses:
        return relation("meet", count=len(witnesses), witnesses=tuple(witnesses))
    return relation("disjoint", flag="decomposable only at opposite-ruling parameters")


# the section-restriction matrix of ``hom_R_K_dim`` as picks from phi^{-1},
# by contracted factor: row 3o + m, column 4u + c holds the term of
# k = u + 1 - m, and zero unless k is 0 or 1
_HOM_PICKS = tuple(
    _Picks(6, 8, [None if k not in (0, 1) else x if k else ~x
                  for o in range(2) for m in range(3) for u in range(2) for c in range(4)
                  for k in (u + 1 - m,) for x in (4 * c + (2 * k + o if cf == 0 else 2 * o + k),)],
           16)
    for cf in (0, 1))


def hom_R_K_dim(line: EmbeddedLine) -> int:
    """dim of the kernel of the 6x8 section-restriction matrix

        H0(O_L(1)) x V* -> H0(O_L(2)) x U*,

    where a functional gamma in V* restricts along the line to the section
    p -> gamma|_{K(p)}, i.e. (u0 s + u1 t)(alpha_1 s - alpha_0 t) * beta
    on pure gamma = alpha x beta (contracted factor 0; roles of alpha and
    beta swap for factor 1).  Conjugation by phi carries V* coordinates to
    U0* x U1* coordinates.

    Row 3*o + m holds the coefficient of s^(2-m) t^m in output slot o (the
    non-contracted index).  The product of u_u and the k-th basis
    functional of the contracted factor (k = 0 -> -t, 1 -> s) is the
    single monomial m = u + 1 - k, negated when k = 0, so column (u, c)
    carries g[2k+o] at row 3*o + u + 1 - k, where g = row c of phi^{-1}
    (g[2o+k] when the contracted factor is 1).

    The hom-R-K lemma: with N = phi^{-1}, column (u, c) is the sum over x
    of N[c][x] times column (u, x) of S, the matrix at N = I; so the
    matrix is S (I_2 x N^T), of rank rank S = 6 for every invertible N and
    either factor, and Hom(R, K_i) = 2 on both lines of every square."""
    return 8 - _pick_kept(line.phi_inv, _HOM_PICKS[line.contracted_factor]).rank()


def hom_R_O_dim() -> int:
    """dim Hom(R, O_G) = 4 under the identification H0(G, R*) ~ V*."""
    return 4
