"""Quintuples (V_0, V_1, V_2, V_3, w) with w a nonzero tensor in
V_0 x V_1 x V_2 x V_3, the geometricity decision procedure, relation
extraction, and the dimension table of the associated cubic regular
algebra window.

Relation extraction keeps only the dimensions of R_0, of R_1 and of the
line (R0 x V3) ∩ (V0 x R1): two ranks of 8x2 flattenings of w, read off
2x2 minors, and one elimination of the 7x16 span of both.

Conventions, fixed throughout the package:

* each V_i has ordered basis (x_i, y_i); basis index 0 is x, 1 is y;
* the tensor w is stored with slot labels ("V0", "V1", "V2", "V3") and
  flat index 8*i0 + 4*i1 + 2*i2 + i3;
* slot pairs are adjacent pairs (j, j+1 mod 4).

``build_type_a`` picks w's integer row from that of (a, b, c), which
``linalg._integers`` coerces once; ``build_linear_quadric`` writes its
row of integers as it is, -1 as the residue p - 1 over F_p.

Geometricity of w means: for every j and all nonzero functionals
phi_j, phi_{j+1}, the contraction <phi_j x phi_{j+1}, w> is nonzero.
The decision is closure-correct without ever leaving exact arithmetic:
the contraction is encoded as a 4x4 matrix M_j, and a nonzero pure
tensor in ker M_j exists over the algebraic closure iff either the
kernel is spanned by a single 2x2-singular element, or the kernel has
dimension >= 2 (any such space of 2x2 matrices meets the rank-one cone
over the closure).

M_{j+2} = M_j^T, so ``Quintuple.contractions`` picks all four from the
integer row of w once per input, and a ``Matrix`` keeps its determinant
from 2x2 minors: an invertible M_j makes M_{j+2} invertible too.  A
singular M_j of rank 3 keeps its nonzero adjugate from the same minors,
and the kernel lines of M_j and M_{j+2} are a column and a row of it;
only an M_j of rank <= 2 is eliminated, with M_{j+2}.  The square reads
det M_0 and the mutation rank M_0 off the same determinant.  Geometricity
decides on integers: the reduced kernel vectors of M_j, the 2x2
determinants, and the roots of det(s v1 + t v2) by
``forms._quadratic_root``, the root classifier the line stage asks too.
A witness over a quadratic extension is divided on integers, times the
conjugate over the norm.  Scalars are built only for the witness
coordinates a certificate prints: base-field values, and (x, y) pairs
for x + y theta.
"""

from __future__ import annotations

from functools import cached_property

from .fields import QQ, _field_str
from .forms import _quadratic_root
from .grassmann import _det2, _polar2
from .linalg import Matrix, _elements, _integers, _keep_transpose, _pick, _Picks
from .records import Record
from .tensors import Tensor, _flattening_index, _of_row

# re-exported: perfbench/workloads.py and the tests build a Quintuple
# from a Tensor labelled by SLOT_LABELS read from this module
from .tensors import SLOT_LABELS as SLOT_LABELS

# M_j, one for each slot j, picked from the 16 entries of w in flat order:
# rows over the slots j+2, j+3 and columns over j, j+1, each group row-major
_CONTRACTION_INDEX = tuple(
    _flattening_index(((j + 2) % 4, (j + 3) % 4), (j, (j + 1) % 4))
    for j in range(4))

# w of build_type_a in flat order picked from the row (a, b, c): c at
# x0x1x2x3 and y0y1y2y3, b at x0y1x2y3 and y0x1y2x3, a at the other four
_TYPE_A_PICKS = _Picks(1, 16, (2, None, None, 0, None, 1, 0, None,
                               None, 0, 1, None, 0, None, None, 2), 3)


class Quintuple(Record):
    """Four basis-labeled 2-dimensional spaces plus the 16-coefficient w."""

    w: Tensor

    def __post_init__(self):
        if not any(self.w._row._num):   # numerators, or residues mod p
            raise ValueError("w must be nonzero")

    @property
    def field(self):
        return self.w.field

    @cached_property
    def contractions(self) -> tuple[Matrix, ...]:
        """(M_0, M_1, M_2, M_3), M_j the 4x4 matrix of V_j^* x V_{j+1}^* ->
        V_{j+2} x V_{j+3}, phi x chi -> <phi x chi, w> (indices mod 4,
        multi-indices row-major), and M_{j+2} = M_j^T.  Kept beside the
        record's one field w, so ``repr`` never prints them; ``==`` and
        ``hash`` read w, a ``Tensor`` with no value equality.  Each
        matrix keeps its echelon, so it is eliminated once per input."""
        return tuple(_pick(self.w._row, index) for index in _CONTRACTION_INDEX)


def build_linear_quadric(field=QQ) -> Quintuple:
    """The quintuple of the commutative quadric surface:
    w = x0 x1 y2 y3 - y0 x1 x2 y3 - x0 y1 y2 x3 + y0 y1 x2 x3,
    its row written as integers, -1 as the residue p - 1 over F_p.
    """
    p = field.characteristic
    minus = p - 1 if p else -1
    row = (0, 0, 0, 1, 0, 0, minus, 0, 0, minus, 0, 0, 1, 0, 0, 0)
    return Quintuple(_of_row(Matrix(field, row, 1, 1, 16)))


def build_type_a(a, b, c, field=QQ) -> Quintuple:
    """The generic one-parameter-family cubic quintuple with coefficients
    (a : b : c):

    w = a y0y1x2x3 + b y0x1y2x3 + a x0y1y2x3 + c x0x1x2x3
      + a x0x1y2y3 + b x0y1x2y3 + a y0x1x2y3 + c y0y1y2y3

    Points on the excluded locus S = {a^2 = b^2 = c^2} u {(0:0:1), (0:1:0)}
    are rejected, decided on the integer row of (a, b, c) that w's row is
    picked from: numerators over one denominator on QQ, residues mod p.
    """
    (x, y, z), den = _integers(field, (a, b, c))
    p = field.characteristic
    if not (x or y or z):
        raise ValueError("excluded locus S: (a:b:c) is not a projective point")
    if len({v * v % p if p else v * v for v in (x, y, z)}) == 1:
        raise ValueError("excluded locus S: a^2 = b^2 = c^2")
    if not x and not y:
        raise ValueError("excluded locus S: point (0:0:1)")
    if not x and not z:
        raise ValueError("excluded locus S: point (0:1:0)")
    return Quintuple(_of_row(_pick(Matrix(field, (x, y, z), den, 1, 3), _TYPE_A_PICKS)))


class PureWitness(Record):
    """A nonzero pure functional pair annihilating w at one slot pair.

    Coordinates live in the ground field, or are (x, y) pairs for
    x + y theta, theta^2 = extension_disc (a base-field value), when no
    rational witness exists (the discriminant certificate case).
    """

    phi: tuple
    chi: tuple
    extension_disc: object = None


class SlotPairReport(Record):
    j: int
    passed: bool
    kernel_dim: int
    witness: PureWitness | None = None
    certificate: str = ""


class GeometricityReport(Record):
    pairs: tuple

    @property
    def passed(self) -> bool:
        return all(p.passed for p in self.pairs)

    def failing_pairs(self) -> list[int]:
        return [p.j for p in self.pairs if not p.passed]


def _rank_one_factor(k, den: int, field) -> PureWitness:
    """The witness (phi, chi), phi_a chi_b = k[2a + b] / den, of the
    integers k of a nonzero singular 2x2 matrix over den (residues mod p):
    phi is (1, lam) or (0, 1), chi a nonzero row.  Its four coordinates
    are the only field elements a rational witness needs."""
    i = 0 if k[0] else 1
    if k[i]:
        return PureWitness(_elements(field, (k[i], k[i + 2]), k[i]), _elements(field, k[:2], den))
    return PureWitness(_elements(field, (0, 1), 1), _elements(field, k[2:], den))


_PASSED = ("contraction matrix invertible", "kernel spanned by a nonsingular 2x2 element")


def _passed(j: int, kernel_dim: int) -> SlotPairReport:
    """The report of slot pair j passed, with no witness: M_j invertible,
    or its kernel a line spanned by a nonsingular 2x2 element."""
    return SlotPairReport(j, True, kernel_dim, certificate=_PASSED[kernel_dim])


def _pair_report(j: int, m: Matrix) -> SlotPairReport:
    """The report of slot pair j, decided on the integers of the reduced
    kernel vectors y / d of M_j that ``Matrix._kernel`` reads off its
    adjugate or its echelon (residues mod p, where d = 1).

    One vector fails exactly when a = det y vanishes.  For two or more,
    det(s v1 + t v2) = (a s^2 + b st + c t^2) / (d1 d2)^2, with b the
    polar form of y1 and y2 and c = det y2.  When a = 0, v1 itself is
    singular.  Otherwise (r - b : 2a) is a root, r a square root of the
    discriminant: rational when ``_quadratic_root`` finds r (d1, d2 > 0
    keep r / (d1 d2) the root it gives for the field values), and then
    ((r - b) y1 + 2a y2) / (d1^2 d2) is singular."""
    kernel = m._kernel()
    kd, field = len(kernel), m.field
    if not kd:
        return _passed(j, 0)
    p = field.characteristic
    y1, d1 = kernel[0]
    a = _det2(y1) % p if p else _det2(y1)
    rational = "rational singular combination of kernel vectors"
    if kd == 1:
        if a:
            return _passed(j, 1)
        note = "kernel spanned by a singular 2x2 element"
        return SlotPairReport(j, False, 1, _rank_one_factor(y1, d1, field), note)
    y2, d2 = kernel[1]
    b, c = (x % p if p else x for x in (_polar2(y1, y2), _det2(y2)))
    if not a:
        note = "kernel basis vector is itself singular" if not (b or c) else rational
        return SlotPairReport(j, False, kd, _rank_one_factor(y1, d1, field), note)
    r = _quadratic_root(a, b, c, p)
    if r is not None:
        combo = [(r - b) * u + 2 * a * v for u, v in zip(y1, y2)]
        combo = [x % p for x in combo] if p else combo
        return SlotPairReport(j, False, kd, _rank_one_factor(combo, d1 * d1 * d2, field), rational)
    # the root (theta - b : 2a), theta^2 = disc / (d1 d2)^2: the combination
    # k = (x + t theta') / (d1^2 d2), theta' = d1 d2 theta, has x = 2a y2 - b y1
    # and t = y1, whose first row is nonzero since det v1 != 0; phi_1 is
    # k[i + 2] / k[i], k[i + 2] times the conjugate of k[i] over its norm
    disc = b * b - 4 * a * c
    ext_disc = _elements(field, (disc,), (d1 * d2) ** 2)[0]
    xs = [2 * a * v - b * u for u, v in zip(y1, y2)]
    xs = [x % p for x in xs] if p else xs
    chi = tuple(zip(_elements(field, xs[:2], d1 * d1 * d2), _elements(field, y1[:2], d1)))
    i = 0 if xs[0] or y1[0] else 1
    (x0, x2), (t0, t2) = xs[i::2], y1[i::2]
    norm = x0 * x0 - t0 * t0 * disc
    phi = (_elements(field, (1, 0), 1),
           _elements(field, (x2 * x0 - t2 * t0 * disc, (t2 * x0 - x2 * t0) * d1 * d2), norm))
    return SlotPairReport(j, False, kd, PureWitness(phi, chi, extension_disc=ext_disc),
                          f"singular combination exists only over theta^2 = {_field_str(ext_disc, p)}")


def is_geometric(q: Quintuple) -> GeometricityReport:
    """Per-slot-pair geometricity report with explicit witnesses on failure.

    M_0 and M_1 are asked first; M_{j+2} = M_j^T only when M_j is
    singular, since an invertible M_j leaves it no kernel, and then it
    takes the determinant and the adjugate M_j keeps, transposed."""
    flat = q.contractions
    reports = [None] * 4
    for j in (0, 1):
        reports[j] = _pair_report(j, flat[j])
        if reports[j].kernel_dim:
            _keep_transpose(flat[j], flat[j + 2])
            reports[j + 2] = _pair_report(j + 2, flat[j + 2])
        else:
            reports[j + 2] = _passed(j + 2, 0)
    return GeometricityReport(tuple(reports))


class RelationData(Record):
    """The dimensions of R_0, of R_1 and of the intersection
    (R0 x V3) ∩ (V0 x R1), which carries w."""

    r0_dim: int       # dim R_0 inside V0xV1xV2
    r1_dim: int       # dim R_1 inside V1xV2xV3
    w_dim: int        # dim (R0 x V3) ∩ (V0 x R1) inside the 16-dim space
    issues: tuple = ()

    @property
    def valid(self) -> bool:
        return not self.issues

    @property
    def dims(self) -> tuple[int, int, int]:
        return (self.r0_dim, self.r1_dim, self.w_dim)


# the spanning vectors of R0 x V3 and V0 x R1, one per row, picked from
# the flat entries of w: vector (s, d) of R0 x V3 is (contraction by e_d)
# x e_s, whose entry 2i + s, i = 4a+2b+c, is w[2i + d]; vector (s, a) of
# V0 x R1 is e_s x (contraction by e_a), whose entry 8s + i, i = 4b+2c+d,
# is w[8a + i].  Vector (1, 1) of V0 x R1 is row 0 + row 3 - row 4 and
# is left out (see ``relations``)
_SPAN_PICKS = _Picks(7, 16, [t - s + d if t % 2 == s else None
                             for s in range(2) for d in range(2) for t in range(16)]
                     + [t % 8 + 8 * a if t // 8 == s else None
                        for s, a in ((0, 0), (0, 1), (1, 0)) for t in range(16)], 16)


def relations(q: Quintuple) -> RelationData:
    """R_0 = span of slot-3 contractions of w, R_1 = span of slot-0
    contractions; flags (not exceptions) when a rank drops below the
    regular values (2, 2, 1).

    The contraction of w by the basis functional e_d of slot 3 (of slot
    0) is column d of the flattening with that slot alone on the columns,
    so both spans are column spaces of 8x2 flattenings, ranked by 2x2
    minors.  R0 x V3 and V0 x R1 are then spanned by the contractions
    placed at each basis index of the free slot, whose entries are
    entries of w, and

        dim (R0 x V3 ∩ V0 x R1) = 2 dim R0 + 2 dim R1 - rank[R0 x V3 ; V0 x R1],

    the rank of the 8 spanning vectors.  For every w, vectors (0, 0) and
    (1, 1) of R0 x V3 sum to w, and so do vectors (0, 0) and (1, 1) of
    V0 x R1.  So vector (1, 1) of V0 x R1 is (0, 0) + (1, 1) of R0 x V3
    less (0, 0) of V0 x R1, and the rank is that of the other 7: one 7x16
    matrix picked from w (``_SPAN_PICKS``), whose rows 0 + 3 - 4 are the
    vector left out.

    w = sum_d (column d) x e_d lies in R0 x V3, and likewise in V0 x R1,
    so it lies in the intersection; when that is a line, the nonzero w
    spans it.

    Rank M_1 >= 3 forces (2, 2, 1), so after geometricity, which passes
    only when pair 1 has kernel dimension at most 1, this stage cannot
    fail.  M_1 has rows over (i3, i0) and columns over k = (i1, i2), so
    column k is the 2x2 slice W_k[i0, i3] = w[i0, k, i3].
    * If dim R0 <= 1, then w = r x v with v in V3, and M_1 = v x (the
      2x4 matrix of r), of rank <= 2; likewise w = u x r' with u in V0
      when dim R1 <= 1.  So dim R0 = dim R1 = 2.
    * Then α -> sum α[i3, d] c_d x e_i3 (c_d the slot-3 contractions) and
      β -> sum β[i0, a] e_i0 x c'_a (c'_a the slot-0 contractions) are
      injective on 2x2 matrices, and their slices are W_k αᵀ and β W_k,
      so the intersection is {(α, β) : β W_k = W_k αᵀ for all k}.
    * S = span{W_k} has dimension rank M_1 >= 3, so over the algebraic
      closure it holds an invertible X0 (a space of singular 2x2
      matrices has dimension <= 2), and αᵀ = X0^-1 β X0.  Then β
      commutes with S X0^-1, a space of dimension >= 3 that contains I.
      A non-scalar 2x2 matrix commutes only with the 2-dimensional span
      of I and itself, so β = λI, α = λI and W = 1.  A rank does not
      change under field extension, so W = 1 over the base field too."""
    r0_dim = q.w.reshape((0, 1, 2), (3,)).rank()
    r1_dim = q.w.reshape((1, 2, 3), (0,)).rank()
    w_dim = 2 * r0_dim + 2 * r1_dim - _pick(q.w._row, _SPAN_PICKS).rank()

    issues = []
    if r0_dim != 2:
        issues.append(f"dim R0 = {r0_dim} != 2")
    if r1_dim != 2:
        issues.append(f"dim R1 = {r1_dim} != 2")
    if w_dim != 1:
        issues.append(f"dim (R0xV3 ∩ V0xR1) = {w_dim} != 1")
    return RelationData(r0_dim, r1_dim, w_dim, tuple(issues))


def hilbert_dims(n: int) -> int:
    """Coefficient of t^n in 1/(1 - 2t + 2t^3 - t^4) = 1/((1-t)^2 (1-t^2)).

    This is the Hilbert series forced by the minimal free resolution shape
    0 -> P_{i+4} -> P_{i+3}^2 -> P_{i+1}^2 -> P_i -> S_i -> 0.  Its
    coefficients are floor((n + 2)^2 / 4): the series counts the pairs
    (k, m) with k + 2m = n, each weighted by k + 1.
    """
    return (n + 2) ** 2 // 4 if n >= 0 else 0


class DimTable(Record):
    """Window dims A_{i,j}, 0 <= i <= j <= 4, against the resolution values."""

    cells: dict
    mismatches: tuple

    @property
    def valid(self) -> bool:
        return not self.mismatches


def truncated_dims(rel: RelationData) -> DimTable:
    """A_{i,j} by quotient linear algebra on the window 0 <= i <= j <= 4,
    from the relation data of a quintuple.

    Widths 0..2 have no relations (relations are cubic); width 3 quotients
    by R_i; width 4 quotients by R0 x V3 + V0 x R1.
    """
    dim_r0, dim_r1, dim_w = rel.dims
    cells = {}
    for i in range(5):
        cells[(i, i)] = (1, hilbert_dims(0))
    for i in range(4):
        cells[(i, i + 1)] = (2, hilbert_dims(1))
    for i in range(3):
        cells[(i, i + 2)] = (4, hilbert_dims(2))
    cells[(0, 3)] = (8 - dim_r0, hilbert_dims(3))
    cells[(1, 4)] = (8 - dim_r1, hilbert_dims(3))
    # dim(R0xV3 + V0xR1) = 2 dimR0 + 2 dimR1 - dim intersection
    cells[(0, 4)] = (16 - (2 * dim_r0 + 2 * dim_r1 - dim_w), hilbert_dims(4))
    mismatches = tuple(sorted(k for k, (got, want) in cells.items() if got != want))
    return DimTable(cells, mismatches)
