"""Geometric squares, the quintuple-to-square map, the 3-block quiver
algebra, the linear collection, the mutation relating them, and the
K-theoretic base change on Gram matrices.

A geometric square is a septuple (V, U0^0, U1^0, U0^1, U1^1, phi0, phi1)
with phi_i: V ~ U0^i x U1^i invertible.  A quintuple w in U' (nonzero
determinant of the slot-(2,3) contraction) yields the square

    (V0 x V1, V0, V1, V2*, V3*, id, phi_w),   phi_w = <-, w>^{-1}.

Its phi0 is the identity, so line 0 is the standard line by
construction, and a ``GeometricSquare`` stores only phi1 and its
inverse; ``line(0)`` hands out the shared identity.  <-, w> is the
contraction matrix M_2 of ``Quintuple.contractions``, the transpose of
M_0, so its determinant is det M_0: the value from 2x2 minors that M_0
keeps since geometricity asked whether it is invertible, with no
elimination.  Only ranks are read from phi_w, so the square holds it up
to a nonzero scalar: phi_1 is the integer adjugate adj M_2, written from
the same kind of minors.

The convention flag records which factor of phi1's codomain the second
line contracts: "literal" contracts U0^1, "ruling" contracts U1^1.  The
default is "ruling", the unique choice under which the commutative
quadric's square reproduces the two disjoint rulings of the blown-up
Grassmannian; the worked examples are inconsistent under any single
fixed convention and both are computed on demand.

A quiver algebra here is its dimensions: the relation dimension and the
rank of each leg of the long composition, each one rank of a matrix
picked from phi_i or from w; no relation basis or composition map is
kept.  The mutation's R_0 leg is M_2 with its columns permuted,
transposed, so its rank is rank M_2 = rank M_0, read off det M_0.

The linear quiver builds and checks the window of its own relation
data.  The K-theoretic base change of its Gram matrix is a product of
module constants; only the rendered quiver stage and ``ncquad mutate``
print it.
"""

from __future__ import annotations

from .grassmann import EmbeddedLine
from .linalg import Matrix, _adjugate, _pick_kept, _Picks
from .quintuples import Quintuple, RelationData, hilbert_dims, truncated_dims
from .records import Record

CONVENTIONS = ("ruling", "literal")

BLOCK_GRAM = ((1, 2, 2, 4), (0, 1, 0, 2), (0, 0, 1, 2), (0, 0, 0, 1))
LINEAR_GRAM = ((1, 2, 4, 6), (0, 1, 2, 4), (0, 0, 1, 2), (0, 0, 0, 1))

# the arrow spaces of the block quiver, per line i and factor: the duals
# of the factors (V0, V1) of phi_0's codomain and (V2*, V3*) of phi_1's
_ARROW_SPACES = (("V0*", "V1*"), ("V2", "V3"))

# the rows of phi on the paths (o, n) of a leg contracting factor cf (``block_quiver``)
_LEG_PICKS = tuple(_Picks(4, 4, [4 * (2 * o + n if cf == 0 else 2 * n + o) + j
                                 for o in range(2) for n in range(2) for j in range(4)], 16)
                   for cf in (0, 1))

# K-theory classes of the reordered collection in terms of the linear one:
# (v1, v2, 2*v1 - v0, v3)
KTHEORY_BASE_CHANGE = ((0, 1, 0, 0), (0, 0, 1, 0), (-1, 2, 0, 0), (0, 0, 0, 1))


class NotGeneric(Exception):
    """The input sits outside the open locus a construction needs."""

    def __init__(self, stage: str, reason: str = ""):
        self.stage = stage
        self.reason = reason
        super().__init__(f"{stage}: {reason}" if reason else stage)


class GeometricSquare(Record):
    """The square of a quintuple, (V0 x V1, V0, V1, V2*, V3*, id, phi1):
    phi1 is stored next to its inverse, which the lines consume and the
    constructor already knows, and may be any nonzero multiple of the
    inverse of phi1_inv; phi0 is the identity."""

    phi1: Matrix
    phi1_inv: Matrix
    convention: str = "ruling"
    contraction_det: object = None

    def __post_init__(self):
        if self.convention not in CONVENTIONS:
            raise ValueError(f"unknown convention {self.convention!r}")
        for phi in (self.phi1, self.phi1_inv):
            if phi.nrows != 4 or phi.ncols != 4:
                raise ValueError("phi matrices must be 4x4")

    def line(self, i: int) -> EmbeddedLine:
        """The two embedded lines: line 0 is the standard line, the
        identity with contracted factor 0, and line 1's contracted factor
        follows the convention flag."""
        if i == 0:
            ident = Matrix.identity(self.phi1.field, 4)
            return EmbeddedLine(ident, ident, 0)
        if i == 1:
            return EmbeddedLine(self.phi1, self.phi1_inv,
                                0 if self.convention == "literal" else 1)
        raise ValueError("line index is 0 or 1")


def square_from_quintuple(q: Quintuple, convention: str = "ruling") -> GeometricSquare:
    """The square (V0xV1, V0, V1, V2*, V3*, id, phi_w) of a quintuple.

    phi1 is adj N = (det N / d) * phi_w for M_2 = N / d.  Raises
    NotGeneric("determinant") when det <-, w> = 0 (the complement of the
    open locus U').
    """
    if convention not in CONVENTIONS:
        raise ValueError(f"unknown convention {convention!r}")
    m0, _, m, _ = q.contractions   # m = M_2: V2* x V3* -> V0 x V1
    det = m0.det()   # det M_2 = det M_0
    if not det:
        raise NotGeneric("determinant", "det <-, w> = 0")
    return GeometricSquare(
        phi1=_adjugate(m),   # a nonzero multiple of phi_w = M_2^{-1}
        phi1_inv=m,
        convention=convention,
        contraction_det=det,
    )


class Arrow(Record):
    source: int
    target: int
    labels: tuple
    space: str


class QuiverAlgebra(Record):
    """Vertices, basis-labeled arrow spaces, the dimension of the relation
    subspace inside the long path space, and the Gram matrix of Hom
    dimensions.

    ``leg_ranks`` holds, for a quiver whose long paths compose through
    separate legs, the rank of each leg's block of the composition map.
    For the strong exceptional collections modeled here the total algebra
    dimension equals the sum of all Gram entries.
    """

    vertices: tuple
    arrows: tuple
    relation_dim: int
    gram: tuple
    leg_ranks: tuple = ()

    @property
    def arrow_dims(self) -> dict:
        return {(a.source, a.target): len(a.labels) for a in self.arrows}

    @property
    def total_dim(self) -> int:
        return sum(sum(row) for row in self.gram)


def block_quiver(square: GeometricSquare) -> QuiverAlgebra:
    """The 3-block quiver algebra of a square: vertices (R, K0, K1, O),
    two in-arrows and two out-arrows per K_i, relations the kernel of the
    8-dimensional path space mapping onto Hom(R, O) = V*.

    Arrow spaces: in(K_i) is the dual of the non-contracted factor of
    line i, out(K_i) the dual of the contracted one; length-2 paths
    compose through phi_i transposed, so the path (o, n) of leg i (out
    index o, in index n) lands on row 2o+n of phi_i, or row 2n+o when
    the contracted factor is 1.  The relation dimension is 8 minus the
    rank of those 8 rows.  Leg 0 picks the rows of the identity, so it has
    full column rank 4, and so has the 8x4 stack of both legs, which has
    at least the rank of each block and at most its 4 columns: the
    relation dimension is 8 - leg_ranks[0] = 4.
    """
    legs = []
    for i in range(2):
        line = square.line(i)
        cf = line.contracted_factor
        rows = _pick_kept(line.phi, _LEG_PICKS[cf])
        legs.append((rows, _ARROW_SPACES[i][cf], _ARROW_SPACES[i][1 - cf]))

    arrows = (
        Arrow(0, 1, ("a1", "a2"), legs[0][2]),
        Arrow(0, 2, ("c1", "c2"), legs[1][2]),
        Arrow(1, 3, ("b1", "b2"), legs[0][1]),
        Arrow(2, 3, ("d1", "d2"), legs[1][1]),
    )
    leg_ranks = tuple(rows.rank() for rows, _, _ in legs)
    return QuiverAlgebra(
        vertices=("R", "K0", "K1", "O"),
        arrows=arrows,
        relation_dim=8 - leg_ranks[0],
        gram=BLOCK_GRAM,
        leg_ranks=leg_ranks,
    )


def linear_quiver(rel: RelationData) -> QuiverAlgebra:
    """The linear collection of a quintuple, from its relation data: four
    vertices in a row with arrow spaces V2, V1, V0 and relation space R_0
    inside the length-3 path space V0 x V1 x V2; total dimension 24.
    Raises ValueError when the window of ``rel`` misses the Hilbert
    series."""
    table = truncated_dims(rel)
    if not table.valid:
        raise ValueError(f"invalid window: mismatched cells {table.mismatches}")
    arrows = (
        Arrow(0, 1, ("x2", "y2"), "V2"),
        Arrow(1, 2, ("x1", "y1"), "V1"),
        Arrow(2, 3, ("x0", "y0"), "V0"),
    )
    return QuiverAlgebra(
        vertices=("O(-1,-2)", "O(-1,-1)", "O(0,-1)", "O(0,0)"),
        arrows=arrows,
        relation_dim=rel.r0_dim,
        gram=LINEAR_GRAM,
    )


class MutationReport(Record):
    orthogonality_bijective: bool
    a13_dim: int
    new_hom_dim: int
    structural_match: bool
    notes: tuple = ()


def mutate_linear_to_block(
    q: Quintuple, rel: RelationData, block: QuiverAlgebra | None
) -> tuple[QuiverAlgebra, MutationReport]:
    """Right-mutate the first two objects of the linear collection.

    The mutated object O(-1,0) has Hom(O(-1,0), O(0,0)) = R_0 (dimension
    2); complete orthogonality of the middle pair is the bijectivity of
    the multiplication V1 x V2 -> A_{1,3} (both sides 4-dimensional).
    The result is compared structurally with ``block``, the block quiver
    of the associated square (None when the input has no square): arrow
    dimensions, relation dimension, per-leg composition ranks, Gram
    matrix.  ``rel`` is the relation data of ``q`` and must be valid:
    callers check ``rel.valid``, or pass ``linear_quiver`` first, before
    they mutate.

    On a square built from a quintuple the match is forced: block leg 0
    is a row permutation of the identity (``_LEG_PICKS``), so the block
    relation dimension is 8 - 4 = 4, and leg 1 one of adj M_2, of rank 4
    when det <-, w> != 0.  The mutated legs are (4, rank M_0 = 4), and its
    arrows, relations and Gram read dim R0 = 2 (relations-forced).
    """
    new_hom_dim = rel.r0_dim

    # orthogonality: the multiplication V1 x V2 -> A_{1,3} is bijective
    # for every input.  The relations R_i lie in V_i x V_{i+1} x V_{i+2},
    # on paths of length 3, so the width-2 window A_{1,3} is all of
    # V1 x V2, of dimension hilbert_dims(2) = 4, and the multiplication
    # is its identity
    a13_dim = hilbert_dims(2)

    # path space: leg via O(0,-1) is the identity on V0 x V1, leg via
    # O(-1,0) is R_0 x V2* (4); both compose onto A_{0,2} = V0 x V1, so
    # the relations have dimension 4 + 2 dim R0 - 4.  Path (k, z) of the
    # second leg is relation k, a column of the (V0xV1xV2, V3) flattening,
    # contracted by e_z at V2: the entry at column (a, b) is w[a, b, z, k],
    # so the leg is M_2 with its columns permuted, transposed, of rank M_0

    gram = (
        (1, 2, 2, 4),
        (0, 1, 0, 2),
        (0, 0, 1, new_hom_dim),
        (0, 0, 0, 1),
    )
    arrows = (
        Arrow(0, 1, ("x1", "y1"), "V1"),
        Arrow(0, 2, ("z1", "z2"), "V2^"),
        Arrow(1, 3, ("x0", "y0"), "V0"),
        Arrow(2, 3, tuple(f"r{k + 1}" for k in range(new_hom_dim)), "R0"),
    )
    mutated = QuiverAlgebra(
        vertices=("O(-1,-1)", "O(0,-1)", "O(-1,0)", "O(0,0)"),
        arrows=arrows,
        relation_dim=2 * new_hom_dim,
        gram=gram,
        leg_ranks=(4, q.contractions[0].rank()),
    )

    notes = []
    structural = True
    if block is None:
        notes.append("no associated square")
        structural = False
    elif (sorted(mutated.arrow_dims.values()) != sorted(block.arrow_dims.values())
          or mutated.relation_dim != block.relation_dim
          or mutated.leg_ranks != block.leg_ranks
          or mutated.gram != block.gram):
        notes.append("structural mismatch with the block quiver")
        structural = False
    report = MutationReport(
        orthogonality_bijective=True,
        a13_dim=a13_dim,
        new_hom_dim=new_hom_dim,
        structural_match=structural,
        notes=tuple(notes),
    )
    return mutated, report


def _int_matmul(a, b):
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0])))
        for i in range(len(a))
    )


def _int_transpose(a):
    return tuple(tuple(a[i][j] for i in range(len(a))) for j in range(len(a[0])))


def gram_base_change(linear: QuiverAlgebra) -> tuple:
    """Transform the Gram matrix of the linear quiver by the K-theory base
    change of the mutation, KTHEORY_BASE_CHANGE * gram * its transpose; the
    image must equal the block Gram."""
    change = KTHEORY_BASE_CHANGE
    return _int_matmul(_int_matmul(change, linear.gram), _int_transpose(change))
