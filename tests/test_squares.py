import itertools
import random

import pytest

from helpers import (
    apply,
    col,
    block_composition_oracle,
    block_quiver_oracle,
    contraction_matrix,
    from_cols,
    inverse,
    inverse_oracle,
    kernel_basis,
    random_invertible_fp,
    random_invertible_qq,
    random_type_a_triple,
    relations_oracle,
    span_contains,
    transpose,
)
from ncquad.fields import GF, QQ
from ncquad.quintuples import (
    build_linear_quadric,
    build_type_a,
    relations,
)
from ncquad.squares import (
    BLOCK_GRAM,
    KTHEORY_BASE_CHANGE,
    LINEAR_GRAM,
    GeometricSquare,
    NotGeneric,
    block_quiver,
    gram_base_change,
    linear_quiver,
    mutate_linear_to_block,
    square_from_quintuple,
)


def test_linear_quadric_square_unit_determinant():
    sq = square_from_quintuple(build_linear_quadric())
    assert abs(sq.contraction_det) == 1
    # the contraction sends the four basis pure tensors to +-basis vectors
    m = contraction_matrix(build_linear_quadric(), 2)
    for j in range(4):
        assert sorted(abs(x) for x in col(m, j)) == [0, 0, 0, 1]


def test_type_a_determinant_formula():
    rng = random.Random(51)
    for _ in range(30):
        (a, b, c), q = random_type_a_triple(rng, height=9)
        det = contraction_matrix(q, 2).det()
        assert det == (b * b - a * a) * (c * c - a * a)
        if det:
            sq = square_from_quintuple(q)
            assert sq.contraction_det == det


def test_not_generic_on_vanishing_determinant():
    with pytest.raises(NotGeneric) as exc:
        square_from_quintuple(build_type_a(1, 1, 2))
    assert exc.value.stage == "determinant"


def test_block_quiver_dimensions_any_square():
    rng = random.Random(52)
    for field, rand_inv in ((QQ, random_invertible_qq),):
        for _ in range(15):
            phi0, phi1 = rand_inv(rng, 4), rand_inv(rng, 4)
            sq = GeometricSquare(phi0, phi1, inverse(phi0), inverse(phi1),
                                 convention=rng.choice(("ruling", "literal")))
            bq = block_quiver(sq)
            assert len(bq.vertices) == 4
            assert sum(len(a.labels) for a in bq.arrows) == 8
            assert bq.relation_dim == 4
            assert bq.total_dim == 16
            assert bq.gram == BLOCK_GRAM
            # composition onto Hom(R,O) = V*
            assert (bq.relation_dim, bq.leg_ranks) == block_quiver_oracle(sq) == (4, (4, 4))


def test_block_quiver_dimensions_prime_field():
    rng = random.Random(53)
    F = GF(31)
    for _ in range(10):
        phi0, phi1 = random_invertible_fp(rng, F, 4), random_invertible_fp(rng, F, 4)
        sq = GeometricSquare(phi0, phi1, inverse(phi0), inverse(phi1))
        bq = block_quiver(sq)
        assert bq.relation_dim == 4 and bq.total_dim == 16


def test_block_relations_linear_quadric_commutation_form():
    # b_i a_j = d_j c_i in the frozen bases: a = (x1*, y1*), b = (x0*, y0*),
    # c = (y2, -x2), d = (y3, -x3) under the ruling convention
    sq = square_from_quintuple(build_linear_quadric(), "ruling")
    comp = block_composition_oracle(sq)
    c_coeffs = ((QQ.of(0), QQ.of(1)), (-QQ.of(1), QQ.of(0)))     # c1 = y2, c2 = -x2
    d_coeffs = ((QQ.of(0), QQ.of(1)), (-QQ.of(1), QQ.of(0)))     # d1 = y3, d2 = -x3
    commutators = []
    for i in range(2):
        for j in range(2):
            vec = [QQ.of(0)] * 8
            vec[2 * i + j] = QQ.of(1)          # + b_i a_j
            for o in range(2):
                for n in range(2):
                    vec[4 + 2 * o + n] -= d_coeffs[j][o] * c_coeffs[i][n]
            assert all(not x for x in apply(comp, vec))
            commutators.append(vec)
    # the four commutation relations span the whole relation space
    assert from_cols(QQ, commutators).rank() == block_quiver(sq).relation_dim == 4


def test_block_path_algebra_oracle():
    # brute-force structure constants: 4 idempotents, 8 arrows, 4 long
    # elements; associativity on all triples and dimension count
    sq = square_from_quintuple(build_type_a(1, 2, 3))
    bq = block_quiver(sq)
    composition = block_composition_oracle(sq)
    field = QQ
    # basis: e_R, e_K0, e_K1, e_O, a1, a2, c1, c2, b1, b2, d1, d2, v0..v3
    names = ["eR", "eK0", "eK1", "eO", "a1", "a2", "c1", "c2",
             "b1", "b2", "d1", "d2", "v0", "v1", "v2", "v3"]
    idx = {n: i for i, n in enumerate(names)}
    src = {"a": 0, "c": 0, "b": 1, "d": 2, "v": 0}
    tgt = {"a": 1, "c": 2, "b": 3, "d": 3, "v": 3}

    def unit(i):
        v = [field.of(0)] * 16
        v[i] = field.of(1)
        return v

    def mul(x_name, y_name):
        # y then x (right-to-left composition)
        out = [field.of(0)] * 16
        if x_name.startswith("e") and y_name.startswith("e"):
            if x_name == y_name:
                out[idx[x_name]] = field.of(1)
            return out
        if x_name.startswith("e"):
            vert = ("eR", "eK0", "eK1", "eO").index(x_name)
            if tgt[y_name[0]] == vert:
                out[idx[y_name]] = field.of(1)
            return out
        if y_name.startswith("e"):
            vert = ("eR", "eK0", "eK1", "eO").index(y_name)
            if src[x_name[0]] == vert:
                out[idx[x_name]] = field.of(1)
            return out
        # arrow/long-path products: only out-arrow . in-arrow survives
        pair = (x_name[0], y_name[0])
        if pair == ("b", "a"):
            path = 2 * (int(x_name[1]) - 1) + (int(y_name[1]) - 1)
        elif pair == ("d", "c"):
            path = 4 + 2 * (int(x_name[1]) - 1) + (int(y_name[1]) - 1)
        else:
            return out
        comp = col(composition, path)
        for k in range(4):
            out[idx[f"v{k}"]] = comp[k]
        return out

    table = {}
    for x in names:
        for y in names:
            table[(x, y)] = mul(x, y)

    def mul_vec(xv, yv):
        out = [field.of(0)] * 16
        for i, xc in enumerate(xv):
            if not xc:
                continue
            for j, yc in enumerate(yv):
                if not yc:
                    continue
                prod = table[(names[i], names[j])]
                for k in range(16):
                    out[k] += xc * yc * prod[k]
        return out

    # associativity on all basis triples
    for x, y, z in itertools.product(names, repeat=3):
        left = mul_vec(table[(x, y)], unit(idx[z]))
        right = mul_vec(unit(idx[x]), table[(y, z)])
        assert left == right, (x, y, z)

    # total dimension: idempotents + arrows + span of long products
    long_products = from_cols(field, [col(composition, j) for j in range(8)], nrows=4)
    assert 4 + 8 + long_products.rank() == 16
    assert 8 - long_products.rank() == bq.relation_dim


def test_block_gram_assembly():
    assert BLOCK_GRAM == ((1, 2, 2, 4), (0, 1, 0, 2), (0, 0, 1, 2), (0, 0, 0, 1))
    assert sum(sum(r) for r in BLOCK_GRAM) == 16


def test_linear_quiver_linear_quadric():
    q = build_linear_quadric()
    rel = relations(q)
    lq = linear_quiver(rel)
    assert lq.gram == LINEAR_GRAM
    assert lq.total_dim == 24
    assert lq.relation_dim == rel.r0_dim == 2
    r0, _, _ = relations_oracle(q)
    # relations are the displayed ones
    r1 = [QQ.of(0)] * 8
    r1[0b001] = QQ.of(1)
    r1[0b100] = -QQ.of(1)
    r2 = [QQ.of(0)] * 8
    r2[0b011] = QQ.of(1)
    r2[0b110] = -QQ.of(1)
    assert span_contains(r0, r1)
    assert span_contains(r0, r2)
    # the composition into A_{0,3} is the quotient by R_0: its rows span
    # the annihilator of R_0, so it kills exactly the relations
    composition = transpose(kernel_basis(transpose(r0)))
    assert all(not x for x in apply(composition, r1))
    assert composition.rank() == 6 == 8 - lq.relation_dim


def test_linear_quiver_rejects_invalid_window():
    from ncquad.quintuples import SLOT_LABELS, Quintuple
    from ncquad.tensors import Tensor

    entries = [QQ.of(0)] * 16
    entries[0] = QQ.of(1)
    with pytest.raises(ValueError, match=r"invalid window: mismatched cells \(\(0, 3\), "):
        linear_quiver(relations(Quintuple(Tensor(QQ, (2, 2, 2, 2), entries, SLOT_LABELS))))


def test_mutation_matches_block():
    rng = random.Random(54)
    for q in (build_linear_quadric(), build_type_a(1, 2, 3),
              random_type_a_triple(rng)[1]):
        try:
            bq = block_quiver(square_from_quintuple(q))
        except NotGeneric:
            bq = None
        mutated, report = mutate_linear_to_block(q, relations(q), bq)
        assert report.orthogonality_bijective
        assert report.a13_dim == 4
        assert report.new_hom_dim == 2
        if bq is None:
            assert not report.structural_match
            continue
        assert report.structural_match
        assert mutated.gram == bq.gram == BLOCK_GRAM
        assert mutated.total_dim == bq.total_dim == 16
        assert mutated.relation_dim == bq.relation_dim == 4


def test_gram_base_change_values():
    changed = gram_base_change(linear_quiver(relations(build_linear_quadric())))
    assert changed == BLOCK_GRAM
    # spot entries from the bilinear expansion
    assert changed[2][3] == 2 * 4 - 6 == 2
    assert changed[1][2] == 0
    assert changed[2][2] == 4 * 1 - 2 * 2 + 1 == 1
    # the inverse base change is integral and carries the block Gram back
    minv = inverse_oracle(KTHEORY_BASE_CHANGE)
    assert all(x.denominator == 1 for row in minv for x in row)
    minv = [[int(x) for x in row] for row in minv]

    def mul(a, b):
        return [[sum(a[i][k] * b[k][j] for k in range(4)) for j in range(4)] for i in range(4)]

    back = mul(mul(minv, changed), [list(col) for col in zip(*minv)])
    assert back == [list(row) for row in LINEAR_GRAM]


def test_base_change_on_every_certified_sample():
    rng = random.Random(55)
    for _ in range(20):
        _, q = random_type_a_triple(rng)
        assert gram_base_change(linear_quiver(relations(q))) == BLOCK_GRAM
