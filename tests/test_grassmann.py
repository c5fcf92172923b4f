import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import (
    BinaryForm,
    Mod,
    Quad,
    binary_form_gcd,
    col,
    entry,
    from_cols,
    hom_R_K_oracle,
    inverse,
    kernel_at,
    kernel_basis,
    lift,
    line_from_phi,
    matmul,
    point_at,
    point_from_quotient,
    random_invertible_fp,
    random_invertible_qq,
    rank_oracle,
    reference_line_relation,
    relative_line,
    span_equal,
)
from ncquad.fields import GF, QQ
from ncquad.grassmann import (
    EmbeddedLine,
    hom_R_K_dim,
    hom_R_O_dim,
    line_relation,
    reshuffle_rank,
)
from ncquad.linalg import Matrix, _adjugate
from ncquad.quintuples import build_linear_quadric, build_type_a
from ncquad.squares import square_from_quintuple


def test_point_from_coordinate_quotient():
    f = Matrix(QQ, [[1, 0, 0, 0], [0, 1, 0, 0]])
    pt = point_from_quotient(f)
    expected = from_cols(QQ, [(0, 0, 1, 0), (0, 0, 0, 1)], nrows=4)
    expected = [QQ.of(x) for x in (0, 0, 0, 0, 0, 1)]
    assert list(pt.pluecker) == expected
    assert span_equal(pt.kernel, from_cols(
        QQ, [(QQ.of(0), QQ.of(0), QQ.of(1), QQ.of(0)), (QQ.of(0), QQ.of(0), QQ.of(0), QQ.of(1))], nrows=4))


def test_row_equivalent_quotients_same_point():
    rng = random.Random(31)
    for _ in range(20):
        f = Matrix(QQ, [[rng.randint(-5, 5) for _ in range(4)] for _ in range(2)])
        if f.rank() != 2:
            continue
        g = random_invertible_qq(rng, 2, height=5)
        pt1 = point_from_quotient(f)
        pt2 = point_from_quotient(matmul(g, f))
        assert pt1.same_point(pt2)


def test_pluecker_relation_random():
    rng = random.Random(32)
    for _ in range(30):
        f = Matrix(QQ, [[rng.randint(-9, 9) for _ in range(4)] for _ in range(2)])
        if f.rank() == 2:
            assert point_from_quotient(f).satisfies_pluecker()


def test_rank_one_quotient_rejected():
    with pytest.raises(ValueError):
        point_from_quotient(Matrix(QQ, [[1, 2, 3, 4], [2, 4, 6, 8]]))


def test_identity_line_families():
    ident = Matrix.identity(QQ, 4)
    first = line_from_phi(ident, 0)
    # K(s:t) = span(-t, s) x U1: at (1:0) the kernel is y0 x U1 = e2, e3
    k = Matrix(QQ, kernel_at(first, 1, 0))
    assert span_equal(k, from_cols(
        QQ, [(0, 0, 1, 0), (0, 0, 0, 1)], nrows=4))
    second = line_from_phi(ident, 1)
    k2 = Matrix(QQ, kernel_at(second, 1, 0))
    assert span_equal(k2, from_cols(
        QQ, [(0, 1, 0, 0), (0, 0, 0, 1)], nrows=4))


def test_linear_quadric_line1_is_second_ruling():
    # under the ruling convention line 1 of the commutative square sweeps
    # out the planes {V0 x l}
    sq = square_from_quintuple(build_linear_quadric(), "ruling")
    line1 = sq.line(1)
    for (s, t) in ((1, 0), (0, 1), (1, 1), (2, 3)):
        k = Matrix(QQ, kernel_at(line1, s, t))
        # a plane of the form V0 x l contains vectors e_a x l: reshaped
        # columns must share the same right factor: rows of the reshape
        # span one direction
        v1, v2 = col(k, 0), col(k, 1)
        rows = from_cols(
            QQ, [(v1[0], v1[1]), (v1[2], v1[3]), (v2[0], v2[1]), (v2[2], v2[3])], nrows=2)
        assert rows.rank() == 1


def test_kernel_dim_always_two():
    rng = random.Random(33)
    for _ in range(15):
        phi = random_invertible_qq(rng, 4)
        line = line_from_phi(phi, rng.randint(0, 1))
        for (s, t) in ((1, 0), (0, 1), (1, 1), (Fraction(2, 3), 1), (-5, 7)):
            assert rank_oracle(kernel_at(line, s, t)) == 2
        # a generic parameter in a quadratic extension: (theta : 1), theta^2 = 2
        assert rank_oracle(kernel_at(line, Quad(0, 1, Fraction(2)), 1)) == 2


def test_parametrization_injective():
    rng = random.Random(34)
    params = [(1, 0), (0, 1), (1, 1), (1, 2), (3, 1), (2, 5)]
    for _ in range(10):
        phi = random_invertible_qq(rng, 4)
        line = line_from_phi(phi, 0)
        points = [point_at(line, s, t).pluecker for (s, t) in params]
        assert len(set(points)) == len(params)


def test_line_relation_paper_examples():
    linear = build_linear_quadric()
    sq = square_from_quintuple(linear, "ruling")
    lr = line_relation(sq.line(1))
    assert lr.verdict == "disjoint"
    assert lr.flag == "opposite decomposable family"
    assert lr.psi_reshuffle_rank == 1

    sq_lit = square_from_quintuple(linear, "literal")
    lr_lit = line_relation(sq_lit.line(1))
    assert lr_lit.verdict == "coincide"
    assert lr_lit.psi_reshuffle_rank == 1

    q011 = build_type_a(0, 1, 1)
    lr011 = line_relation(square_from_quintuple(q011, "literal").line(1))
    assert lr011.verdict == "coincide"
    assert lr011.psi_reshuffle_rank == 1

    q123 = build_type_a(1, 2, 3)
    for conv in ("ruling", "literal"):
        sq = square_from_quintuple(q123, conv)
        assert line_relation(sq.line(1)).verdict == "disjoint"


def test_type_a_123_gcd_has_no_root():
    # the three decomposability quadratics for (1:2:3) under the literal
    # convention are proportional to a(c kx^2 - b ky^2), a(c ky^2 - b kx^2),
    # (c^2 - b^2) kx ky; no common projective root
    a, b, c = 1, 2, 3
    q1 = BinaryForm(QQ, (a * c, 0, -a * b))
    q2 = BinaryForm(QQ, (-a * b, 0, a * c))
    bf = BinaryForm(QQ, (0, c * c - b * b, 0))
    assert binary_form_gcd([q1, q2, bf]).degree == 0


def test_line_relation_symmetry():
    # each line in the coordinates where the other is the standard line
    rng = random.Random(36)
    for _ in range(25):
        phi0 = random_invertible_qq(rng, 4, height=5)
        phi1 = random_invertible_qq(rng, 4, height=5)
        l0 = line_from_phi(phi0, rng.randint(0, 1))
        l1 = line_from_phi(phi1, rng.randint(0, 1))
        r01 = line_relation(relative_line(l0, l1))
        r10 = line_relation(relative_line(l1, l0))
        assert r01.verdict == r10.verdict
        assert r01.count == r10.count
        reference = reference_line_relation(l0, l1)
        assert (r01.verdict, r01.count, r01.witnesses) == (
            reference.verdict, reference.count, reference.witnesses)


def _check_meet_witnesses(l0, l1, lr):
    # the two kernels span one plane: each has rank 2, and so do both together
    for w in lr.witnesses:
        k0 = kernel_at(l0, *lift(QQ, w.param_l0, w.extension_disc))
        k1 = kernel_at(l1, *lift(QQ, w.param_l1, w.extension_disc))
        both = [a + b for a, b in zip(k0, k1)]
        assert rank_oracle(k0) == rank_oracle(k1) == rank_oracle(both) == 2


def test_line_relation_engineered_rational_meets():
    # two random curves in a 4-fold never meet, so meets are built by hand:
    # both lines pass through the plane spanned by the last two columns
    rng = random.Random(37)
    meets = 0
    for _ in range(40):
        x = random_invertible_qq(rng, 4, height=4)
        y = random_invertible_qq(rng, 4, height=4)
        cols = [tuple(col(y, 0)), tuple(col(y, 1)), tuple(col(x, 2)), tuple(col(x, 3))]
        phi1_inv = from_cols(QQ, cols, nrows=4)
        if not phi1_inv.det():
            continue
        l0 = line_from_phi(inverse(x), 0)
        l1 = line_from_phi(inverse(phi1_inv), 0)
        lr = line_relation(relative_line(l0, l1))
        assert lr == reference_line_relation(l0, l1)
        if lr.verdict == "coincide":
            continue
        assert lr.verdict == "meet"
        assert lr.count >= 1
        _check_meet_witnesses(l0, l1, lr)
        meets += 1
    assert meets >= 30


def test_line_relation_conjugate_irrational_meet():
    # two rational lines meeting exactly at a conjugate pair of planes
    # defined over QQ[sqrt(2)]: P = span(u + theta*v, w + theta*z)
    rng = random.Random(38)
    found = 0
    for _ in range(40):
        u, v, w, z = ([Fraction(rng.randint(-4, 4)) for _ in range(4)] for _ in range(4))
        phi0_inv = from_cols(
            QQ, [tuple(-a for a in u), tuple(-a for a in w), tuple(v), tuple(z)], nrows=4)
        phi1_inv = from_cols(
            QQ, [tuple(-2 * a for a in v), tuple(-a for a in w), tuple(u), tuple(z)], nrows=4)
        if not phi0_inv.det() or not phi1_inv.det():
            continue
        l0 = line_from_phi(inverse(phi0_inv), 0)
        l1 = line_from_phi(inverse(phi1_inv), 0)
        lr = line_relation(relative_line(l0, l1))
        assert lr == reference_line_relation(l0, l1)
        if lr.verdict != "meet":
            continue
        ext_witnesses = [w_ for w_ in lr.witnesses if w_.extension_disc is not None]
        if not ext_witnesses:
            continue
        _check_meet_witnesses(l0, l1, lr)
        for w_ in ext_witnesses:
            n, d = w_.extension_disc.as_integer_ratio()
            assert n < 0 or math.isqrt(n) ** 2 != n or math.isqrt(d) ** 2 != d
        found += 1
    assert found >= 5


def test_line_relation_agrees_with_prime_field_reduction():
    # verdicts over QQ match the classification of the reduced square over
    # a large prime field on random (generically disjoint) squares
    rng = random.Random(38)
    F = GF(10007)
    agreed = disjoint = 0
    for _ in range(100):
        phi0 = random_invertible_qq(rng, 4, height=6)
        phi1 = random_invertible_qq(rng, 4, height=6)
        cf0, cf1 = rng.randint(0, 1), rng.randint(0, 1)
        lr = line_relation(relative_line(line_from_phi(phi0, cf0), line_from_phi(phi1, cf1)))
        red = lambda m: Matrix(F, [[F.of(x) for x in row] for row in m.rows])
        r0, r1 = red(phi0), red(phi1)
        if not r0.det() or not r1.det():
            continue
        lr_p = line_relation(relative_line(line_from_phi(r0, cf0), line_from_phi(r1, cf1)))
        if lr.verdict == "disjoint":
            disjoint += 1
            assert lr_p.verdict == "disjoint"
            agreed += 1
    assert disjoint >= 90 and agreed == disjoint


def test_kronecker_psi_coincides_under_matching_orientation():
    # when psi = phi1 . phi0^{-1} is a Kronecker product and both lines
    # contract the same factor, the families coincide and the reshuffle
    # rank is 1
    rng = random.Random(42)
    for _ in range(10):
        phi0 = random_invertible_qq(rng, 4, height=4)
        a = random_invertible_qq(rng, 2, height=4)
        b = random_invertible_qq(rng, 2, height=4)
        kron = Matrix(QQ, [
            [entry(a, i1, i0) * entry(b, j1, j0) for i0 in range(2) for j0 in range(2)]
            for i1 in range(2) for j1 in range(2)
        ])
        l0 = line_from_phi(phi0, 0)
        l1 = line_from_phi(matmul(kron, phi0), 0)
        lr = line_relation(relative_line(l0, l1))
        assert lr.verdict == "coincide"
        assert lr.psi_reshuffle_rank == 1


def test_reshuffle_rank_detects_kronecker():
    rng = random.Random(39)
    for _ in range(10):
        a = random_invertible_qq(rng, 2, height=5)
        b = random_invertible_qq(rng, 2, height=5)
        kron = Matrix(QQ, [
            [entry(a, i1, i0) * entry(b, j1, j0) for i0 in range(2) for j0 in range(2)]
            for i1 in range(2) for j1 in range(2)
        ])
        assert reshuffle_rank(kron) == 1
        generic = random_invertible_qq(rng, 4, height=5)
        assert reshuffle_rank(generic) >= 2


def test_hom_R_K_identity_phi():
    # oracle: the kernel of the twisted multiplication map
    # H0(O(1)) x H0(O(1)) -> H0(O(2)) is 1-dimensional, and the section
    # matrix is that map tensored with the 2-dimensional dual factor
    mult = Matrix(QQ, [
        [0, 1, 0, 0],
        [-1, 0, 0, 1],
        [0, 0, -1, 0],
    ])
    assert kernel_basis(mult).ncols == 1
    line = line_from_phi(Matrix.identity(QQ, 4), 0)
    assert hom_R_K_dim(line) == 2 * kernel_basis(mult).ncols


def test_hom_R_K_linear_quadric_lines():
    sq = square_from_quintuple(build_linear_quadric(), "ruling")
    assert hom_R_K_dim(sq.line(0)) == 2
    assert hom_R_K_dim(sq.line(1)) == 2


def test_hom_R_K_random_phi():
    rng = random.Random(40)
    for _ in range(50):
        phi = random_invertible_qq(rng, 4)
        assert hom_R_K_dim(line_from_phi(phi, rng.randint(0, 1))) == 2


def test_hom_R_K_basis_invariance():
    rng = random.Random(41)
    phi = random_invertible_qq(rng, 4)
    base = hom_R_K_dim(line_from_phi(phi, 0))
    for _ in range(10):
        g4 = random_invertible_qq(rng, 4, height=4)
        a = random_invertible_qq(rng, 2, height=4)
        b = random_invertible_qq(rng, 2, height=4)
        kron = Matrix(QQ, [
            [entry(a, i1, i0) * entry(b, j1, j0) for i0 in range(2) for j0 in range(2)]
            for i1 in range(2) for j1 in range(2)
        ])
        assert hom_R_K_dim(line_from_phi(matmul(matmul(kron, phi), g4), 0)) == base == 2


_SPARSE_ENTRIES = st.sampled_from((-2, -1, 0, 0, 0, 1, 3))


@settings(max_examples=400, derandomize=True, database=None, deadline=None)
@given(st.sampled_from((QQ, GF(5), GF(7), GF(10007))), st.booleans(), st.sampled_from((0, 1)),
       st.data())
def test_hom_R_K_lemma_on_every_invertible_phi_inverse(field, sparse, cf, data):
    # the hom-R-K lemma (``hom_R_K_dim``): the section matrix is S (I_2 x N^T)
    # for N = phi^{-1}, so it has rank 6, and Hom(R, K) = 2, whenever N is
    # invertible, on either contracted factor
    entries = _SPARSE_ENTRIES if sparse else st.integers(-10**6, 10**6)
    n = Matrix(field, [data.draw(st.lists(entries, min_size=4, max_size=4)) for _ in range(4)])
    assume(n.det())
    line = EmbeddedLine(_adjugate(n), n, cf)
    assert hom_R_K_dim(line) == 2 == hom_R_K_oracle(line)


def test_hom_R_O():
    from ncquad.quintuples import hilbert_dims

    assert hom_R_O_dim() == 4
    assert hom_R_O_dim() == hilbert_dims(2)
    # composition surjectivity: 2-dim in-arrows times 2-dim out-arrows
    # cover all of Hom(R, O) through one line
    assert hom_R_O_dim() == 2 * 2


# -- the rank-one test of _plane_type against the rank oracle --------------

# (base field, d): values in the base for d = 0, else in the base[theta],
# theta^2 = d; 2 is a non-square in QQ and mod 5
_PLANE_FIELDS = ((QQ, 0), (GF(5), 0), (QQ, 2), (GF(5), 2))


@st.composite
def _element(draw, field, d=0):
    if d:
        return lift(field, (draw(_element(field)), draw(_element(field))), field.of(d))
    if field is QQ:
        return Fraction(draw(st.integers(-3, 3)), draw(st.integers(1, 3)))
    return Mod(draw(st.integers(0, 4)), field.p)


@st.composite
def _two_vectors(draw, field, d):
    """Four 2-vectors, each zero, random, or a multiple of an earlier one."""
    vecs = []
    for _ in range(4):
        kind = draw(st.sampled_from(("zero", "random", "multiple") if vecs else ("zero", "random")))
        if kind == "zero":
            zero = lift(field, field.of(0))
            zero = Quad(zero, zero, lift(field, field.of(d))) if d else zero
            vecs.append((zero, zero))
        elif kind == "random":
            vecs.append((draw(_element(field, d)), draw(_element(field, d))))
        else:
            c, v = draw(_element(field, d)), draw(st.sampled_from(vecs))
            vecs.append((c * v[0], c * v[1]))
    return vecs


def _integer_pairs(vecs, field, d):
    """The vectors as the integer pairs (x, y), x + y theta, that
    ``_rank_one`` reads, over one common positive denominator (which
    changes no rank), and its (d, p): theta^2 = d, or d = 0 in the base."""
    parts = [(x.a, x.b) if isinstance(x, Quad) else (x, 0) for v in vecs for x in v]
    p = field.characteristic
    if p:
        ints = [(int(x) % p, int(y) % p) for x, y in parts]
    else:
        den = math.lcm(*(Fraction(z).denominator for pair in parts for z in pair))
        ints = [(int(x * den), int(y * den)) for x, y in parts]
    return [(ints[2 * i], ints[2 * i + 1]) for i in range(len(vecs))], d, p


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(st.data())
def test_rank_one_matches_rank_oracle(data):
    from ncquad.grassmann import _plane_type, _rank_one

    field, d = data.draw(st.sampled_from(_PLANE_FIELDS))
    vecs = data.draw(_two_vectors(field, d))
    pairs, d, p = _integer_pairs(vecs, field, d)
    assert _rank_one(pairs, d, p) == (rank_oracle(vecs) == 1)
    # as the columns of two 2x2 matrices n1, n2 (row-major), these vectors
    # make a "left" plane exactly when they span one line
    (a, c), (b, e), (f, h), (g, k) = pairs
    left = _plane_type((a, b, c, e), (f, g, h, k), d, p) == "left"
    assert left == (rank_oracle(vecs) == 1)
