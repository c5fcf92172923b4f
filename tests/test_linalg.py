import functools
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    apply,
    col,
    det_oracle,
    from_cols,
    hstack,
    intersect_subspaces,
    inverse,
    inverse_oracle,
    kernel_basis,
    kernel_oracle,
    matmul,
    matmul_oracle,
    matrix_cols,
    random_matrix_fp,
    random_matrix_qq,
    rref_oracle,
    span_contains,
    span_equal,
)
import ncquad.linalg
from ncquad.fields import GF, QQ
from ncquad.linalg import Matrix, _adjugate


def test_rank_identity_and_zero():
    assert Matrix.identity(QQ, 4).rank() == 4
    assert Matrix(QQ, [[0] * 5] * 3).rank() == 0


def test_kernel_identity_empty():
    k = kernel_basis(Matrix.identity(QQ, 3))
    assert k.nrows == 3 and k.ncols == 0


def test_kernel_one_by_two():
    m = Matrix(QQ, [[1, 1]])
    k = kernel_basis(m)
    assert k.ncols == 1
    x = col(k, 0)
    assert x[0] == -x[1] and x[0] != 0


def test_rank_plus_kernel_is_cols():
    rng = random.Random(3)
    for _ in range(40):
        m = random_matrix_qq(rng, rng.randint(1, 6), rng.randint(1, 6))
        k = kernel_basis(m)
        assert m.rank() + k.ncols == m.ncols
        for j in range(k.ncols):
            assert all(x == 0 for x in apply(m, col(k, j)))


def test_rank_plus_kernel_prime_field():
    rng = random.Random(4)
    F = GF(101)
    for _ in range(30):
        m = random_matrix_fp(rng, F, rng.randint(1, 6), rng.randint(1, 6))
        k = kernel_basis(m)
        assert m.rank() + k.ncols == m.ncols
        for j in range(k.ncols):
            assert all(not x for x in apply(m, col(k, j)))


def test_det_and_inverse():
    rng = random.Random(5)
    for _ in range(20):
        m = random_matrix_qq(rng, 4, 4)
        d = m.det()
        if d:
            inv = inverse(m)
            assert matmul(m, inv) == Matrix.identity(QQ, 4)
            assert inv.det() * d == 1
        else:
            with pytest.raises(ValueError):
                inverse(m)


def test_det_matches_cofactor_3x3():
    rng = random.Random(6)
    for _ in range(25):
        m = random_matrix_qq(rng, 3, 3)
        a, b, c = m.rows[0]
        d, e, f = m.rows[1]
        g, h, i = m.rows[2]
        cof = a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
        assert m.det() == cof


def test_intersect_simple():
    e = Matrix.identity(QQ, 4)
    a = from_cols(QQ, [col(e, 0), col(e, 1)])
    b = from_cols(QQ, [col(e, 1), col(e, 2)])
    i = intersect_subspaces(a, b)
    assert i.ncols == 1
    assert span_contains(i, col(e, 1))


def test_intersect_dimension_formula():
    rng = random.Random(7)
    for _ in range(40):
        n = rng.randint(2, 6)
        a = random_matrix_qq(rng, n, rng.randint(1, n))
        b = random_matrix_qq(rng, n, rng.randint(1, n))
        i = intersect_subspaces(a, b)
        assert i.ncols == a.rank() + b.rank() - hstack(a, b).rank()
        # symmetry up to span equality
        i2 = intersect_subspaces(b, a)
        if i.ncols:
            assert span_equal(i, i2)
        else:
            assert i2.ncols == 0


def test_intersect_ambient_mismatch():
    a = Matrix.identity(QQ, 3)
    b = Matrix.identity(QQ, 4)
    with pytest.raises(ValueError):
        intersect_subspaces(a, b)


def test_random_two_planes_in_4space_generically_trivial():
    rng = random.Random(8)
    F = GF(10007)
    trivial = 0
    n = 60
    for _ in range(n):
        a = random_matrix_fp(rng, F, 4, 2)
        b = random_matrix_fp(rng, F, 4, 2)
        if a.rank() < 2 or b.rank() < 2:
            continue
        if intersect_subspaces(a, b).ncols == 0:
            trivial += 1
    assert trivial >= n - 5


def test_reduction_mod_p_commutes_with_products():
    rng = random.Random(9)
    F = GF(101)
    for _ in range(20):
        a = random_matrix_qq(rng, 3, 4)
        b = random_matrix_qq(rng, 4, 2)
        ab = matmul(a, b)
        ared = Matrix(F, [[F.of(x) for x in row] for row in a.rows])
        bred = Matrix(F, [[F.of(x) for x in row] for row in b.rows])
        assert matmul(ared, bred) == Matrix(F, [[F.of(x) for x in row] for row in ab.rows])


def test_rank_kernel_mod_large_prime():
    # entries are small, so no minor can be divisible by a 61-bit prime:
    # rank and kernel dimension must be preserved by reduction
    rng = random.Random(10)
    F = GF(2**61 - 1)
    for _ in range(20):
        m = random_matrix_qq(rng, rng.randint(1, 5), rng.randint(1, 5), height=20)
        mred = Matrix(F, [[F.of(x) for x in row] for row in m.rows], ncols=m.ncols)
        assert m.rank() == mred.rank()
        assert kernel_basis(m).ncols == kernel_basis(mred).ncols


def test_matrix_rejects_quadratic_extension():
    # a stand-in for QQ[theta], whose values are (x, y) pairs
    ext = type("Extension", (), {"characteristic": 0, "of": lambda self, x: x})()
    with pytest.raises(TypeError, match="QQ or F_p"):
        Matrix(ext, [[(0, 1), (1, 0)], [(1, 0), (0, 1)]])
    with pytest.raises(TypeError, match="QQ or F_p"):
        from_cols(ext, [(1, 2)])


def test_empty_shapes():
    for field in (QQ, GF(5), GF(10007)):
        empty = Matrix(field, [], ncols=0)
        assert empty.det() == 1
        assert inverse(empty) == empty
        assert empty.rank() == 0 and kernel_basis(empty) == empty
        wide, tall = Matrix(field, [], ncols=3), Matrix(field, [()] * 3, ncols=0)
        assert wide.rank() == tall.rank() == 0
        assert kernel_basis(wide) == Matrix.identity(field, 3)
        assert kernel_basis(tall) == empty
        assert matmul(tall, wide) == Matrix(field, [[0] * 3] * 3)
        assert matmul(tall, Matrix(field, [], ncols=1)) == Matrix(field, [[0]] * 3)


# -- the QQ and F_p kernels against the naive oracles ----------------------


@functools.cache
def _entries(p=0):
    if p:
        return st.one_of(st.just(0), st.integers(0, p - 1))
    return st.one_of(
        st.just(Fraction(0)),
        st.builds(Fraction, st.integers(-30, 30), st.integers(1, 30)),
    )


@st.composite
def _rows(draw, nrows, ncols, p=0):
    """nrows x ncols lists of entries (Fractions with mixed signs and
    denominators up to 30 over QQ, residues mod p); about half are products
    of thinner factors, so rank deficient, and some rows and columns are
    zeroed out."""
    zero = 0 if p else Fraction(0)
    if nrows and ncols and draw(st.booleans()):
        k = draw(st.integers(0, min(nrows, ncols) - 1))
        left = [[draw(_entries(p)) for _ in range(k)] for _ in range(nrows)]
        right = [[draw(_entries(p)) for _ in range(ncols)] for _ in range(k)]
        rows = [list(r) for r in matmul_oracle(left, right, ncols, p)]
    else:
        rows = [[draw(_entries(p)) for _ in range(ncols)] for _ in range(nrows)]
    if nrows:
        for i in draw(st.sets(st.integers(0, nrows - 1), max_size=2)):
            rows[i] = [zero] * ncols
    if ncols:
        for j in draw(st.sets(st.integers(0, ncols - 1), max_size=2)):
            for r in rows:
                r[j] = zero
    return rows


@st.composite
def _matrix(draw, p=0, max_rows=6, max_cols=8):
    nrows, ncols = draw(st.integers(0, max_rows)), draw(st.integers(0, max_cols))
    return draw(_rows(nrows, ncols, p)), ncols


@st.composite
def _square(draw, p=0):
    n = draw(st.integers(0, 6))
    return draw(_rows(n, n, p))


def _field(p):
    return GF(p) if p else QQ


def _check_value_equality(m):
    """A result equals, and hashes like, the matrix rebuilt from its
    entries, whatever common denominator either one holds."""
    again = Matrix(m.field, m.rows, ncols=m.ncols)
    assert m == again and hash(m) == hash(again)


def _check_rank_kernel_column_space(rows, ncols, p):
    m = Matrix(_field(p), rows, ncols=ncols)
    _, pivots = rref_oracle(rows, ncols, p)
    assert m.rank() == len(pivots)
    k = kernel_basis(m)
    assert (k.nrows, k.ncols) == (ncols, ncols - len(pivots))
    assert matrix_cols(k) == kernel_oracle(rows, ncols, p)
    # geometricity reads square roots of discriminants over these
    # denominators, so each must be positive (1 mod p)
    assert all(den > 0 if p == 0 else den == 1 for _, den in m._kernel())
    # the column space is spanned by the original columns at the pivots
    assert m._echelon()[1] == pivots


def _check_det_inverse(rows, p):
    n = len(rows)
    m = Matrix(_field(p), rows, ncols=n)
    assert m.det() == det_oracle(rows, p)
    inv = inverse_oracle(rows, p)
    if inv is None:
        with pytest.raises(ValueError, match="singular"):
            inverse(m)
    else:
        got = inverse(m)
        assert list(got.rows) == inv
        assert matmul(m, got) == Matrix.identity(m.field, n)
        _check_value_equality(got)


def _check_adjugate(rows, p):
    # m = N / d; the adjugate is of the integer numerators N (residues mod
    # p), so adj N * N = N * adj N = det N * I on integers, and adj N has
    # rank 4, 1 or 0 as N has rank 4, 3 or less
    m = Matrix(_field(p), rows, ncols=4)
    adj = _adjugate(m)
    assert adj.field == m.field and (adj.nrows, adj.ncols, adj._den) == (4, 4, 1)
    n = [m._num[4 * i:4 * i + 4] for i in range(4)]
    a = [adj._num[4 * i:4 * i + 4] for i in range(4)]
    if p:
        assert all(0 <= x < p for x in adj._num)
    det = det_oracle(n, p)
    scalar = [tuple(det if i == j else 0 for j in range(4)) for i in range(4)]
    assert matmul_oracle(a, n, 4, p) == matmul_oracle(n, a, 4, p) == scalar
    rank = len(rref_oracle(n, 4, p)[1])
    assert len(rref_oracle(a, 4, p)[1]) == {4: 4, 3: 1}.get(rank, 0)


def _check_product_apply(a, b, vec, ncols, p):
    ma, mb = Matrix(_field(p), a, ncols=len(vec)), Matrix(_field(p), b, ncols=ncols)
    prod = matmul(ma, mb)
    assert (prod.nrows, prod.ncols) == (len(a), ncols)
    assert list(prod.rows) == matmul_oracle(a, b, ncols, p)
    _check_value_equality(prod)
    column = Matrix(_field(p), [[x] for x in vec], ncols=1)
    assert list(matmul(ma, column).rows) == matmul_oracle(
        a, [[x] for x in vec], 1, p)


_oracle_settings = settings(max_examples=150, derandomize=True, database=None, deadline=None)
_primes = pytest.mark.parametrize("p", [5, 10007], ids=["F5", "F10007"])


@_oracle_settings
@given(_matrix())
def test_qq_rank_kernel_column_space_match_oracle(data):
    _check_rank_kernel_column_space(*data, 0)


@_oracle_settings
@given(_square())
def test_qq_det_inverse_match_oracle(rows):
    _check_det_inverse(rows, 0)


@_oracle_settings
@given(_rows(4, 4))
def test_qq_adjugate_times_matrix_is_det_identity(rows):
    _check_adjugate(rows, 0)


@_oracle_settings
@given(st.integers(0, 6), st.integers(0, 8), st.integers(0, 6), st.data())
def test_qq_product_and_apply_match_oracle(nrows, inner, ncols, data):
    a = data.draw(_rows(nrows, inner))
    b = data.draw(_rows(inner, ncols))
    vec = data.draw(st.lists(_entries(), min_size=inner, max_size=inner))
    _check_product_apply(a, b, vec, ncols, 0)


@_primes
@_oracle_settings
@given(st.data())
def test_fp_rank_kernel_column_space_match_oracle(p, data):
    _check_rank_kernel_column_space(*data.draw(_matrix(p)), p)


@_primes
@_oracle_settings
@given(st.data())
def test_fp_det_inverse_match_oracle(p, data):
    _check_det_inverse(data.draw(_square(p)), p)


@_primes
@_oracle_settings
@given(st.data())
def test_fp_adjugate_times_matrix_is_det_identity(p, data):
    _check_adjugate(data.draw(_rows(4, 4, p)), p)


@_primes
@_oracle_settings
@given(st.integers(0, 6), st.integers(0, 8), st.integers(0, 6), st.data())
def test_fp_product_and_apply_match_oracle(p, nrows, inner, ncols, data):
    a = data.draw(_rows(nrows, inner, p))
    b = data.draw(_rows(inner, ncols, p))
    vec = data.draw(st.lists(_entries(p), min_size=inner, max_size=inner))
    _check_product_apply(a, b, vec, ncols, p)


# -- results stay in the field's normal form -------------------------------


def _entry_types(m):
    return {type(x) for r in m.rows for x in r}


@pytest.mark.parametrize("field", [QQ, GF(5)], ids=["QQ", "GF5"])
def test_results_hold_only_field_elements(field):
    from helpers import random_invertible_fp, random_invertible_qq
    from ncquad.tensors import Tensor

    kind = Fraction if field is QQ else int
    rng = random.Random(85)
    for _ in range(10):
        if field is QQ:
            a = random_matrix_qq(rng, 4, 5, height=3)
            c = random_matrix_qq(rng, 5, 3, height=3)
            sq = random_invertible_qq(rng, 4, height=3)
            w = [Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(16)]
        else:
            a = random_matrix_fp(rng, field, 4, 5)
            c = random_matrix_fp(rng, field, 5, 3)
            sq = random_invertible_fp(rng, field, 4)
            w = [rng.randrange(5) for _ in range(16)]
        low = matmul(a, Matrix(field, [[1, 0, 0, 0, 0]] * 5))   # rank <= 1
        t = Tensor(field, (2, 2, 2, 2), w, ("A", "B", "C", "D"))
        results = [
            matmul(a, c), inverse(sq), kernel_basis(a), kernel_basis(low),
            t.reshape((0, 1), (2, 3)), t.reshape((3, 1, 0), (2,)),
        ]
        for m in results:
            assert _entry_types(m) <= {kind}
            assert all(type(r) is tuple for r in m.rows)
            assert all(len(r) == m.ncols for r in m.rows)


def test_public_constructors_still_coerce():
    m = Matrix(QQ, [[1, "1/2"]])
    assert m.rows == ((Fraction(1), Fraction(1, 2)),)
    assert _entry_types(m) == {Fraction}
    c = from_cols(QQ, [(1, "2/3"), ("-1", 0)])
    assert c.rows == ((Fraction(1), Fraction(-1)), (Fraction(2, 3), Fraction(0)))
    assert _entry_types(c) == {Fraction}
    F = GF(5)
    assert _entry_types(Matrix(F, [[1, "1/2"]])) == {int}
    assert Matrix(F, [[1, "1/2"]]).rows == ((1, 3),)
    assert Matrix(F, [[1, "1/2"]]) == Matrix(F, [[F.of(1), F.of(3)]])


def test_equality_and_hash_ignore_the_common_denominator():
    quarter = matmul(Matrix(QQ, [[1, 2]]), Matrix(QQ, [["1/2"], ["1/4"]]))   # 1, as 4/4
    one = Matrix(QQ, [[1]])
    assert quarter == one and hash(quarter) == hash(one)
    assert quarter.rows == ((Fraction(1),),)
    assert quarter != Matrix(QQ, [["1/4"]])
    half = Matrix(QQ, [["1/2", 0], [0, "1/3"]])
    assert inverse(half) == Matrix(QQ, [[2, 0], [0, 3]])
    assert matmul(half, inverse(half)) == Matrix.identity(QQ, 2)
    assert len({inverse(half), Matrix(QQ, [[2, 0], [0, 3]])}) == 1


def test_hstack_rejects_mixed_fields():
    with pytest.raises(ValueError, match="field mismatch"):
        hstack(Matrix(QQ, [[1]]), Matrix(GF(5), [[1]]))


def test_product_and_hstack_reject_mixed_fields():
    a, b = Matrix(QQ, [[1, 2]]), Matrix(GF(5), [[1], [2]])
    with pytest.raises(ValueError, match="field mismatch"):
        matmul(a, b)
    with pytest.raises(ValueError, match="field mismatch"):
        hstack(a, b)


def _check_det_after_kernel(rows, p):
    """The determinant read off the echelon that the kernel (``_kernel``) kept
    equals the Leibniz oracle, and reading it eliminates nothing."""
    n = len(rows)
    m = Matrix(_field(p), rows, ncols=n)
    assert matrix_cols(kernel_basis(m)) == kernel_oracle(rows, n, p)
    with mock.patch.object(ncquad.linalg, "_int_echelon",
                           side_effect=AssertionError("eliminated again")):
        assert m.det() == det_oracle(rows, p)
        assert m.rank() == len(rref_oracle(rows, n, p)[1])


@_oracle_settings
@given(_square())
def test_qq_det_after_kernel_matches_oracle(rows):
    _check_det_after_kernel(rows, 0)


@_primes
@_oracle_settings
@given(st.data())
def test_fp_det_after_kernel_matches_oracle(p, data):
    _check_det_after_kernel(data.draw(_square(p)), p)
