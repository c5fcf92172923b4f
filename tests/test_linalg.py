import functools
import math
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import (
    apply,
    bareiss_echelon,
    col,
    det_oracle,
    from_cols,
    hstack,
    intersect_subspaces,
    inverse,
    inverse_oracle,
    kernel_basis,
    kernel_oracle,
    lift,
    matmul,
    matmul_oracle,
    matrix,
    matrix_cols,
    random_matrix_fp,
    random_matrix_qq,
    rank_oracle,
    reference_pick,
    rows,
    rref_oracle,
    span_contains,
    span_equal,
    transpose,
)
import ncquad.linalg
from ncquad.fields import GF, QQ
from ncquad.linalg import (
    Matrix,
    _adjugate,
    _det4,
    _int_echelon,
    _int_kernel_vector,
    _keep_transpose,
    _minors2,
    _pick,
    _Picks,
)


def test_rank_identity_and_zero():
    assert Matrix.identity(QQ, 4).rank() == 4
    assert matrix(QQ, [[0] * 5] * 3).rank() == 0


def test_kernel_identity_empty():
    k = kernel_basis(Matrix.identity(QQ, 3))
    assert k.nrows == 3 and k.ncols == 0


def test_kernel_one_by_two():
    m = matrix(QQ, [[1, 1]])
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
            assert rows(matmul(m, inv)) == rows(Matrix.identity(QQ, 4))
            assert inv.det() * d == 1
        else:
            with pytest.raises(ValueError):
                inverse(m)


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
        ared = matrix(F, [[F.of(x) for x in row] for row in rows(a)])
        bred = matrix(F, [[F.of(x) for x in row] for row in rows(b)])
        assert rows(matmul(ared, bred)) == tuple(tuple(F.of(x) for x in row) for row in rows(ab))


def test_rank_kernel_mod_large_prime():
    # entries are small, so no minor can be divisible by a 61-bit prime:
    # rank and kernel dimension must be preserved by reduction
    rng = random.Random(10)
    F = GF(2**61 - 1)
    for _ in range(20):
        m = random_matrix_qq(rng, rng.randint(1, 5), rng.randint(1, 5), height=20)
        mred = matrix(F, [[F.of(x) for x in row] for row in rows(m)], ncols=m.ncols)
        assert m.rank() == mred.rank()
        assert kernel_basis(m).ncols == kernel_basis(mred).ncols


def test_matrix_rejects_quadratic_extension():
    # a stand-in for QQ[theta], whose values are (x, y) pairs
    ext = type("Extension", (), {"characteristic": 0, "of": lambda self, x: x})()
    with pytest.raises(TypeError, match="QQ or F_p"):
        matrix(ext, [[(0, 1), (1, 0)], [(1, 0), (0, 1)]])
    with pytest.raises(TypeError, match="QQ or F_p"):
        from_cols(ext, [(1, 2)])


def test_empty_shapes():
    shape = lambda m: (m.nrows, m.ncols)
    for field in (QQ, GF(5), GF(10007)):
        empty = matrix(field, [], ncols=0)
        assert shape(inverse(empty)) == (0, 0)
        assert empty.rank() == 0 and shape(kernel_basis(empty)) == (0, 0)
        wide, tall = matrix(field, [], ncols=3), matrix(field, [()] * 3, ncols=0)
        assert wide.rank() == tall.rank() == 0
        assert rows(kernel_basis(wide)) == rows(Matrix.identity(field, 3))
        assert shape(kernel_basis(tall)) == (0, 0)
        assert rows(matmul(tall, wide)) == ((0, 0, 0),) * 3
        assert rows(matmul(tall, matrix(field, [], ncols=1))) == ((0,),) * 3


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


def _check_rank_kernel_column_space(rows, ncols, p):
    m = matrix(_field(p), rows, ncols=ncols)
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


def _check_det(m, rows, p):
    """det is the Leibniz oracle on a 4x4 matrix and refused on any other
    size, the general determinant being none of ncquad's."""
    if len(rows) == 4:
        assert m.det() == det_oracle(rows, p)
    else:
        with pytest.raises(ValueError, match="4x4"):
            m.det()


def _check_det_inverse(entries, p):
    n = len(entries)
    m = matrix(_field(p), entries, ncols=n)
    _check_det(m, entries, p)
    inv = inverse_oracle(entries, p)
    if inv is None:
        with pytest.raises(ValueError, match="singular"):
            inverse(m)
    else:
        got = inverse(m)
        assert list(rows(got)) == inv
        assert rows(matmul(m, got)) == rows(Matrix.identity(m.field, n))


def _check_adjugate(rows, p):
    # m = N / d; the adjugate is of the integer numerators N (residues mod
    # p), so adj N * N = N * adj N = det N * I on integers, and adj N has
    # rank 4, 1 or 0 as N has rank 4, 3 or less
    m = matrix(_field(p), rows, ncols=4)
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
    ma, mb = matrix(_field(p), a, ncols=len(vec)), matrix(_field(p), b, ncols=ncols)
    prod = matmul(ma, mb)
    assert (prod.nrows, prod.ncols) == (len(a), ncols)
    assert list(rows(prod)) == matmul_oracle(a, b, ncols, p)
    column = matrix(_field(p), [[x] for x in vec], ncols=1)
    assert list(rows(matmul(ma, column))) == matmul_oracle(
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
    return {type(x) for r in rows(m) for x in r}


@pytest.mark.parametrize("field", [QQ, GF(5)], ids=["QQ", "GF5"])
def test_results_hold_only_field_elements(field):
    from helpers import random_invertible_fp, random_invertible_qq
    from ncquad.tensors import SLOT_LABELS, Tensor

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
        low = matmul(a, matrix(field, [[1, 0, 0, 0, 0]] * 5))   # rank <= 1
        t = Tensor(field, (2, 2, 2, 2), w, SLOT_LABELS)
        results = [
            matmul(a, c), inverse(sq), kernel_basis(a), kernel_basis(low),
            t.reshape((0, 1), (2, 3)), t.reshape((3, 1, 0), (2,)),
        ]
        for m in results:
            assert _entry_types(m) <= {kind}
            assert all(type(r) is tuple for r in rows(m))
            assert all(len(r) == m.ncols for r in rows(m))


def test_public_constructors_still_coerce():
    m = matrix(QQ, [[1, "1/2"]])
    assert rows(m) == ((Fraction(1), Fraction(1, 2)),)
    assert _entry_types(m) == {Fraction}
    c = from_cols(QQ, [(1, "2/3"), ("-1", 0)])
    assert rows(c) == ((Fraction(1), Fraction(-1)), (Fraction(2, 3), Fraction(0)))
    assert _entry_types(c) == {Fraction}
    F = GF(5)
    assert _entry_types(matrix(F, [[1, "1/2"]])) == {int}
    assert rows(matrix(F, [[1, "1/2"]])) == ((1, 3),)
    assert rows(matrix(F, [[1, "1/2"]])) == rows(matrix(F, [[F.of(1), F.of(3)]]))


def test_entries_ignore_the_common_denominator():
    quarter = matmul(matrix(QQ, [[1, 2]]), matrix(QQ, [["1/2"], ["1/4"]]))   # 1, as 4/4
    assert rows(quarter) == rows(matrix(QQ, [[1]])) == ((Fraction(1),),)
    assert rows(quarter) != rows(matrix(QQ, [["1/4"]]))
    half = matrix(QQ, [["1/2", 0], [0, "1/3"]])
    assert rows(inverse(half)) == rows(matrix(QQ, [[2, 0], [0, 3]]))
    assert rows(matmul(half, inverse(half))) == rows(Matrix.identity(QQ, 2))


def test_hstack_rejects_mixed_fields():
    with pytest.raises(ValueError, match="field mismatch"):
        hstack(matrix(QQ, [[1]]), matrix(GF(5), [[1]]))


def test_product_and_hstack_reject_mixed_fields():
    a, b = matrix(QQ, [[1, 2]]), matrix(GF(5), [[1], [2]])
    with pytest.raises(ValueError, match="field mismatch"):
        matmul(a, b)
    with pytest.raises(ValueError, match="field mismatch"):
        hstack(a, b)


def _check_det_after_kernel(rows, p):
    """After the kernel (``_kernel``) kept its echelon, det and rank equal
    the oracles, and reading them eliminates nothing."""
    n = len(rows)
    m = matrix(_field(p), rows, ncols=n)
    assert matrix_cols(kernel_basis(m)) == kernel_oracle(rows, n, p)
    with mock.patch.object(ncquad.linalg, "_int_echelon",
                           side_effect=AssertionError("eliminated again")):
        _check_det(m, rows, p)
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


# -- determinants and full ranks read off minors ---------------------------

_all_fields = pytest.mark.parametrize("p", [0, 5, 10007], ids=["QQ", "F5", "F10007"])
_no_elimination = mock.patch.object(ncquad.linalg, "_int_echelon",
                                    side_effect=AssertionError("eliminated"))


@_all_fields
@_oracle_settings
@given(st.data())
def test_det4_matches_the_leibniz_oracle(p, data):
    rows = data.draw(_rows(4, 4, p))
    m = matrix(_field(p), rows)
    d = _det4(_minors2(m._num))
    if p:
        assert d % p == det_oracle(rows, p)
    else:
        assert Fraction(d, m._den ** 4) == det_oracle(rows)


@_all_fields
@_oracle_settings
@given(st.data())
def test_4x4_rank_kernel_and_det_agree_in_any_order(p, data):
    """rank, the kernel and det of a 4x4 equal the oracles whichever is
    read first, before or after the echelon ran; a nonzero determinant
    answers all three with no elimination, and a nonzero adjugate (rank
    3) the rank and the kernel."""
    rows = data.draw(_rows(4, 4, p))
    order = data.draw(st.permutations(("rank", "kernel", "det", "echelon")))
    order = order[:data.draw(st.integers(1, 4))]
    m = matrix(_field(p), rows)
    read = {"rank": m.rank, "kernel": m._kernel, "det": m.det,
            "echelon": lambda: m._echelon()[1]}
    got = {call: read[call]() for call in order}
    pivots = rref_oracle(rows, 4, p)[1]
    det = det_oracle(rows, p)
    expected = {"rank": len(pivots), "det": det, "echelon": pivots}
    assert {k: v for k, v in got.items() if k != "kernel"} == {
        k: expected[k] for k in got if k != "kernel"}
    # only a matrix of rank <= 2, asked for its rank or kernel, is eliminated
    assert (m._ech is not None) == ("echelon" in order
                                    or (len(pivots) <= 2 and bool({"rank", "kernel"} & set(order))))
    if "kernel" in got:
        assert got["kernel"] == m._kernel()
        assert len(got["kernel"]) == 4 - len(pivots)
    assert matrix_cols(kernel_basis(m)) == kernel_oracle(rows, 4, p)
    assert (m.rank(), m.det()) == (len(pivots), det)


@st.composite
def _lower_rank(draw, p, rank):
    """4x4 rows of the given rank < 4: rank 3 has its kernel line spanned
    by a y whose last nonzero entry falls at a drawn column f, each row
    drawn freely off f and solved at f; rank 2 is a product of 4x2 and
    2x4 factors."""
    if rank == 2:
        left = [[draw(_entries(p)) for _ in range(2)] for _ in range(4)]
        right = [[draw(_entries(p)) for _ in range(4)] for _ in range(2)]
        rows = matmul_oracle(left, right, 4, p)
    else:
        f = draw(st.integers(0, 3))
        y = [draw(_entries(p)) for _ in range(f)] + [draw(_entries(p).filter(bool))]
        rows = []
        for _ in range(4):
            r = [draw(_entries(p)) for _ in range(4)]
            s = sum(a * b for a, b in zip(r[:f], y))
            r[f] = -s * pow(y[f], -1, p) % p if p else -s / y[f]
            rows.append(r)
    assume(len(rref_oracle(rows, 4, p)[1]) == rank)
    return rows


@_all_fields
@_oracle_settings
@given(st.data())
def test_rank_3_kernel_is_read_off_the_adjugate(p, data):
    """A 4x4 of rank 3 is ranked, and its one kernel vector read, off its
    nonzero adjugate, and so are those of its transpose, from the rows of
    the same adjugate: no elimination, and the oracles' values."""
    entries = data.draw(_lower_rank(p, 3))
    m = matrix(_field(p), entries)
    t = transpose(m)
    with _no_elimination:
        assert m.rank() == 3
        _keep_transpose(m, t)
        assert t.rank() == 3
        assert matrix_cols(kernel_basis(m)) == kernel_oracle(entries, 4, p)
        assert matrix_cols(kernel_basis(t)) == kernel_oracle(rows(t), 4, p)
        kernels = [m._kernel(), t._kernel()]
    for [(y, den)] in kernels:
        assert den == 1 if p else den > 0
        assert y[max(k for k in range(4) if y[k])] == den
    assert m._ech is None and t._ech is None


@_all_fields
@_oracle_settings
@given(st.data())
def test_rank_2_kernel_still_eliminates(p, data):
    """A 4x4 of rank 2 has adjugate 0, so it and its transpose are each
    eliminated once for the rank and the kernel."""
    entries = data.draw(_lower_rank(p, 2))
    m = matrix(_field(p), entries)
    t = transpose(m)
    with mock.patch.object(ncquad.linalg, "_int_echelon",
                           wraps=ncquad.linalg._int_echelon) as spy:
        assert m.rank() == 2
        _keep_transpose(m, t)
        assert t.rank() == 2
        assert matrix_cols(kernel_basis(m)) == kernel_oracle(entries, 4, p)
        assert matrix_cols(kernel_basis(t)) == kernel_oracle(rows(t), 4, p)
    assert spy.call_count == 2


@st.composite
def _two_columns(draw, p=0):
    """Up to 8 rows of 2 entries: some zero, some multiples of earlier
    rows, and mod p some entries shifted by multiples of p, so that rows
    vanish, or are proportional, only mod p."""
    rows = []
    for _ in range(draw(st.integers(0, 8))):
        if rows and draw(st.booleans()):
            a, b = draw(st.sampled_from(rows))
            k = draw(_entries(p))
            row = [a * k, b * k]
        elif draw(st.booleans()):
            row = [0, 0]
        else:
            row = [draw(_entries(p)), draw(_entries(p))]
        if p:
            row = [x + p * draw(st.integers(-2, 2)) for x in row]
        rows.append(row)
    return rows


@_all_fields
@_oracle_settings
@given(st.data())
def test_two_column_rank_by_minors_matches_the_oracle(p, data):
    entries = data.draw(_two_columns(p))
    field = _field(p)
    m = matrix(field, entries, ncols=2)
    with _no_elimination:
        rank = m.rank()
    assert rank == rank_oracle(lift(field, rows(m)))


def test_two_column_ranks_of_zero_matrices():
    with _no_elimination:
        assert matrix(QQ, [], ncols=2).rank() == 0
        assert matrix(QQ, [[0, 0]] * 8).rank() == 0
        assert matrix(GF(5), [[5, -10], [0, 15]]).rank() == 0
        assert matrix(GF(5), [[1, 2], [6, 12], [0, 5]]).rank() == 1
        assert matrix(QQ, [[1, 2], [6, 12], [0, 5]]).rank() == 2
        # the first nonzero row is not row 0, and mod 7 row 0 vanishes
        for m, rank in ((matrix(GF(7), [[0, 7], [0, 3], [1, 0]]), 2),
                        (matrix(QQ, [[0, 0], [0, 3], [0, -1]]), 1)):
            assert m.rank() == rank == rank_oracle(lift(m.field, rows(m)))


# -- the primitive-row echelon against textbook Bareiss ---------------------


@st.composite
def _up_to_7x16(draw, p):
    """The integer rows (residues mod p) of a matrix of up to 7 rows and 16
    columns drawn by ``_rows`` (low rank about half the time, some rows and
    columns zeroed), with the field's rows they come from."""
    nrows, ncols = draw(st.integers(0, 7)), draw(st.integers(0, 16))
    entries = draw(_rows(nrows, ncols, p))
    num = matrix(_field(p), entries, ncols=ncols)._num
    return entries, [list(num[i * ncols:(i + 1) * ncols]) for i in range(nrows)], ncols


@_all_fields
@_oracle_settings
@given(st.data())
def test_primitive_rows_match_bareiss_up_to_scale(p, data):
    """``_int_echelon`` finds Bareiss's pivots; over QQ each of its rows is
    a multiple of Bareiss's row by a nonzero rational and no entry is
    larger in absolute value, and mod p the rows are Bareiss's.  The
    reduced kernel pairs (y, den) are identical at every free column, and
    ``Matrix._kernel`` is the Gauss-Jordan oracle's basis."""
    entries, int_rows, n = data.draw(_up_to_7x16(p))
    copies = [list(r) for r in int_rows]
    ech, pivots = _int_echelon(list(copies), n, p)
    ref, ref_pivots = bareiss_echelon(int_rows, n, p)
    assert pivots == ref_pivots and len(ech) == len(ref)
    for row, ref_row in zip(ech, ref):
        if p:
            assert row == ref_row
            continue
        # an input row left alone, or a rewritten one divided by its content
        assert any(row is r for r in copies) or math.gcd(*row) == 1
        k = next(j for j, x in enumerate(ref_row) if x)
        assert all(x * ref_row[k] == y * row[k] for x, y in zip(row, ref_row))
        assert all(abs(x) <= abs(y) for x, y in zip(row, ref_row))
    free = [f for f in range(n) if f not in pivots]
    assert ([_int_kernel_vector(ech, pivots, f, n, p) for f in free]
            == [_int_kernel_vector(ref, ref_pivots, f, n, p) for f in free])
    kernel = matrix(_field(p), entries, ncols=n)._kernel()
    assert ([tuple(y) if p else tuple(Fraction(v, den) for v in y) for y, den in kernel]
            == kernel_oracle(entries, n, p))


def test_rows_zero_in_the_pivot_column_are_left_alone():
    """Only the rows that are nonzero in a pivot column are rewritten; each
    rewritten row is divided by the gcd of its entries, where Bareiss
    rewrites every row below the pivot and keeps the minors."""
    rows = [[2, 4, 6, 8], [0, 3, 9, 12], [4, 2, 0, 2], [0, 0, 5, 10]]
    ech, pivots = _int_echelon(list(rows), 4, 0)
    assert pivots == [0, 1, 2, 3]
    # row 1 is 0 at column 0, the first pivot, and stays the same list;
    # the rewritten rows are new lists, so the input rows are unchanged
    assert ech[1] is rows[1] and rows[1:] == [[0, 3, 9, 12], [4, 2, 0, 2], [0, 0, 5, 10]]
    # row 2 - 2 row 0 = (0, -6, -12, -14) over 2; plus row 1, (0, 0, 3, 5);
    # row 3, 0 at columns 0 and 1, becomes 3 row 3 - 5 row 2 = (0, 0, 0, 5) over 5
    assert ech == [[2, 4, 6, 8], [0, 3, 9, 12], [0, 0, 3, 5], [0, 0, 0, 1]]
    assert bareiss_echelon(rows, 4) == (
        [[2, 4, 6, 8], [0, 6, 18, 24], [0, 0, 36, 60], [0, 0, 0, 60]], pivots)


def _pick_tables() -> list:
    """Every compiled pick table of the package, with its source size:
    the contractions, the relations span, Hom(R, K_i), the block legs,
    the reshuffle, type A and every flattening of w."""
    from itertools import permutations

    from ncquad.grassmann import _HOM_PICKS, _RESHUFFLE_PICKS
    from ncquad.quintuples import _CONTRACTION_INDEX, _SPAN_PICKS, _TYPE_A_PICKS
    from ncquad.squares import _LEG_PICKS
    from ncquad.tensors import _flattening_index

    tables = [*_CONTRACTION_INDEX, _SPAN_PICKS, *_HOM_PICKS, *_LEG_PICKS, _RESHUFFLE_PICKS]
    tables += [_flattening_index(order[:k], order[k:])
               for order in permutations(range(4)) for k in range(5)]
    return [(t, 16) for t in tables] + [(_TYPE_A_PICKS, 3)]


def _source(rng, field, size: int) -> Matrix:
    """A 1 x size matrix with zeros, small and large entries, over a
    common denominator on QQ."""
    def entry():
        if rng.random() < 0.3:
            return 0
        if field is QQ:
            return Fraction(rng.randint(-10 ** 12, 10 ** 12), rng.randint(1, 40))
        return rng.randrange(field.p)
    return matrix(field, [[entry() for _ in range(size)]])


def _same(a: Matrix, b: Matrix):
    return (a.field, a.nrows, a.ncols, a._num, a._den) == (b.field, b.nrows, b.ncols, b._num, b._den)


@pytest.mark.parametrize("field", [QQ, GF(5), GF(10007)], ids=str)
def test_the_gather_is_the_reference_pick_on_every_table(field):
    rng = random.Random(f"gather-{field}")
    tables = _pick_tables()
    assert any(t.negates for t, _ in tables) and any(None in t.picks for t, _ in tables)
    for table, size in tables:
        for _ in range(20):
            m = _source(rng, field, size)
            got = _pick(m, table)
            assert type(got._num) is tuple
            assert _same(got, reference_pick(m, table.nrows, table.ncols, table.picks))


@pytest.mark.parametrize("field", [QQ, GF(5), GF(10007)], ids=str)
def test_negated_zero_and_one_entry_tables_gather_as_the_reference(field):
    # itemgetter of one index returns a bare value; the 1x1 pick must
    # still be a 1x1 matrix, and a negated zero is zero mod p
    rng = random.Random(f"one-{field}")
    size = 5
    tables = [_Picks(1, 1, [k], size) for k in (*range(size), *(~k for k in range(size)), None)]
    tables += [_Picks(2, 3, [~4, None, 0, ~0, 4, None], size),
               _Picks(1, 2 * size + 1, [*range(size), None, *(~k for k in range(size))], size),
               _Picks(3, 1, [None] * 3, size)]
    for table in tables:
        for _ in range(10):
            m = _source(rng, field, size)
            got = _pick(m, table)
            assert len(got._num) == table.nrows * table.ncols
            assert _same(got, reference_pick(m, table.nrows, table.ncols, table.picks))
    zero = matrix(field, [[0] * size])
    assert _pick(zero, _Picks(1, 1, [~2], size))._num == (0,)


@pytest.mark.parametrize("nrows, ncols, picks", [
    (2, 2, [0, 1, 2]),          # three picks for four entries
    (1, 2, [0, 3]),             # past the end of a source of 3
    (1, 2, [~3, 0]),            # the negation of an entry past the end
])
def test_a_table_that_names_no_matrix_of_its_source_is_refused(nrows, ncols, picks):
    with pytest.raises(ValueError, match="do not name"):
        _Picks(nrows, ncols, picks, 3)
