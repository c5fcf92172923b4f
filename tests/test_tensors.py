import random
from fractions import Fraction
from itertools import permutations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    contract,
    entry,
    from_cols,
    random_quintuple_fp,
    random_type_a_triple,
    tensor_entries,
    tensor_entry,
)
from ncquad.corpus import corpus_names, corpus_path
from ncquad.fields import GF, QQ
from ncquad.fileformat import load_quintuple
from ncquad.linalg import Matrix
from ncquad.quintuples import build_linear_quadric, relations
from ncquad.tensors import Tensor


def test_contract_pure_tensor():
    # e_x (x) e_y contracted against x* in slot 0 leaves e_y
    t = Tensor(QQ, (2, 2), [0, 1, 0, 0], ("A", "B"))
    out = contract(t, 0, (1, 0))
    assert out.shape == (2,) and out.slots == ("B",)
    assert tensor_entries(out) == (QQ.of(0), QQ.of(1))


def test_contract_linear_quadric_slots_23():
    # contracting w by x2* then x3* picks out the coefficient of x2 x3,
    # leaving y0 (x) y1
    q = build_linear_quadric()
    step = contract(q.w, 3, (1, 0))        # x3*
    out = contract(step, 2, (1, 0))        # x2*
    assert out.slots == ("V0", "V1")
    assert tensor_entry(out, (1, 1)) == 1
    assert sum(1 for x in tensor_entries(out) if x) == 1


def test_contract_by_zero_functional():
    q = build_linear_quadric()
    out = contract(q.w, 1, (0, 0))
    assert not any(tensor_entries(out))


def test_contract_multilinearity():
    rng = random.Random(81)
    for _ in range(20):
        entries = [Fraction(rng.randint(-9, 9)) for _ in range(16)]
        t = Tensor(QQ, (2, 2, 2, 2), entries, ("A", "B", "C", "D"))
        slot = rng.randrange(4)
        a, b = Fraction(rng.randint(-5, 5)), Fraction(rng.randint(-5, 5))
        phi = (Fraction(rng.randint(-5, 5)), Fraction(rng.randint(-5, 5)))
        chi = (Fraction(rng.randint(-5, 5)), Fraction(rng.randint(-5, 5)))
        combo = tuple(a * p + b * c for p, c in zip(phi, chi))
        lhs = contract(t, slot, combo)
        left, right = contract(t, slot, phi), contract(t, slot, chi)
        pairs = zip(tensor_entries(left), tensor_entries(right))
        rhs = Tensor(QQ, left.shape, [a * x + b * y for x, y in pairs], left.slots)
        assert lhs == rhs


def test_contract_slot_out_of_range():
    t = Tensor(QQ, (2, 2), [1, 0, 0, 1], ("A", "B"))
    with pytest.raises(ValueError):
        contract(t, 2, (1, 0))


def test_slot_labels_distinct():
    with pytest.raises(ValueError):
        Tensor(QQ, (2, 2), [1, 0, 0, 1], ("A", "A"))


def test_entry_count_enforced():
    with pytest.raises(ValueError):
        Tensor(QQ, (2, 2, 2), [1, 0], ("A", "B", "C"))


def test_tensor_holds_qq_or_fp_entries_only():
    # a stand-in for QQ[theta], whose values are (x, y) pairs
    ext = type("Extension", (), {"characteristic": 0, "of": lambda self, x: x})()
    with pytest.raises(TypeError, match="QQ or F_p"):
        Tensor(ext, (2,), [(0, 1), (1, 0)], ("A",))
    half = Tensor(QQ, (2,), ["1/2", "-1/3"], ("A",))
    assert tensor_entries(half) == (Fraction(1, 2), Fraction(-1, 3))
    assert tensor_entries(Tensor(GF(5), (2,), ["1/2", -1], ("A",))) == (GF(5).of(3), GF(5).of(4))


def test_reshape_roundtrip_indices():
    rng = random.Random(82)
    entries = [Fraction(rng.randint(-9, 9)) for _ in range(16)]
    t = Tensor(QQ, (2, 2, 2, 2), entries, ("A", "B", "C", "D"))
    m = t.reshape((2, 3), (0, 1))
    for a in range(2):
        for b in range(2):
            for c in range(2):
                for d in range(2):
                    assert entry(m, 2 * c + d, 2 * a + b) == tensor_entry(t, (a, b, c, d))


def test_contract_commutes_with_reduction_mod_p():
    rng = random.Random(83)
    F = GF(101)
    for _ in range(20):
        entries = [Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 5)))
                   for _ in range(16)]
        t = Tensor(QQ, (2, 2, 2, 2), entries, ("A", "B", "C", "D"))
        phi = (Fraction(rng.randint(-5, 5)), Fraction(rng.randint(-5, 5)))
        slot = rng.randrange(4)
        reduced = Tensor(F, t.shape, [F.of(x) for x in tensor_entries(t)], t.slots)
        lhs = contract(reduced, slot, tuple(F.of(x) for x in phi))
        over_q = contract(t, slot, phi)
        rhs = Tensor(F, over_q.shape, [F.of(x) for x in tensor_entries(over_q)], over_q.slots)
        assert lhs == rhs


def test_contraction_matrix_rank_four():
    # the slot-(2,3) contraction matrix of the commutative quadric tensor
    # is invertible
    from helpers import contraction_matrix

    assert contraction_matrix(build_linear_quadric(), 2).rank() == 4


# -- the index path of reshape against a per-entry oracle -----------------


def _reshape_oracle(t, row_slots, col_slots):
    """Rows of the flattening, one tensor_entry lookup per cell."""
    def multi(group):
        return list(product(*(range(t.shape[s]) for s in group)))

    rows = []
    for ri in multi(row_slots):
        row = []
        for ci in multi(col_slots):
            idx = [0] * len(t.shape)
            for s, v in zip(row_slots + col_slots, ri + ci):
                idx[s] = v
            row.append(tensor_entry(t, tuple(idx)))
        rows.append(tuple(row))
    return rows


@st.composite
def _small_tensor(draw):
    field = draw(st.sampled_from((QQ, GF(5))))
    shape = tuple(draw(st.lists(st.integers(1, 3), min_size=1, max_size=4)))
    size = 1
    for n in shape:
        size *= n
    if field is QQ:
        scalar = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6))
    else:
        scalar = st.integers(0, 4)
    entries = draw(st.lists(scalar, min_size=size, max_size=size))
    return Tensor(field, shape, entries, tuple(f"S{k}" for k in range(len(shape))))


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(_small_tensor())
def test_reshape_matches_entry_oracle_on_every_split(t):
    arity = len(t.shape)
    for order in permutations(range(arity)):
        for cut in range(arity + 1):
            rows, cols = order[:cut], order[cut:]
            m = t.reshape(rows, cols)
            expected = _reshape_oracle(t, rows, cols)
            assert (m.nrows, m.ncols) == (len(expected), len(expected[0]))
            assert list(m.rows) == expected
            assert m == Matrix(t.field, expected)
    rest = tuple(range(1, arity))
    bad = (
        (tuple(range(arity)), (0,)),          # slot 0 twice
        (rest, ()),                           # slot 0 missing
        (rest, (arity,)),                     # slot 0 replaced: out of range
        (rest, (-1,)),                        # slot 0 replaced: negative
    )
    for rows, cols in bad:
        for _ in range(2):
            with pytest.raises(ValueError, match="partition"):
                t.reshape(rows, cols)


def _relation_inputs():
    for name in corpus_names():
        yield load_quintuple(str(corpus_path(name)))[0]
    rng = random.Random(84)
    for _ in range(10):
        yield random_type_a_triple(rng)[1]
    F = GF(5)
    for _ in range(20):
        yield random_quintuple_fp(rng, F)


def test_relations_equal_contraction_spans():
    # R0 (R1) is spanned by the contractions of w by the basis functionals
    # of slot 3 (slot 0)
    checked = 0
    for q in _relation_inputs():
        field = q.field
        basis = ((field.of(1), field.of(0)), (field.of(0), field.of(1)))
        rel = relations(q)
        spans = [from_cols(field, [tensor_entries(contract(q.w, slot, e)) for e in basis], nrows=8)
                 for slot in (3, 0)]
        assert rel.r0_dim == spans[0].rank()
        assert rel.r1_dim == spans[1].rank()
        checked += 1
    assert checked == len(corpus_names()) + 30
