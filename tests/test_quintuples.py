import random
from fractions import Fraction

import pytest

from helpers import (
    contraction_matrix,
    enumeration_oracle_failing_pairs,
    enumeration_oracle_failing_pairs_rank,
    entry,
    from_cols,
    lift,
    lower,
    nonresidue_int,
    random_quintuple_fp,
    random_tensor_fp,
    random_tensor_qq,
    random_type_a_triple,
    rank_oracle,
    relations_oracle,
    span_contains,
    span_equal,
    tensor_entries,
    tensor_entry,
    verify_witness,
)
from ncquad import linalg, quintuples
from ncquad.fields import GF, QQ
from ncquad.linalg import Matrix
from ncquad.quintuples import (
    SLOT_LABELS,
    PureWitness,
    Quintuple,
    build_linear_quadric,
    build_type_a,
    hilbert_dims,
    is_geometric,
    relations,
    truncated_dims,
)
from ncquad.tensors import Tensor


def pure_tensor_quintuple(field=QQ) -> Quintuple:
    entries = [field.of(0)] * 16
    entries[0] = field.of(1)   # x0 x1 x2 x3
    return Quintuple(Tensor(field, (2, 2, 2, 2), entries, SLOT_LABELS))


def test_linear_quadric_entries():
    q = build_linear_quadric()
    assert sum(1 for x in tensor_entries(q.w) if x) == 4
    assert sorted(int(x) for x in tensor_entries(q.w) if x) == [-1, -1, 1, 1]
    assert tensor_entry(q.w, (0, 0, 1, 1)) == 1
    assert tensor_entry(q.w, (1, 0, 0, 1)) == -1
    assert tensor_entry(q.w, (0, 1, 1, 0)) == -1
    assert tensor_entry(q.w, (1, 1, 0, 0)) == 1


def test_linear_quadric_w_in_R0_V3():
    # R0 = span{x0x1y2 - y0x1x2, x0y1y2 - y0y1x2}; w must lie in R0 x V3
    q = build_linear_quadric()
    r1 = [0] * 8
    r1[0b001] = 1
    r1[0b100] = -1
    r2 = [0] * 8
    r2[0b011] = 1
    r2[0b110] = -1
    cols = []
    for r in (r1, r2):
        for d in range(2):
            vec = [Fraction(0)] * 16
            for i in range(8):
                vec[2 * i + d] = Fraction(r[i])
            cols.append(tuple(vec))
    space = from_cols(QQ, cols, nrows=16)
    assert span_contains(space, tensor_entries(q.w))


def test_linear_quadric_geometric_all_pairs():
    rep = is_geometric(build_linear_quadric())
    assert rep.passed
    assert all(p.kernel_dim == 0 for p in rep.pairs)


def test_type_a_01_1_contraction_identity():
    q = build_type_a(0, 1, 1)
    m = contraction_matrix(q, 2)
    assert m == Matrix.identity(QQ, 4)


def test_type_a_excluded_locus():
    with pytest.raises(ValueError, match="excluded locus"):
        build_type_a(0, 0, 1)
    with pytest.raises(ValueError, match="excluded locus"):
        build_type_a(0, 1, 0)
    with pytest.raises(ValueError, match="excluded locus"):
        build_type_a(1, 1, 1)
    with pytest.raises(ValueError, match="excluded locus"):
        build_type_a(1, -1, 1)
    with pytest.raises(ValueError):
        build_type_a(0, 0, 0)


@pytest.mark.parametrize("field", [QQ, GF(5)], ids=["QQ", "F5"])
def test_zero_tensor_raises_without_building_field_elements(field, monkeypatch):
    # over F_5 the entries 5 and -10 are zero residues of nonzero integers
    zeros = [Fraction(0)] * 16 if field is QQ else [5, -10] + [0] * 14
    t = Tensor(field, (2, 2, 2, 2), zeros, SLOT_LABELS)
    one = Tensor(field, (2, 2, 2, 2), [0] * 15 + [1], SLOT_LABELS)

    def refuse(*args):
        raise AssertionError("a scalar was built from the integer row")

    # ``linalg._elements`` is where every scalar of a Matrix is built
    for module in (linalg, quintuples):
        monkeypatch.setattr(module, "_elements", refuse)
    with pytest.raises(ValueError, match="w must be nonzero"):
        Quintuple(t)
    assert Quintuple(one).w == one


def test_type_a_accepted_has_eight_terms():
    q = build_type_a(1, 2, 3)
    assert sum(1 for x in tensor_entries(q.w) if x) == 8


def test_pure_tensor_fails_everywhere():
    rep = is_geometric(pure_tensor_quintuple())
    assert not rep.passed
    assert rep.failing_pairs() == [0, 1, 2, 3]
    for p in rep.pairs:
        assert p.witness is not None
        assert verify_witness(pure_tensor_quintuple(), p.j, p.witness)


def test_witnesses_verify_on_random_failures():
    rng = random.Random(21)
    F = GF(5)
    checked = 0
    while checked < 25:
        q = random_quintuple_fp(rng, F)
        rep = is_geometric(q)
        for p in rep.pairs:
            if not p.passed and p.witness is not None:
                assert verify_witness(q, p.j, p.witness)
                checked += 1


def test_witnesses_over_a_quadratic_extension_verify():
    # the slot-(0,1) kernel is spanned by (1,0,0,1) and (0,1,-2,0), and
    # det(s v1 + t v2) = s^2 + 2 t^2 has no rational root
    entries = [0] * 16
    for (a, b, c, d), x in {(0, 0, 0, 0): 1, (1, 1, 0, 0): -1,
                            (0, 1, 0, 1): 2, (1, 0, 0, 1): 1}.items():
        entries[8 * a + 4 * b + 2 * c + d] = x
    q = Quintuple(Tensor(QQ, (2, 2, 2, 2), entries, SLOT_LABELS))
    pairs = is_geometric(q).pairs
    assert [p.witness.extension_disc for p in pairs] == [-2, None, None, -8]
    for p in pairs:
        assert verify_witness(q, p.j, p.witness)
    w = pairs[0].witness
    negated = lower(QQ, -lift(QQ, w.chi[1], w.extension_disc))
    assert not verify_witness(q, 0, PureWitness(w.phi, (w.chi[0], negated), w.extension_disc))


def test_is_geometric_invariant_under_basis_change():
    from helpers import random_invertible_qq

    rng = random.Random(22)
    q = build_type_a(1, 2, 3)
    base = is_geometric(q).passed
    for _ in range(10):
        gs = [random_invertible_qq(rng, 2, height=4) for _ in range(4)]
        entries = []
        for i0 in range(2):
            for i1 in range(2):
                for i2 in range(2):
                    for i3 in range(2):
                        acc = QQ.of(0)
                        for j0 in range(2):
                            for j1 in range(2):
                                for j2 in range(2):
                                    for j3 in range(2):
                                        acc += (entry(gs[0], i0, j0) * entry(gs[1], i1, j1)
                                                * entry(gs[2], i2, j2) * entry(gs[3], i3, j3)
                                                * tensor_entry(q.w, (j0, j1, j2, j3)))
                        entries.append(acc)
        q2 = Quintuple(Tensor(QQ, (2, 2, 2, 2), entries, SLOT_LABELS))
        assert is_geometric(q2).passed == base


def test_relations_linear_quadric_matches_displayed():
    q = build_linear_quadric()
    rel = relations(q)
    assert rel.valid and rel.dims == (2, 2, 1)
    expected = []
    r1 = [Fraction(0)] * 8
    r1[0b001] = Fraction(1)
    r1[0b100] = Fraction(-1)
    r2 = [Fraction(0)] * 8
    r2[0b011] = Fraction(1)
    r2[0b110] = Fraction(-1)
    expected = from_cols(QQ, [tuple(r1), tuple(r2)], nrows=8)
    r0, _, line = relations_oracle(q)
    assert span_equal(r0, expected)
    # the intersection line, built as a subspace, is spanned by w
    assert line.ncols == rel.w_dim == 1
    assert span_contains(line, tensor_entries(q.w))


def test_relations_pure_tensor_flagged():
    rel = relations(pure_tensor_quintuple())
    assert not rel.valid
    assert rel.r0_dim == 1


def test_relations_type_a():
    rel = relations(build_type_a(1, 2, 3))
    assert rel.valid and rel.dims == (2, 2, 1)


def test_hilbert_dims_sequence():
    assert [hilbert_dims(n) for n in range(7)] == [1, 2, 4, 6, 9, 12, 16]
    # long-division oracle: multiply the series back by the denominator
    series = [hilbert_dims(n) for n in range(30)]
    den = [1, -2, 0, 2, -1]
    for n in range(30):
        conv = sum(den[k] * series[n - k] for k in range(min(n + 1, 5)))
        assert conv == (1 if n == 0 else 0)


def test_hilbert_dims_closed_form_matches_the_series():
    # expand 1/((1-t)^2 (1-t^2)) = 1/(1 - 2t + 2t^3 - t^4) by its
    # recurrence, iteratively, and compare term by term; a recursion
    # would exhaust the stack long before 10**6
    series = [1, 2, 4, 6]
    while len(series) < 10_000:
        n = len(series)
        series.append(2 * series[n - 1] - 2 * series[n - 3] + series[n - 4])
    assert [hilbert_dims(n) for n in range(10_000)] == series
    assert hilbert_dims(-1) == hilbert_dims(-5) == 0
    assert hilbert_dims(10**6) == 250001000001


def test_truncated_dims_linear_and_type_a():
    for q in (build_linear_quadric(), build_type_a(1, 2, 3)):
        t = truncated_dims(relations(q))
        assert t.valid
        for (i, j), (got, want) in t.cells.items():
            assert got == want == hilbert_dims(j - i)


def test_truncated_dims_pure_tensor_mismatch():
    t = truncated_dims(relations(pure_tensor_quintuple()))
    assert not t.valid
    assert t.cells[(0, 3)] == (7, 6)
    assert (0, 3) in t.mismatches


@pytest.mark.parametrize("field", [QQ, GF(5), GF(7)], ids=["QQ", "F5", "F7"])
def test_window_is_valid_exactly_when_the_relations_are(field):
    # the cells (0,3), (1,4) and (0,4) read dim R0, dim R1 and the
    # intersection dim, and their resolution values force (2, 2, 1)
    rng = random.Random(4401)
    seen = {True: 0, False: 0}
    while min(seen.values()) < 200:
        density = rng.choice((0.2, 0.4, 1.0))
        if field is QQ:
            entries = [rng.randint(-3, 3) if rng.random() < density else 0 for _ in range(16)]
            if not any(entries):
                continue
            q = Quintuple(Tensor(QQ, (2, 2, 2, 2), entries, SLOT_LABELS))
        else:
            q = random_tensor_fp(rng, field, density)
        rel = relations(q)
        assert truncated_dims(rel).valid == rel.valid
        seen[rel.valid] += 1


@pytest.mark.parametrize("field", [QQ, GF(5), GF(7)], ids=["QQ", "F5", "F7"])
def test_rank_three_m1_forces_the_regular_relation_dims(field):
    # the proof in ``relations``: rank M_1 >= 3 gives (R0, R1, W) = (2, 2, 1),
    # so a tensor that passes geometricity (pair 1 of kernel dimension at
    # most 1) never fails the relations stage; only that direction is proved
    rng = random.Random(1707)
    forced = 0
    for _ in range(3000):
        density = rng.uniform(0.2, 1.0)
        if field is QQ:
            q = random_tensor_qq(rng, density)
        else:
            q = random_tensor_fp(rng, field, density)
        if rank_oracle(lift(field, contraction_matrix(q, 1).rows)) < 3:
            continue
        r0, r1_dim, line = relations_oracle(q)
        assert (r0.ncols, r1_dim, line.ncols) == (2, 2, 1)
        forced += 1
    assert forced >= 1000


def test_type_a_slot23_contraction_structure():
    # block structure of the slot-(2,3) contraction: det = (b^2-a^2)(c^2-a^2)
    rng = random.Random(23)
    for _ in range(25):
        (a, b, c), q = random_type_a_triple(rng, height=9)
        m = contraction_matrix(q, 2)
        assert m.det() == (b * b - a * a) * (c * c - a * a)


def test_decision_procedure_vs_enumeration_f5():
    rng = random.Random(24)
    F = GF(5)
    nu = nonresidue_int(5)
    for _ in range(40):
        q = random_quintuple_fp(rng, F)
        assert set(is_geometric(q).failing_pairs()) == enumeration_oracle_failing_pairs(q, nu)


def test_decision_procedure_vs_enumeration_f101():
    rng = random.Random(25)
    F = GF(101)
    nu = nonresidue_int(101)
    for _ in range(2):
        q = random_quintuple_fp(rng, F)
        got = set(is_geometric(q).failing_pairs())
        assert got == enumeration_oracle_failing_pairs_rank(q, nu)
