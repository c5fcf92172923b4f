"""One determinant per contraction-matrix pair, and eliminations only
where the minors leave a rank open.

``Quintuple.contractions`` holds M_0..M_3, and M_{j+2} is the transpose
of M_j, so geometricity, the square's determinant and the mutation's R_0
leg read the determinants of M_0 and M_1, from 2x2 minors, once per
quintuple.  A singular M_j of rank 3 keeps its nonzero adjugate from the
same minors, and the kernels of M_j and M_{j+2} are a column and a row of
it; only an M_j of rank <= 2 is eliminated, with M_{j+2}.  These tests
record the eliminations of certified and singular inputs and check every
read-off against oracles in ``helpers`` that share no elimination or index
code with the pipeline.
"""

import random

import pytest

import ncquad.linalg
from helpers import (
    certificate_json,
    column_space_oracle,
    contraction_matrix,
    contraction_oracle,
    det_oracle,
    geometricity_oracle,
    kernel_basis,
    kernel_oracle,
    matrix_cols,
    mutation_oracle,
    random_tensor_fp,
    random_type_a_triple,
    record_eliminations,
    rows,
    transpose,
    verify_witness,
)
from ncquad.certify import _geometricity_json, full_pipeline
from ncquad.fields import GF, QQ
from ncquad.fileformat import canonical_json_bytes, input_digest
from ncquad.quintuples import (
    SLOT_LABELS,
    Quintuple,
    build_type_a,
    is_geometric,
    relations,
)
from ncquad.squares import NotGeneric, mutate_linear_to_block, square_from_quintuple
from ncquad.tensors import Tensor

# M_0 invertible, M_1 of rank 3: pairs 1 and 3 have different kernels
CERTIFIED_M1_SINGULAR = [0, 2, -1, -1, 1, -1, -1, -1, 2, -1, 0, 0, 2, 1, -1, 0]
FAILING_M1_SINGULAR = [1, 0, 0, 0, 0, 0, 0, 1, 0, 1, 0, 0, 2, 2, 2, 1]


def _quintuple(entries, field=QQ):
    return Quintuple(Tensor(field, (2, 2, 2, 2), entries, SLOT_LABELS))


@pytest.fixture
def eliminations(monkeypatch):
    """The shapes (rows, columns) of the ``_int_echelon`` calls made so
    far, in order."""
    return record_eliminations(monkeypatch)


def _certify(q, convention, eliminations):
    """Decide and render ``q``, checking that it certifies and that only
    rendering eliminates: the deciding stages of a certified input read
    every rank off minors or determinants.  Returns the certificate."""
    before = list(eliminations)
    cert = full_pipeline(q, convention)
    assert cert.certified
    assert eliminations == before
    cert.to_dict()
    return cert


@pytest.fixture
def warm():
    """Certify one QQ input under both conventions, so the ranks read off
    the shared identity (block leg 0 and Hom(R, K_0) of the standard
    line), which a process eliminates once, are already kept."""
    for convention in ("ruling", "literal"):
        _certify(build_type_a(2, 3, 5), convention, [])


# the two eliminations of a certified input, both in forced stages: the
# 7x16 span of R0 x V3 and V0 x R1 in ``relations`` (its eighth vector is
# a sum of three of them), and the Hom(R, K_1) section matrix
CERTIFIED = [(7, 16), (6, 8)]


@pytest.mark.parametrize("convention", ["ruling", "literal"])
def test_certified_type_a_input_eliminates_twice(warm, eliminations, convention):
    # geometricity reads the determinants of M_0 and M_1 off minors, the
    # R_0 and R_1 flattenings are ranked by minors, the determinant and
    # the mutation's R_0 leg read the determinant M_0 keeps, the
    # reshuffle rank and block leg 1 are 4x4s of nonzero determinant, a
    # leg of rank 4 gives the stacked paths rank 4, the square writes
    # phi_1 as an adjugate, and leg 0 and Hom(R, K_0) read the identity's
    # kept ranks; only the relations span and Hom(R, K_1) are eliminated
    _certify(build_type_a(1, 2, 3), convention, eliminations)
    assert eliminations == CERTIFIED


def test_identity_ranks_are_eliminated_once_per_process(eliminations):
    # in a fresh process the first certified input also ranks block leg 0
    # and Hom(R, K_0), once each, and only the 6x8 Hom(R, K_0) section
    # matrix is eliminated; the caches are keyed by field, and the
    # standard line always contracts factor 0
    kept = ncquad.linalg._identity_pick
    kept.cache_clear()
    _certify(build_type_a(1, 2, 3), "ruling", eliminations)
    assert sorted(eliminations) == sorted(CERTIFIED + [(6, 8)])
    assert len(eliminations) == 3
    eliminations.clear()
    _certify(build_type_a(1, 2, 3), "literal", eliminations)
    assert eliminations == CERTIFIED
    assert kept.cache_info().currsize == 2


def test_second_convention_on_the_same_quintuple_eliminates_twice(warm, eliminations):
    # the second run reads the determinants of M_0 and M_1 off q;
    # relations and Hom(R, K_1) belong to the convention's own analysis
    q = build_type_a(1, 2, 3)
    _certify(q, "ruling", eliminations)
    assert eliminations == CERTIFIED
    eliminations.clear()
    _certify(q, "literal", eliminations)
    assert eliminations == CERTIFIED


def test_contractions_are_picked_once_and_kept_out_of_the_record():
    q = build_type_a(1, 2, 3)
    fresh = build_type_a(1, 2, 3)
    assert q.contractions is q.contractions
    before = (repr(q), input_digest(q))
    assert full_pipeline(q, "ruling").certified
    assert q._values() == (q.w,)
    assert (repr(q), input_digest(q)) == before == (repr(fresh), input_digest(fresh))
    assert q.contractions is not fresh.contractions
    assert [rows(m) for m in q.contractions] == [rows(m) for m in fresh.contractions]


def test_rank_3_m1_eliminates_neither_m1_nor_m3(warm, eliminations):
    q = _quintuple(CERTIFIED_M1_SINGULAR)
    flat = q.contractions
    assert flat[0].rank() == 4 and flat[1].rank() == 3
    # M_0 is ranked by its determinant and M_1 by its nonzero adjugate
    assert eliminations == []
    report = is_geometric(q)
    # M_3 = M_1^T reads its kernel off the rows of the adjugate M_1 keeps
    assert eliminations == []
    assert all(m._ech is None for m in flat)
    assert [(p.passed, p.kernel_dim) for p in report.pairs] == [
        (True, 0), (True, 1), (True, 0), (True, 1)]
    for j in (1, 3):
        m = flat[j]
        assert matrix_cols(kernel_basis(m)) == kernel_oracle(rows(m), 4)
    assert rows(kernel_basis(flat[1])) != rows(kernel_basis(flat[3]))

    cert = full_pipeline(_quintuple(CERTIFIED_M1_SINGULAR), "ruling")
    assert cert.certified
    assert eliminations == []
    cert.to_dict()
    assert eliminations == CERTIFIED
    assert certificate_json(cert)["stages"][0]["report"] == geometricity_oracle(q)


def test_singular_m1_witness_is_read_from_the_kernel_of_m3(eliminations):
    q = _quintuple(FAILING_M1_SINGULAR)
    report = is_geometric(q)
    # M_0 is invertible by its determinant; M_1 has rank 3, and the
    # kernels of M_1 and M_3 are a column and a row of its adjugate
    assert eliminations == []
    assert q.contractions[1].rank() == 3
    assert all(m._ech is None for m in q.contractions)
    assert report.failing_pairs() == [1, 3]
    assert report.pairs[1].witness != report.pairs[3].witness
    assert all(verify_witness(q, j, report.pairs[j].witness) for j in (1, 3))
    assert canonical_json_bytes(_geometricity_json(report, 0)) == canonical_json_bytes(
        geometricity_oracle(q))


def test_rank_2_pair_still_eliminates_both_matrices(eliminations):
    rng = random.Random(5)
    q = next(q for q in _random_inputs(rng, 500) if contraction_oracle(q, 0).rank() == 2)
    eliminations.clear()
    flat = q.contractions
    report = is_geometric(q)
    # M_0 keeps its echelon; M_2 = M_0^T is eliminated for its own kernel
    assert eliminations[:2] == [(4, 4), (4, 4)]
    assert flat[0]._ech is not None and flat[2]._ech is not None
    assert report.pairs[0].kernel_dim == report.pairs[2].kernel_dim == 2
    assert canonical_json_bytes(_geometricity_json(report, q.field.characteristic)) == (
        canonical_json_bytes(geometricity_oracle(q)))


def test_sparse_f5_inputs_are_mostly_decided_without_elimination(eliminations):
    # 2,000 tensors over F_5 with entries drawn from {-1, 0, 0, 0, 1}, the
    # draw of the benchmark's sparse workload: most have a singular M_0 or
    # M_1, of rank 3 in most of those, and only rank <= 2 is eliminated
    rng = random.Random(0)
    count = 0
    ranks = set()
    while count < 2000:
        entries = [rng.choice((-1, 0, 0, 0, 1)) for _ in range(16)]
        if any(entries):
            q = _quintuple(entries, GF(5))
            is_geometric(q)
            ranks.update(m.rank() for m in q.contractions[:2])
            count += 1
    assert len(eliminations) <= 0.8 * count
    assert {2, 3, 4} <= ranks


def test_flattenings_are_the_contraction_matrices_and_transpose_in_pairs():
    rng = random.Random(11)
    inputs = [random_type_a_triple(rng)[1] for _ in range(5)]
    inputs += [random_tensor_fp(rng, GF(p), d) for p in (5, 7) for d in (0.2, 0.6, 1.0)]
    inputs.append(_quintuple(CERTIFIED_M1_SINGULAR))
    for q in inputs:
        flat = q.contractions
        assert len(flat) == 4
        for j in range(4):
            assert rows(flat[j]) == rows(contraction_matrix(q, j)) == rows(contraction_oracle(q, j))
        for j in range(2):
            assert rows(flat[j + 2]) == rows(transpose(flat[j]))


def _random_inputs(rng, count):
    """Random F_5 and F_7 tensors of mixed density: sparse ones reach
    singular flattenings and failing pairs of every kernel dimension."""
    for k in range(count):
        field = GF(5) if k % 2 else GF(7)
        yield random_tensor_fp(rng, field, rng.choice((0.1, 0.2, 0.3, 0.5, 0.8, 1.0)))


def test_geometricity_matches_the_four_kernel_oracle():
    rng = random.Random(1103)
    seen = set()
    inputs = list(_random_inputs(rng, 2000))
    inputs += [random_type_a_triple(rng)[1] for _ in range(40)]
    for q in inputs:
        report = is_geometric(q)
        got = canonical_json_bytes(_geometricity_json(report, q.field.characteristic))
        assert got == canonical_json_bytes(geometricity_oracle(q))
        seen.add(tuple((p.passed, p.kernel_dim) for p in report.pairs))
    # both halves of each pair are reached: invertible, and singular with
    # passing and failing kernels of dimension 1 and failing ones above
    kinds = {pair for pairs in seen for pair in pairs}
    assert {(True, 0), (True, 1), (False, 1), (False, 2), (False, 3)} <= kinds
    assert any(pairs[0][1] == 0 and pairs[1][1] > 0 for pairs in seen)
    assert any(pairs[0][1] > 0 and pairs[1][1] == 0 for pairs in seen)


def test_mutation_leg_rank_is_the_rank_of_the_flattening():
    rng = random.Random(2207)
    inputs = list(_random_inputs(rng, 1500))
    inputs += [random_type_a_triple(rng)[1] for _ in range(40)]
    ranks = set()
    valid = 0
    for q in inputs:
        rel = relations(q)
        if not rel.valid:
            continue
        valid += 1
        r0 = column_space_oracle(q.w.reshape((0, 1, 2), (3,)))
        _, (_, leg_rank) = mutation_oracle(r0)
        assert leg_rank == contraction_oracle(q, 2).rank() == q.contractions[0].rank()
        mutated, _ = mutate_linear_to_block(q, rel, None)
        assert mutated.leg_ranks == (4, leg_rank)
        ranks.add(leg_rank)
    assert valid > 300
    assert len(ranks) > 1


def test_square_determinant_is_det_m0():
    rng = random.Random(3301)
    inputs = list(_random_inputs(rng, 300)) + [random_type_a_triple(rng)[1] for _ in range(20)]
    vanished = 0
    for q in inputs:
        field = q.field
        expected = field.of(det_oracle(rows(contraction_matrix(q, 2)), field.characteristic))
        is_geometric(q)   # eliminates M_0 first, as the pipeline does
        assert q.contractions[0].det() == expected
        try:
            assert square_from_quintuple(q).contraction_det == expected
        except NotGeneric as exc:
            assert exc.stage == "determinant" and not expected
            vanished += 1
    assert 0 < vanished < len(inputs)
