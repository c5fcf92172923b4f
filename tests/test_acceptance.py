"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line, all tolerances exact (integer/rational equality throughout)."""

import random
from contextlib import contextmanager
from fractions import Fraction

import pytest

from helpers import (
    contraction_matrix,
    enumeration_oracle_failing_pairs,
    euler_p1xp2,
    kernel_basis,
    line_from_phi,
    matmul,
    nonresidue_int,
    random_invertible_fp,
    random_invertible_qq,
    random_matrix_qq,
    random_quintuple_fp,
    random_type_a_triple,
)
from ncquad.blowup import (
    EPair,
    PicClass,
    canonical_class,
    coh_p1,
    coh_p1xp2,
    restrict_to_E,
)
from ncquad.certify import ext_table, full_pipeline, gram_of
from ncquad.fields import GF, QQ
from ncquad.grassmann import hom_R_K_dim, hom_R_O_dim, line_relation
from ncquad.linalg import Matrix
from ncquad.quintuples import (
    SLOT_LABELS,
    Quintuple,
    build_linear_quadric,
    build_type_a,
    hilbert_dims,
    is_geometric,
    relations,
    truncated_dims,
)
from ncquad.squares import (
    BLOCK_GRAM,
    block_quiver,
    gram_base_change,
    linear_quiver,
    mutate_linear_to_block,
    square_from_quintuple,
)
from ncquad.tensors import Tensor


@contextmanager
def criterion(num, name):
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {num:02d} {name}: FAIL")
        raise
    print(f"[acceptance] criterion {num:02d} {name}: PASS")


@pytest.fixture(scope="module")
def certified_samples():
    """50 certified type-A inputs of height <= 20 (fixed seed)."""
    rng = random.Random(2024)
    out = []
    while len(out) < 50:
        triple, q = random_type_a_triple(rng, height=20)
        cert = full_pipeline(q, "ruling")
        if cert.certified:
            out.append((triple, q))
    return out


def test_criterion_01_hilbert_dims(certified_samples):
    with criterion(1, "hilbert-dims"):
        assert tuple(hilbert_dims(n) for n in range(7)) == (1, 2, 4, 6, 9, 12, 16)
        for q in [build_linear_quadric()] + [q for _, q in certified_samples]:
            table = truncated_dims(relations(q))
            assert table.valid
            for (i, j), (got, want) in table.cells.items():
                assert got == want == hilbert_dims(j - i)


def test_criterion_02_relation_data(certified_samples):
    with criterion(2, "relation-data"):
        rng = random.Random(2025)
        geometric_pool = [build_linear_quadric()] + [q for _, q in certified_samples]
        # add random dense rational tensors that happen to be geometric
        added = 0
        while added < 10:
            entries = [Fraction(rng.randint(-5, 5)) for _ in range(16)]
            if not any(entries):
                continue
            q = Quintuple(Tensor(QQ, (2, 2, 2, 2), entries, SLOT_LABELS))
            if is_geometric(q).passed:
                geometric_pool.append(q)
                added += 1
        for q in geometric_pool:
            rel = relations(q)
            assert rel.dims == (2, 2, 1)
            assert rel.valid


def test_criterion_03_genericity_determinant():
    with criterion(3, "genericity-determinant"):
        rng = random.Random(2026)
        for _ in range(100):
            (a, b, c), q = random_type_a_triple(rng, height=20)
            direct = contraction_matrix(q, 2).det()
            assert direct == (b * b - a * a) * (c * c - a * a)
        assert abs(contraction_matrix(build_linear_quadric(), 2).det()) == 1


def test_criterion_04_line_classifier_and_convention_discrepancy():
    with criterion(4, "line-classifier"):
        linear = build_linear_quadric()
        q011 = build_type_a(0, 1, 1)
        q123 = build_type_a(1, 2, 3)

        def verdict(q, conv):
            sq = square_from_quintuple(q, conv)
            return line_relation(sq.line(1))

        lr_linear_ruling = verdict(linear, "ruling")
        assert lr_linear_ruling.verdict == "disjoint"

        lr_011_literal = verdict(q011, "literal")
        assert lr_011_literal.verdict == "coincide"
        assert lr_011_literal.psi_reshuffle_rank == 1

        for conv in ("ruling", "literal"):
            assert verdict(q123, conv).verdict == "disjoint"

        # the two displayed facts cannot hold under one convention: under
        # "literal" the commutative example coincides, under "ruling" the
        # (0:1:1) example is disjoint; assert the discrepancy is real and
        # visibly reported
        lr_linear_literal = verdict(linear, "literal")
        lr_011_ruling = verdict(q011, "ruling")
        assert lr_linear_literal.verdict == "coincide"      # not disjoint
        assert lr_011_ruling.verdict == "disjoint"          # not coincide
        assert lr_011_ruling.flag == "opposite decomposable family"
        per_convention_consistent = {
            "ruling": lr_linear_ruling.verdict == "disjoint"
            and lr_011_ruling.verdict == "coincide",
            "literal": lr_linear_literal.verdict == "disjoint"
            and lr_011_literal.verdict == "coincide",
        }
        assert not any(per_convention_consistent.values())


def test_criterion_05_quiver_dimensions(certified_samples):
    with criterion(5, "quiver-algebra"):
        for _, q in [((), build_linear_quadric())] + certified_samples:
            bq = block_quiver(square_from_quintuple(q, "ruling"))
            assert len(bq.vertices) == 4
            assert sum(len(a.labels) for a in bq.arrows) == 8
            assert bq.relation_dim == 4
            assert bq.total_dim == 16
            assert bq.gram == ((1, 2, 2, 4), (0, 1, 0, 2), (0, 0, 1, 2), (0, 0, 0, 1))
            lq = linear_quiver(relations(q))
            assert lq.total_dim == 24
            assert lq.gram == ((1, 2, 4, 6), (0, 1, 2, 4), (0, 0, 1, 2), (0, 0, 0, 1))


def test_criterion_06_mutation(certified_samples):
    with criterion(6, "mutation"):
        for _, q in [((), build_linear_quadric())] + certified_samples:
            rel = relations(q)
            assert gram_base_change(linear_quiver(rel)) == BLOCK_GRAM
            bq = block_quiver(square_from_quintuple(q, "ruling"))
            mutated, report = mutate_linear_to_block(q, rel, bq)
            assert report.orthogonality_bijective
            assert report.a13_dim == 4
            assert mutated.gram == BLOCK_GRAM
            assert report.structural_match


def test_criterion_07_hom_dimensions():
    with criterion(7, "hom-dimensions"):
        rng = random.Random(2027)
        assert hom_R_O_dim() == 4
        for _ in range(100):
            phi = random_invertible_qq(rng, 4)
            assert hom_R_K_dim(line_from_phi(phi, rng.randint(0, 1))) == 2
        F = GF(101)
        for _ in range(100):
            phi = random_invertible_fp(rng, F, 4)
            assert hom_R_K_dim(line_from_phi(phi, rng.randint(0, 1))) == 2


def test_criterion_08_cohomology_leaves():
    with criterion(8, "cohomology-leaves"):
        assert coh_p1xp2(-3, -2).dims == (0, 0, 0, 0)
        assert coh_p1xp2(-2, -2).dims == (0, 0, 0, 0)
        assert coh_p1xp2(1, 0).dims == (2, 0, 0, 0)
        assert 2 * coh_p1xp2(2, 0).h(0) == 6
        assert 2 * hom_R_O_dim() == 8     # Hom(p*R, O^2) leaf
        for m in range(-10, 11):
            for n in range(-10, 11):
                assert coh_p1xp2(m, n).euler() == euler_p1xp2(m, n)


def test_criterion_09_blowup_calculus():
    with criterion(9, "blowup-calculus"):
        om = canonical_class()
        assert om == PicClass(-4, 2, 2)
        exceptional = (PicClass(0, 1, 0), PicClass(0, 0, 1))
        for i in (0, 1):
            assert restrict_to_E(exceptional[i], i) == EPair(2, -1)
            assert restrict_to_E(om, i) == EPair(-4, -2)
        # adjunction: omega_E = (omega + E_i)|_{E_i} = (-2, -3)
        assert restrict_to_E(PicClass(-4, 3, 2), 0) == EPair(-2, -3)
        assert restrict_to_E(PicClass(-4, 2, 3), 1) == EPair(-2, -3)
        # deg omega_G = omega - 2 E0 - 2 E1 restricted to either center line
        assert restrict_to_E(PicClass(-4, 0, 0), 0).m == -8


def test_criterion_10_certification():
    with criterion(10, "certification"):
        cert = full_pipeline(build_linear_quadric(), "ruling")
        assert cert.certified

        cert011 = full_pipeline(build_type_a(0, 1, 1), "literal")
        assert not cert011.certified
        assert cert011.verdict["stage"] == "lines"

        cert112 = full_pipeline(build_type_a(1, 1, 2), "ruling")
        assert not cert112.certified
        assert cert112.verdict["stage"] == "determinant"

        rng = random.Random(2028)
        certified = 0
        for _ in range(100):
            _, q = random_type_a_triple(rng, height=20)
            c = full_pipeline(q, "ruling")
            if c.certified:
                certified += 1
                assert gram_of(ext_table(square_from_quintuple(q, "ruling"))) == BLOCK_GRAM
        assert certified >= 90


def test_criterion_11_oracle_agreement():
    with criterion(11, "oracle-agreement"):
        rng = random.Random(2029)
        total = 0
        for p, count in ((5, 160), (11, 44)):
            F = GF(p)
            nu = nonresidue_int(p)
            for _ in range(count):
                q = random_quintuple_fp(rng, F)
                decided = set(is_geometric(q).failing_pairs())
                enumerated = enumeration_oracle_failing_pairs(q, nu)
                assert decided == enumerated
                total += 1
        assert total >= 200

        # reduction mod p commutes with exact rational linear algebra
        F101 = GF(101)
        for _ in range(25):
            a = random_matrix_qq(rng, 3, 4)
            b = random_matrix_qq(rng, 4, 2)
            red = lambda m, f: Matrix(f, [[f.of(x) for x in row] for row in m.rows],
                                      ncols=m.ncols)
            assert matmul(red(a, F101), red(b, F101)) == red(matmul(a, b), F101)
        # rank/kernel dims survive reduction mod a 61-bit prime (no minor of
        # a small-entry matrix can vanish mod it unless it vanishes over QQ)
        big = GF(2**61 - 1)
        for _ in range(25):
            m = random_matrix_qq(rng, rng.randint(1, 5), rng.randint(1, 5), height=20)
            mred = Matrix(big, [[big.of(x) for x in row] for row in m.rows],
                          ncols=m.ncols)
            assert m.rank() == mred.rank()
            assert kernel_basis(m).ncols == kernel_basis(mred).ncols


def test_criterion_12_hkr_triple():
    with criterion(12, "hkr-triple"):
        # Kuenneth on P^1 x P^1: wedge^2 T = O(2,2), T = O(2,0) + O(0,2)
        def h(k, m, n):
            a, b = coh_p1(m), coh_p1(n)
            return sum(a.h(i) * b.h(k - i) for i in range(k + 1))

        triple = (h(0, 2, 2), h(1, 2, 0) + h(1, 0, 2), h(2, 0, 0))
        # a count of 10 for the same space is stated elsewhere; the direct
        # Kuenneth evaluation gives 9, and H^1(T) = 0 is the rigidity of
        # the quadric surface
        assert triple == (9, 0, 0)
