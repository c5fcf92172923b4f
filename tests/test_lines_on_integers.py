"""The square and its lines on the integers of M_2.

``square_from_quintuple`` holds phi_1 as the integer adjugate of M_2,
``line_relation`` classifies line 1 against the standard line 0 with its
quadratics, their gcd, the gcd's roots (``forms._quadratic_root``) and
the planes at those roots on integers, and the ranks read off the shared
identity (block leg 0 and Hom(R, K_0)) are taken once per process.

The reference for the classifier is the general two-line code in
``helpers.reference_line_relation``: matrix products with phi_0 and
phi_0^{-1}, the test copy of ``BinaryForm``, a gcd by Euclid, roots by
the test copy of ``root_structure`` and the plane types, all on the
tests' own field arithmetic (``Fraction``s, ``helpers.Mod`` and
``helpers.Quad``); it imports no classifier from ``ncquad.forms`` or
``ncquad.grassmann``.  Both must write the same certificate bytes, on
seeded tensors and on the orbit representatives of the {0,1} census.
"""

import random
from collections import Counter
from fractions import Fraction

import pytest

from helpers import (
    block_quiver_oracle,
    det_oracle,
    hom_R_K_oracle,
    inverse,
    lift,
    matmul,
    matrix,
    random_invertible_fp,
    random_invertible_qq,
    random_tensor_fp,
    reference_line_relation,
    rows,
)
from ncquad.certify import _line_relation_json, full_pipeline
from ncquad.fields import GF, QQ, PrimeField
from ncquad.fileformat import canonical_json_bytes
from ncquad.grassmann import EmbeddedLine, hom_R_K_dim, line_relation
from ncquad.linalg import Matrix, _identity, _pick
from ncquad.quintuples import SLOT_LABELS, Quintuple, build_type_a
from ncquad.squares import (_LEG_PICKS, GeometricSquare, NotGeneric, block_quiver,
                            square_from_quintuple)
from ncquad.tensors import Tensor
from test_binary_census import _orbits
from test_binary_census import _quintuple as binary_quintuple


def _kronecker(rng, field):
    """w[a, b, c, d] = A[a][c] B[b][d], or A[a][d] B[b][c]: M_2 is a
    Kronecker product up to the order of its columns, so line 1 coincides
    with line 0 under one convention and is the opposite family under the
    other, whenever M_2 is invertible."""
    vals = range(-3, 4) if field is QQ else range(field.characteristic)
    A, B = ([[rng.choice(vals) for _ in range(2)] for _ in range(2)] for _ in range(2))
    swap = rng.random() < 0.5
    return [A[a][d if swap else c] * B[b][c if swap else d]
            for a in range(2) for b in range(2) for c in range(2) for d in range(2)]


def _quintuples(field, seed):
    """Random tensors of mixed density, one in eight a Kronecker tensor."""
    rng = random.Random(seed)
    small = (-2, -1, 1, 2, 3, Fraction(1, 2), Fraction(-3, 4))
    while True:
        density = rng.choice((0.15, 0.25, 0.4, 0.7, 1.0))
        if rng.random() < 0.125:
            entries = _kronecker(rng, field)
        elif field is QQ:
            entries = [rng.choice(small) if rng.random() < density else 0 for _ in range(16)]
        else:
            yield random_tensor_fp(rng, field, density)
            continue
        try:
            yield Quintuple(Tensor(field, (2, 2, 2, 2), entries, SLOT_LABELS))
        except ValueError:    # the zero tensor
            continue


def _kind(lr) -> str:
    if lr.verdict == "meet":
        ext = any(w.extension_disc is not None for w in lr.witnesses)
        return "irreducible-discriminant meet" if ext else "rational meet"
    return f"{lr.verdict}: {lr.flag}" if lr.flag else lr.verdict


def _reference_kinds(field, quintuples, limit) -> Counter:
    """The kind of each line relation of the squares of ``quintuples``
    under both conventions, up to ``limit`` squares (all when None), each
    written with the reference's bytes and equal to it."""
    kinds = Counter()
    p = field.characteristic
    for q in quintuples:
        for convention in ("ruling", "literal"):
            try:
                sq = square_from_quintuple(q, convention)
            except NotGeneric:
                continue
            got = line_relation(sq.line(1))
            reference = reference_line_relation(sq.line(0), sq.line(1))
            assert canonical_json_bytes(_line_relation_json(got, p)) == canonical_json_bytes(
                _line_relation_json(reference, p))
            assert got == reference
            kinds[_kind(got)] += 1
        if limit is not None and sum(kinds.values()) >= limit:
            break
    return kinds


@pytest.mark.parametrize("field", [QQ, GF(5), GF(7)], ids=["QQ", "F5", "F7"])
def test_line_relation_writes_the_reference_bytes(field):
    # seeded tensors, then one representative of each symmetry orbit of the
    # {0,1} tensors; the reference raises on a plane at a gcd root in
    # neither ruling, so the ruling lemma behind line_relation's single
    # column test is checked on both sets
    for kinds in (_reference_kinds(field, _quintuples(field, 1601), 2000),
                  _reference_kinds(field, (binary_quintuple(mask, field) for mask, _ in _orbits()),
                                   None)):
        for kind in ("rational meet", "irreducible-discriminant meet", "coincide",
                     "disjoint: opposite decomposable family",
                     "disjoint: decomposable only at opposite-ruling parameters", "disjoint"):
            assert kinds[kind] >= 1, (kind, kinds)


@pytest.mark.parametrize("field", [QQ, GF(5), GF(10007)], ids=["QQ", "F5", "F10007"])
def test_square_holds_the_adjugate_as_phi1(field):
    rng = random.Random(1602)
    seen = 0
    for q in _quintuples(field, 1602):
        try:
            sq = square_from_quintuple(q, rng.choice(("ruling", "literal")))
        except NotGeneric:
            continue
        m2 = q.contractions[2]
        line0 = sq.line(0)
        assert sq.phi1_inv is m2 and line0.contracted_factor == 0
        assert line0.phi is line0.phi_inv is Matrix.identity(field, 4)
        # phi1 * M_2 = c * I for the nonzero scalar c = det N / d, M_2 = N / d
        n = [m2._num[4 * i:4 * i + 4] for i in range(4)]
        p = field.characteristic
        c = det_oracle(n, p) if p else Fraction(det_oracle(n, 0), m2._den)
        assert c and rows(matmul(sq.phi1, m2)) == tuple(tuple(c * (i == j) for j in range(4))
                                                        for i in range(4))
        assert rows(sq.phi1) == tuple(tuple(c * x for x in r)
                                      for r in lift(field, rows(inverse(m2))))
        seen += 1
        if seen == 150:
            break


def _f2():
    """F_2 as a ``PrimeField`` object, which the public constructor refuses
    (the pipeline needs 2 and 3 invertible); the identity-only ranks are
    taken over it all the same, and may differ from odd characteristic."""
    field = object.__new__(PrimeField)
    field.p = field.characteristic = 2
    return field


@pytest.mark.parametrize("field", [QQ, _f2(), GF(5), GF(10007)], ids=["QQ", "F2", "F5", "F10007"])
def test_identity_ranks_equal_a_fresh_computation_and_the_oracle(field):
    shared = Matrix.identity(field, 4)
    assert Matrix.identity(field, 4) is shared
    fresh = matrix(field, [[int(i == j) for j in range(4)] for i in range(4)])
    assert rows(fresh) == rows(shared) and fresh is not shared
    rng = random.Random(1603)
    for cf in (0, 1):
        kept = EmbeddedLine(shared, shared, cf)
        again = EmbeddedLine(fresh, fresh, cf)
        assert hom_R_K_dim(kept) == hom_R_K_dim(kept) == hom_R_K_dim(again) == hom_R_K_oracle(again)
        for convention in ("ruling", "literal"):
            if field.characteristic == 2:
                phi = matrix(field, [[int(i == j or j == i + 1) for j in range(4)]
                                     for i in range(4)])
            elif field is QQ:
                phi = random_invertible_qq(rng, 4, height=5)
            else:
                phi = random_invertible_fp(rng, field, 4)
            sq = GeometricSquare(phi, inverse(phi), convention)
            bq = block_quiver(sq)
            assert bq.leg_ranks[0] == _pick(fresh, 4, 4, _LEG_PICKS[0]).rank()
            assert (bq.relation_dim, bq.leg_ranks) == block_quiver_oracle(sq)


def test_only_the_square_asks_for_the_public_identity(monkeypatch):
    # line 0 of a square is the shared identity, which line(0) asks of
    # Matrix.identity; block leg 0 and Hom(R, K_0) recognise it through
    # linalg._identity.  Deciding asks for line 1 alone, and rendering
    # asks for line 0 twice: in block_quiver and in ext_table
    calls = []
    original = Matrix.identity.__func__

    def counting(cls, field, n):
        calls.append((field, n))
        return original(cls, field, n)

    monkeypatch.setattr(Matrix, "identity", classmethod(counting))
    for convention in ("ruling", "literal"):
        calls.clear()
        cert = full_pipeline(build_type_a(1, 2, 3), convention)
        assert cert.certified and calls == []
        cert.to_dict()
        assert calls == [(QQ, 4)] * 2
        calls.clear()
        line0 = cert.square.line(0)
        assert calls == [(QQ, 4)]
        assert line0 == EmbeddedLine(_identity(QQ, 4), _identity(QQ, 4), 0)
    assert Matrix.identity(GF(5), 4) is _identity(GF(5), 4)


def test_type_a_squares_certify_through_the_integer_lines():
    # a seeded type-A member's line relation has the reference bytes under
    # both conventions, and the square's phi_1 is integral (denominator 1)
    q = build_type_a(Fraction(2, 3), Fraction(-5, 7), 4)
    for convention in ("ruling", "literal"):
        sq = square_from_quintuple(q, convention)
        assert sq.phi1._den == 1
        assert line_relation(sq.line(1)) == reference_line_relation(sq.line(0), sq.line(1))


def test_references_import_no_classifier_from_the_package():
    # the field-element references of both root classifiers take records
    # and the reshuffle rank from ``ncquad.grassmann``, and from
    # ``ncquad.forms`` only the gcd that ``binary_form_gcd`` hands on
    import ast
    from pathlib import Path

    tree = ast.parse(Path(__file__).with_name("helpers.py").read_text())
    allowed = {"ncquad.grassmann": {"EmbeddedLine", "LineRelation", "MeetWitness", "reshuffle_rank"},
               "ncquad.forms": {"form_gcd"}}
    seen = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module in allowed:
            names = {a.name for a in node.names}
            assert names <= allowed[node.module], (node.module, names)
            seen |= names
    assert {"LineRelation", "form_gcd"} <= seen
