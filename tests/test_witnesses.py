"""Geometricity decides on the integers of the kept echelon, classifies
the roots of det(s v1 + t v2) by ``forms._quadratic_root`` and builds
field elements only for the witness coordinates a certificate prints.

The reference is the field-value path in ``helpers``
(``reference_is_geometric``): the kernel as a ``Matrix``, the 2x2 tests
on ``Fraction``s or the tests' own ``Mod`` residues, the binary
quadratic as the test copy of ``BinaryForm``, classified by the test
copy of ``root_structure``, and an extension witness divided in the
tests' ``Quad`` pairs; it imports no classifier from ``ncquad.forms``
or ``ncquad.grassmann``.  Both must write the same report bytes, and
every witness must kill w.
"""

import random
from collections import Counter
from fractions import Fraction

import pytest

from helpers import (
    BinaryForm,
    col,
    contraction_matrix,
    kernel_basis,
    lift,
    random_tensor_fp,
    reference_is_geometric,
    root_structure,
    verify_witness,
)
from ncquad.certify import _geometricity_json
from ncquad import linalg, quintuples
from ncquad.fields import GF, QQ
from ncquad.fileformat import canonical_json_bytes
from ncquad.quintuples import SLOT_LABELS, Quintuple, build_type_a, is_geometric
from ncquad.tensors import Tensor


_SMALL = (-3, -2, -1, 1, 2, 3, Fraction(1, 2), Fraction(-2, 3))


def _random_qq(rng, density):
    """A nonzero QQ tensor with small entries, each nonzero with
    probability ``density``."""
    while True:
        entries = [rng.choice(_SMALL) if rng.random() < density else 0 for _ in range(16)]
        if any(entries):
            return Quintuple(Tensor(QQ, (2, 2, 2, 2), entries, SLOT_LABELS))


def _inputs(seed):
    """Random F_5, F_7, F_101 and QQ tensors of mixed density: sparse ones
    reach kernels of dimension 2 and more."""
    rng = random.Random(seed)
    densities = (0.1, 0.2, 0.3, 0.5, 0.8, 1.0)
    out = [random_tensor_fp(rng, GF((5, 7, 101)[k % 3]), rng.choice(densities))
           for k in range(2400)]
    return out + [_random_qq(rng, rng.choice(densities)) for _ in range(900)]


def _quadratic_kind(q, j):
    """How det(s v1 + t v2) splits, for the first two reduced kernel
    vectors of M_j, classified on field elements."""
    v1, v2 = (lift(q.field, col(kernel_basis(contraction_matrix(q, j)), k)) for k in (0, 1))
    det1 = v1[0] * v1[3] - v1[1] * v1[2]
    det2 = v2[0] * v2[3] - v2[1] * v2[2]
    polar = v1[0] * v2[3] + v2[0] * v1[3] - v1[1] * v2[2] - v2[1] * v1[2]
    form = BinaryForm(q.field, (det1, polar, det2))
    return "all-singular" if form.is_zero() else root_structure(form)[0]


def test_integer_witnesses_match_the_field_element_reference():
    kinds = Counter()
    for q in _inputs(1511):
        report = is_geometric(q)
        reference = reference_is_geometric(q)
        p = q.field.characteristic
        assert canonical_json_bytes(_geometricity_json(report, p)) == canonical_json_bytes(
            _geometricity_json(reference, p))
        # the same element types too, which ``ncquad check`` prints by repr
        assert repr(report) == repr(reference)
        for pair in report.pairs:
            if pair.witness is not None:
                assert verify_witness(q, pair.j, pair.witness)
            if pair.kernel_dim >= 2:
                kinds[q.field.characteristic, _quadratic_kind(q, pair.j)] += 1
    for kind in ("all-singular", "double-rational", "split-rational", "irreducible-quadratic"):
        assert sum(n for (_, k), n in kinds.items() if k == kind) > 0, kind
    assert {p for p, _ in kinds} == {0, 5, 7, 101}


@pytest.fixture
def fp_elements(monkeypatch):
    """The number of scalars ``linalg._elements``, where every scalar of
    the pipeline is built, has built so far, as a one-item list."""
    count = [0]
    build = linalg._elements

    def counting(field, num, den):
        out = build(field, num, den)
        count[0] += len(out)
        return out

    for module in (linalg, quintuples):
        monkeypatch.setattr(module, "_elements", counting)
    return count


def test_invertible_pairs_build_no_field_element(fp_elements):
    q = build_type_a(1, 2, 3, GF(7))
    fp_elements[0] = 0
    report = is_geometric(q)
    assert [p.kernel_dim for p in report.pairs] == [0, 0, 0, 0]
    assert fp_elements[0] == 0


def test_field_elements_are_built_only_for_printed_witness_coordinates(fp_elements):
    rng = random.Random(2903)
    seen = Counter()
    for k in range(1500):
        q = random_tensor_fp(rng, GF(5) if k % 2 else GF(7), rng.choice((0.1, 0.2, 0.3, 0.5)))
        fp_elements[0] = 0
        report = is_geometric(q)
        failing = [p for p in report.pairs if not p.passed]
        if any(p.witness.extension_disc is not None for p in failing):
            continue
        # phi and chi, two coordinates each, per failing pair
        assert fp_elements[0] == 4 * len(failing)
        for p in report.pairs:
            seen[p.passed, min(p.kernel_dim, 2)] += 1
    assert {(True, 0), (True, 1), (False, 1), (False, 2)} <= set(seen)
