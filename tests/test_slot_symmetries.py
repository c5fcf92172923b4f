"""Metamorphic property: the shift of the slots by two changes no decision.

A quintuple (V0, V1, V2, V3, W) defines a 4-periodic Z-algebra, and
geometricity is a condition on each cyclic pair of slots (j, j + 1).  The
dihedral group of the 4-cycle acts on w by relabeling its slots
(``helpers.permute_slots``, a pick table that shares no code with
``Quintuple.contractions``) and permutes those conditions.  Under the
shift by two, slot k of the image holds slot k + 2 of w, so M_j of the
image is M_{j+2} = M_j^T of w:

- the failing-pair set maps j to j + 2;
- det <-, w> = det M_0 = det M_2 is unchanged, and with it the
  ``determinant`` decision;
- the line 1 of the square, read off M_2, becomes the one read off M_0,
  and the line relation's verdict is unchanged on every geometric input.
  On non-geometric inputs, where the pipeline stops before the lines,
  it is not: in one seeded sample of 2,400 sparse tensors over QQ, F_5,
  F_7 and F_10007, 57 swapped ``disjoint`` and ``meet`` under ``ruling``,
  so it is asserted only where it is decided;
- so the verdict stage is unchanged.

All eight elements map the failing-pair set, and that is asserted for
each: the shift by r (slot k of the image holds slot k + r) maps j to
j - r, and the reflection whose slot k holds slot c - k maps j to
c - 1 - j, so the shift by one maps j to j - 1 and the reversal
(c = 3) maps j to 2 - j.  The witness (phi, chi) of each failing pair
maps with it: a shift keeps slots j and j + 1 in order, so (phi, chi)
annihilates the image at its image pair, and a reflection reverses
them, so (chi, phi) does.  That image is checked by substitution
(``helpers.verify_witness``) on seeded sparse, dense and type-A inputs
and the golden ones, not compared with the witness the pipeline prints
for the image: a kernel of dimension 2 holds more than one.

The shift by one and the reversal are not asserted to keep the verdict:
``det <-, w>`` and the two lines are read off fixed slots, M_0 and M_2,
and the shift by one and the reversal move other contractions there.
On 2,400 seeded sparse tensors over F_5, F_7 and QQ, under both
conventions, the shift by one changed the stage on 401 and the reversal
on 85, each between ``determinant`` or ``lines`` and certified.
"""

import json
import random
from collections import Counter
from pathlib import Path

import pytest

from helpers import (
    contraction_oracle,
    matrix_cols,
    permute_slots,
    random_tensor_fp,
    random_quintuple_fp,
    random_tensor_qq,
    random_type_a_triple,
    verify_witness,
)
from ncquad.certify import full_pipeline
from ncquad.corpus import corpus_path
from ncquad.fields import GF, QQ
from ncquad.fileformat import load_quintuple, parse_quintuple_file
from ncquad.grassmann import line_relation
from ncquad.quintuples import PureWitness, build_type_a, is_geometric
from ncquad.squares import CONVENTIONS, NotGeneric, square_from_quintuple

SHIFT_BY_TWO = (2, 3, 0, 1)     # slot k of the image holds slot k + 2
# the dihedral group of the 4-cycle: each element as (the slot of w that
# slot k of the image holds, the image of pair j), both indexed by k and j
DIHEDRAL = (
    [(tuple((k + r) % 4 for k in range(4)), tuple((j - r) % 4 for j in range(4)))
     for r in range(4)]
    + [(tuple((c - k) % 4 for k in range(4)), tuple((c - 1 - j) % 4 for j in range(4)))
       for c in range(4)])
GOLDEN = Path(__file__).resolve().parent / "golden.json"
FIELDS = {"QQ": QQ, "F5": GF(5), "F7": GF(7), "F10007": GF(10007)}
DENSITIES = (0.2, 0.3, 0.4, 0.6, 1.0)


def _inputs(rng, field, sparse=600, dense=0, type_a=60):
    """Seeded sparse tensors at every density, then dense tensors, then
    type-A members."""
    for k in range(sparse):
        density = DENSITIES[k % len(DENSITIES)]
        yield (random_tensor_qq(rng, density, height=3) if field is QQ
               else random_tensor_fp(rng, field, density))
    for _ in range(dense):
        yield random_tensor_qq(rng, 1.0) if field is QQ else random_quintuple_fp(rng, field)
    made = 0
    while made < type_a:
        if field is QQ:
            yield random_type_a_triple(rng)[1]
            made += 1
            continue
        try:
            yield build_type_a(*(rng.randrange(field.p) for _ in range(3)), field=field)
            made += 1
        except ValueError:
            continue


def _decisions(q, convention) -> tuple:
    """The verdict stage, det <-, w> (None when it vanishes) and, on a
    geometric input with det != 0, the line relation's verdict."""
    stage = full_pipeline(q, convention).stage
    try:
        square = square_from_quintuple(q, convention)
    except NotGeneric:
        return stage, None, None
    lines = line_relation(square.line(1)).verdict if is_geometric(q).passed else None
    return stage, square.contraction_det, lines


def test_permute_slots_moves_each_contraction_matrix():
    # the image's M_j is M_{j+2} of w, by the contraction oracle; and the
    # shift by two is an involution
    rng = random.Random(2602)
    for name, field in FIELDS.items():
        for _ in range(10):
            q = (random_tensor_qq(rng, 0.6) if field is QQ
                 else random_tensor_fp(rng, field, 0.6))
            moved = permute_slots(q, SHIFT_BY_TWO)
            for j in range(4):
                assert (matrix_cols(contraction_oracle(moved, j))
                        == matrix_cols(contraction_oracle(q, (j + 2) % 4))), (name, j)
            assert permute_slots(moved, SHIFT_BY_TWO) == q


@pytest.mark.parametrize("name", FIELDS)
def test_shift_by_two_maps_failing_pairs_and_keeps_the_verdict(name):
    field = FIELDS[name]
    rng = random.Random(f"slot-shift-{name}")
    stages = Counter()
    for q in _inputs(rng, field):
        moved = permute_slots(q, SHIFT_BY_TWO)
        failing = is_geometric(q).failing_pairs()
        assert sorted(is_geometric(moved).failing_pairs()) == sorted((j + 2) % 4 for j in failing)
        for convention in CONVENTIONS:
            base = _decisions(q, convention)
            assert _decisions(moved, convention) == base, (name, convention)
            stages[base[0]] += 1
    # every verdict stage is reached, so each assertion above is exercised
    assert set(stages) == {"", "geometricity", "determinant", "lines"}, stages


def _check_dihedral_images(q) -> list:
    """Assert, under all 8 elements, that the failing pairs of q map to
    those of the image and that each witness maps to a witness at the
    image pair, checked by substitution; return q's geometricity report.
    A shift keeps (phi, chi), since slots j and j + 1 of w stay in that
    order, and a reflection swaps them."""
    report = is_geometric(q)
    failing = report.failing_pairs()
    for sigma, image in DIHEDRAL:
        moved = permute_slots(q, sigma)
        assert sorted(is_geometric(moved).failing_pairs()) == sorted(image[j] for j in failing), \
            (sigma, failing)
        reflection = (sigma[1] - sigma[0]) % 4 == 3     # its slots run backwards
        for r in report.pairs:
            if r.passed:
                continue
            w = r.witness
            mapped = PureWitness(w.chi, w.phi, w.extension_disc) if reflection else w
            assert verify_witness(moved, image[r.j], mapped), (sigma, r.j)
    return report


@pytest.mark.parametrize("name", FIELDS)
def test_every_dihedral_element_maps_the_failing_pairs(name):
    # and the witness of each failing pair, on sparse, dense and type-A inputs
    field = FIELDS[name]
    rng = random.Random(f"slot-dihedral-{name}")
    failing_counts, extension = Counter(), 0
    for q in _inputs(rng, field, sparse=300, dense=50, type_a=40):
        report = _check_dihedral_images(q)
        failing_counts[len(report.failing_pairs())] += 1
        extension += any(r.witness is not None and r.witness.extension_disc is not None
                         for r in report.pairs)
    # inputs failing at no pair and at all four, and at some between, are
    # met, and witnesses over a quadratic extension are mapped too
    assert {0, 4} <= set(failing_counts) and len(failing_counts) >= 4, failing_counts
    assert extension, name


def test_every_dihedral_element_maps_the_golden_failing_pairs():
    doc = json.loads(GOLDEN.read_text())
    failing = Counter()
    for entry in doc["corpus"] + doc["seeded"]:
        if "name" in entry:
            q, _ = load_quintuple(str(corpus_path(entry["name"])))
        else:
            q, _ = parse_quintuple_file(entry["input"])
        failing[not _check_dihedral_images(q).passed] += 1
    assert failing[True] and failing[False], failing
