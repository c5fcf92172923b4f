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

The shift by one and the reversal also map the failing-pair set (j to
j - 1, and j to 2 - j), but they are not asserted to keep the verdict:
``det <-, w>`` and the two lines are read off fixed slots, M_0 and M_2,
and the shift by one and the reversal move other contractions there.
On 2,400 seeded sparse tensors over F_5, F_7 and QQ, under both
conventions, the shift by one changed the stage on 401 and the reversal
on 85, each between ``determinant`` or ``lines`` and certified.
"""

import random
from collections import Counter

import pytest

from helpers import (
    contraction_oracle,
    matrix_cols,
    permute_slots,
    random_tensor_fp,
    random_tensor_qq,
    random_type_a_triple,
)
from ncquad.certify import full_pipeline
from ncquad.fields import GF, QQ
from ncquad.grassmann import line_relation
from ncquad.quintuples import build_type_a, is_geometric
from ncquad.squares import CONVENTIONS, NotGeneric, square_from_quintuple

SHIFT_BY_TWO = (2, 3, 0, 1)     # slot k of the image holds slot k + 2
FIELDS = {"QQ": QQ, "F5": GF(5), "F7": GF(7), "F10007": GF(10007)}
DENSITIES = (0.2, 0.3, 0.4, 0.6, 1.0)


def _inputs(rng, field):
    """Seeded sparse tensors at every density, then type-A members."""
    for k in range(600):
        density = DENSITIES[k % len(DENSITIES)]
        yield (random_tensor_qq(rng, density, height=3) if field is QQ
               else random_tensor_fp(rng, field, density))
    made = 0
    while made < 60:
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
