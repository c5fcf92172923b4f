"""Metamorphic property: a change of basis of each V_i changes no decision.

Replacing w by (g_0 x g_1 x g_2 x g_3) w, for invertible 2x2 matrices
g_i, multiplies every contraction matrix M_j on both sides by invertible
Kronecker products, so it keeps every rank and every pure kernel vector.
Geometricity (pass or fail and the kernel dimension of each pair), the
relation dims, whether det <-, w> vanishes and the verdict stage of the
whole pipeline must all be invariant.  Since geometricity reads pair j + 2
off pair j's elimination, this also guards that read-off.
"""

import random

import pytest

from helpers import (
    change_basis,
    random_invertible_fp,
    random_invertible_qq,
    random_tensor_fp,
    random_type_a_triple,
)
from ncquad.certify import full_pipeline
from ncquad.fields import GF, QQ
from ncquad.quintuples import build_type_a, is_geometric, relations
from ncquad.squares import CONVENTIONS, NotGeneric, square_from_quintuple


def _decisions(q) -> tuple:
    pairs = tuple((p.passed, p.kernel_dim) for p in is_geometric(q).pairs)
    try:
        vanishes = not square_from_quintuple(q).contraction_det
    except NotGeneric:
        vanishes = True
    stages = tuple(full_pipeline(q, c).verdict.get("stage", "certified") for c in CONVENTIONS)
    return pairs, relations(q).dims, vanishes, stages


def _inputs(rng, field):
    if field is QQ:
        yield from (random_type_a_triple(rng)[1] for _ in range(15))
        yield build_type_a(0, 1, 1)
    else:
        while True:
            try:
                yield build_type_a(*(rng.randrange(field.p) for _ in range(3)), field=field)
                break
            except ValueError:
                continue
        for k in range(120):
            yield random_tensor_fp(rng, field, (0.15, 0.3, 0.6, 1.0)[k % 4])


@pytest.mark.parametrize("field", [QQ, GF(5), GF(7)], ids=["QQ", "F5", "F7"])
def test_decisions_are_invariant_under_gl2_to_the_fourth(field):
    rng = random.Random(4409 + field.characteristic)
    draw = ((lambda: random_invertible_qq(rng, 2, height=4)) if field is QQ
            else (lambda: random_invertible_fp(rng, field, 2)))
    seen = set()
    for q in _inputs(rng, field):
        base = _decisions(q)
        seen.add(base[3])
        for _ in range(2):
            moved = change_basis(q, [draw() for _ in range(4)])
            assert _decisions(moved) == base
    # the inputs certify, and stop at determinant and at lines as well
    assert {("certified", "certified"), ("determinant", "determinant"),
            ("certified", "lines")} <= seen
