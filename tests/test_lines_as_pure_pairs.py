"""The lines stage is a pure-pair condition, and ``ruling`` never fails it.

``square_from_quintuple`` sets phi1_inv = M_2 : V2* x V3* -> V0 x V1,
which is invertible when det <-, w> != 0.  The planes of the standard
line (line 0) are l x V1 in V0 x V1, for l a line of V0, and the lines
meet or coincide exactly when a plane of line 1 is one of those.

* Under ``ruling``, the planes of line 1 are M_2(V2* x l') for l' a line
  of V3*.  Such a plane is l x V1 iff the functional psi of V0* that
  vanishes on l annihilates it, since both planes have dimension 2.  As
  M_2 is the contraction of w, that holds iff w contracted by psi at
  slot 0 and by l' at slot 3 is zero: a nonzero pure pair at slots
  (3, 0), which pair 3 of geometricity excludes.  So a geometric w with
  det <-, w> != 0 never stops at ``lines`` under ``ruling``.
* Under ``literal``, the planes of line 1 are M_2(l' x V3*) for l' a
  line of V2*, and the same steps give a pure pair at slots (0, 2), which
  geometricity does not test.  So ``lines`` fails exactly when such a
  pair kills w: when pair 0 of w with its slots put in the order
  (V0, V2, V1, V3) fails.

``is_geometric`` decides a pair over the algebraic closure, and a pure
pair at two slots of a 2x2x2x2 tensor over F_p, if there is one, is
defined over F_{p^2} (a kernel line is rational, and a pencil of 2x2
matrices meets the singular ones at the roots of a binary quadratic).
So a scan of both functionals over P^1(F_{p^2}) decides the same pair
with no linear algebra at all.

The tests check both claims on the inputs that are geometric with
det <-, w> != 0 among the golden set, one representative of each
symmetry orbit of the {0,1} tensors over QQ, F_5 and F_7, and seeded
tensors over QQ, F_5, F_7 and F_10007, and check the (0, 2) pure-pair
test against that scan on a few hundred F_5 and F_7 inputs.
"""

import json
import random
from pathlib import Path

import pytest

from helpers import (
    nonresidue_int,
    permute_slots,
    random_tensor_fp,
    random_tensor_qq,
    random_type_a_triple,
    tensor_entries,
)
from ncquad.certify import full_pipeline
from ncquad.corpus import corpus_path
from ncquad.fields import GF, QQ
from ncquad.fileformat import load_quintuple, parse_quintuple_file
from ncquad.quintuples import is_geometric
from test_binary_census import _orbits
from test_binary_census import _quintuple as binary_quintuple

GOLDEN = Path(__file__).with_name("golden.json")
# slots in the order (V0, V2, V1, V3): pair 0 of the result is w's (0, 2)
SLOTS_0213 = (0, 2, 1, 3)


def _lines_fail(q):
    """None when q stops before the lines stage; else whether ``lines``
    fails under ``literal``, once both claims are checked on q."""
    ruling = full_pipeline(q, "ruling")
    if ruling.stage in ("geometricity", "determinant"):
        return None
    assert ruling.certified, q.w
    literal = full_pipeline(q, "literal")
    assert literal.stage in ("lines", ""), q.w
    pair = is_geometric(permute_slots(q, SLOTS_0213)).pairs[0]
    assert (literal.stage == "lines") == (not pair.passed), q.w
    return literal.stage == "lines"


def _check_all(inputs) -> list:
    """The literal lines outcome of each input that reaches the stage."""
    outcomes = [_lines_fail(q) for q in inputs]
    return [x for x in outcomes if x is not None]


def _golden_inputs():
    doc = json.loads(GOLDEN.read_text())
    for name in sorted({entry["name"] for entry in doc["corpus"]}):
        yield load_quintuple(str(corpus_path(name)))[0]
    for entry in doc["seeded"]:
        yield parse_quintuple_file(entry["input"])[0]


def _census_inputs(field):
    return [binary_quintuple(mask, field) for mask, _ in _orbits()]


def _seeded_inputs(field, count, seed):
    """Sparse tensors, where pure pairs are common, and type-A members
    over QQ, which meet the lines stage under ``literal`` too."""
    rng = random.Random(seed)
    for k in range(count):
        density = rng.choice((0.3, 0.4, 0.5, 0.7, 1.0))
        if field.characteristic:
            yield random_tensor_fp(rng, field, density)
        elif k % 4:
            yield random_tensor_qq(rng, density, height=3)
        else:
            yield random_type_a_triple(rng)[1]


def test_golden_inputs():
    outcomes = _check_all(_golden_inputs())
    assert len(outcomes) >= 20 and True in outcomes and False in outcomes


@pytest.mark.parametrize("field", [QQ, GF(5), GF(7)], ids=["QQ", "F5", "F7"])
def test_binary_census_representatives(field):
    outcomes = _check_all(_census_inputs(field))
    # the {0,1} tensors stop at the same stage over QQ, F_5 and F_7
    assert (len(outcomes), outcomes.count(True)) == (549, 186)


@pytest.mark.parametrize("p", [0, 5, 7, 10007], ids=["QQ", "F5", "F7", "F10007"])
def test_seeded_tensors(p):
    field = GF(p) if p else QQ
    outcomes = _check_all(_seeded_inputs(field, 1500, 1717 + p))
    assert len(outcomes) >= 200 and True in outcomes and False in outcomes


# -- the (0, 2) pure pair by a scan over P^1(F_{p^2}) ------------------------


def _p1_fp2(p):
    """P^1(F_{p^2}) as pairs of coordinates, a + b theta held as (a, b)."""
    return [((1, 0), (a, b)) for a in range(p) for b in range(p)] + [((0, 0), (1, 0))]


def _pure_pair_scan(q, s, t) -> bool:
    """Whether functionals psi at slot s and chi at slot t, both running
    over P^1(F_{p^2}), theta^2 a non-residue, contract w to zero."""
    p = q.field.characteristic
    nu = nonresidue_int(p)
    w = [int(x) for x in tensor_entries(q.w)]
    rest = [k for k in range(4) if k not in (s, t)]
    # cells[r][i][j]: the entry at index i in slot s, j in slot t and the
    # bits of r in the two other slots
    cells = []
    for r in range(4):
        index = [0] * 4
        index[rest[0]], index[rest[1]] = r >> 1, r & 1
        table = [[0, 0], [0, 0]]
        for i in range(2):
            for j in range(2):
                index[s], index[t] = i, j
                table[i][j] = w[8 * index[0] + 4 * index[1] + 2 * index[2] + index[3]]
        cells.append(table)
    points = _p1_fp2(p)
    for (a0, b0), (a1, b1) in points:
        # u[r][j] = sum_i psi_i w[r][i][j], an element of F_{p^2}
        u = [[(a0 * c[0][j] + a1 * c[1][j], b0 * c[0][j] + b1 * c[1][j]) for j in range(2)]
             for c in cells]
        for (c0, d0), (c1, d1) in points:
            if all((c0 * x0 + nu * d0 * y0 + c1 * x1 + nu * d1 * y1) % p == 0
                   and (c0 * y0 + d0 * x0 + c1 * y1 + d1 * x1) % p == 0
                   for (x0, y0), (x1, y1) in u):
                return True
    return False


def test_the_pure_pair_test_matches_a_scan_over_fp2():
    inputs = []
    for p in (5, 7):
        inputs += _census_inputs(GF(p))[::6]
        inputs += list(_seeded_inputs(GF(p), 200, 31 * p))
    checked = failing = 0
    for q in inputs:
        fails = _lines_fail(q)
        if fails is None:
            continue
        assert _pure_pair_scan(q, 0, 2) == fails, q.w
        # the pair that ``ruling`` would need, which geometricity excludes
        assert not _pure_pair_scan(q, 3, 0), q.w
        checked += 1
        failing += fails
    assert checked >= 300 and 0 < failing < checked
