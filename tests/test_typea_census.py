"""Type-A census: every point of P^2(F_p) for p = 5, 7 and 11, certified
under both conventions, with its stage histogram pinned.

A point (a : b : c) is written by its representative whose first nonzero
coordinate is 1.  The excluded locus S = {a^2 = b^2 = c^2} u {(0:0:1),
(0:1:0)} is decided here on ``helpers.Mod`` residues, apart from
``build_type_a``.  Each QQ point of height at most 3 reduced mod a prime
outside the bad set of claim (b) (``test_reduction_mod_p``) must land on
its census stage, the stage it has over QQ.
"""

from collections import Counter, defaultdict
from functools import cache
from itertools import product
from math import gcd

import pytest

from helpers import Mod, tensor_entries
from ncquad.certify import full_pipeline
from ncquad.fields import GF, QQ
from ncquad.quintuples import build_type_a
from test_reduction_mod_p import _geometricity_bad, _line_forms_bad

PRIMES = (5, 7, 11)

# p -> convention -> stage -> number of points
HISTOGRAMS = {
    5: {"ruling": {"certified": 13, "determinant": 12, "excluded": 6},
        "literal": {"certified": 4, "determinant": 12, "lines": 9, "excluded": 6}},
    7: {"ruling": {"certified": 31, "determinant": 20, "excluded": 6},
        "literal": {"certified": 16, "determinant": 20, "lines": 15, "excluded": 6}},
    11: {"ruling": {"certified": 91, "determinant": 36, "excluded": 6},
         "literal": {"certified": 64, "determinant": 36, "lines": 27, "excluded": 6}},
}


def _points(p):
    """The p^2 + p + 1 points of P^2(F_p), first nonzero coordinate 1."""
    return ([(1, b, c) for b, c in product(range(p), repeat=2)]
            + [(0, 1, c) for c in range(p)] + [(0, 0, 1)])


def _normal(point, p):
    """The representative of ``point`` mod p whose first nonzero coordinate is 1."""
    lead = next(x for x in point if x % p)
    return tuple(x * pow(lead, -1, p) % p for x in point)


def _stage(q, convention) -> str:
    return full_pipeline(q, convention).stage or "certified"


@cache
def census(p) -> dict:
    """point -> convention -> stage, "excluded" where ``build_type_a``
    refuses the point; computed once per prime."""
    census = {}
    for point in _points(p):
        try:
            q = build_type_a(*point, GF(p))
        except ValueError:
            census[point] = dict.fromkeys(HISTOGRAMS[p], "excluded")
            continue
        census[point] = {convention: _stage(q, convention) for convention in HISTOGRAMS[p]}
    return census


@pytest.mark.parametrize("p", PRIMES)
def test_every_point_of_the_plane_is_certified_and_the_histogram_pinned(p):
    got = census(p)
    assert len(got) == p * p + p + 1
    for convention, histogram in HISTOGRAMS[p].items():
        assert Counter(stages[convention] for stages in got.values()) == histogram


@pytest.mark.parametrize("p", PRIMES)
def test_the_excluded_points_are_the_four_conditions_on_residues(p):
    for point, stages in census(p).items():
        a, b, c = (Mod(x, p) for x in point)
        excluded = (not (a or b or c) or a * a == b * b == c * c
                    or (not a and not b) or (not a and not c))
        assert (stages["ruling"] == "excluded") == excluded, point
        assert (stages["literal"] == "excluded") == excluded, point


def test_good_reductions_of_small_qq_points_land_on_their_census_stage():
    reduced = defaultdict(set)
    for point in product(range(-3, 4), repeat=3):
        lead = next((x for x in point if x), 0)
        if lead <= 0 or gcd(*point) != 1:
            continue        # the zero vector, or not the primitive positive representative
        try:
            q = build_type_a(*point, QQ)
        except ValueError:
            continue
        ints = [int(x) for x in tensor_entries(q.w)]
        geometricity_bad = _geometricity_bad(ints)
        for convention in ("ruling", "literal"):
            stage = _stage(q, convention)
            bad = geometricity_bad + _line_forms_bad(ints, convention)
            for p in PRIMES:
                if any(x % p == 0 for _, x in bad):
                    continue
                assert census(p)[_normal(point, p)][convention] == stage, (point, p, convention)
                reduced[p, convention].add(stage)
    # at every prime each stage but "excluded" is reached by a good reduction
    assert reduced == {(p, convention): set(histogram) - {"excluded"}
                       for p in PRIMES for convention, histogram in HISTOGRAMS[p].items()}
