"""Type-A in closed form: which members of the (a : b : c) family fail, and why.

The family is the type-A cubic AS-regular algebras of Artin and Schelter,
Graded algebras of global dimension 3 (Adv. Math. 66, 1987), and of Artin,
Tate and Van den Bergh, Some algebras associated to automorphisms of
elliptic curves (1990).  Take w = ``build_type_a(a, b, c)`` with (a : b : c)
off the excluded locus S = {a^2 = b^2 = c^2} u {(0:0:1), (0:1:0)}, over QQ
or F_p with p >= 5.  Then:

* geometricity passes (measured here, not argued);
* det <-, w> = det M_0 = (a^2 - b^2)(a^2 - c^2), so the determinant stage
  fails exactly where that vanishes;
* under ``literal``, with det != 0, the lines stage fails exactly when
  a(b^2 - c^2) = 0;
* otherwise the input certifies; under ``ruling`` nothing fails past the
  determinant.

``closed_form`` evaluates these polynomials on ``helpers.Mod`` residues or
on ``Fraction``s and imports nothing from ncquad.  It is compared with
``full_pipeline`` on every point of P^2(F_p) for the primes 5 to 53 and
101, and on every primitive QQ point of height at most 3.  Over P^2(F_p)
it gives the census as formulas in p, which must equal the histograms
pinned in ``test_typea_census``; on the draws ``ncquad sweep`` makes it
gives the counts pinned in ``tests/data/sweep-300-seed0-*.txt``.
"""

import json
import random
from collections import Counter
from fractions import Fraction
from itertools import product
from math import gcd
from pathlib import Path

import pytest

from helpers import Mod
from ncquad.certify import full_pipeline
from ncquad.fields import GF, QQ
from ncquad.quintuples import build_type_a
from test_typea_census import HISTOGRAMS

CONVENTIONS = ("ruling", "literal")
PRIMES = (5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 101)
DATA = Path(__file__).with_name("data")


def closed_form(a, b, c, convention) -> str:
    """The stage the claim gives (a : b : c), on Mods or on Fractions."""
    if (not (a or b or c) or a * a == b * b == c * c
            or (not a and not b) or (not a and not c)):
        return "excluded"
    if (a * a - b * b) * (a * a - c * c) == 0:
        return "determinant"
    if convention == "literal" and a * (b * b - c * c) == 0:
        return "lines"
    return "certified"


def census_formulas(p) -> dict:
    """convention -> stage -> number of points of P^2(F_p), as polynomials in p."""
    return {"ruling": {"certified": p * p - 3 * p + 3, "determinant": 4 * (p - 2),
                       "excluded": 6},
            "literal": {"certified": (p - 3) ** 2, "determinant": 4 * (p - 2),
                        "lines": 3 * (p - 2), "excluded": 6}}


def _points(p):
    """The p^2 + p + 1 points of P^2(F_p), first nonzero coordinate 1."""
    return ([(1, b, c) for b, c in product(range(p), repeat=2)]
            + [(0, 1, c) for c in range(p)] + [(0, 0, 1)])


def _pipeline_stage(point, field, convention) -> str:
    try:
        q = build_type_a(*point, field)
    except ValueError:
        return "excluded"
    return full_pipeline(q, convention).stage or "certified"


def _closed_census(p) -> dict:
    counts = {convention: Counter() for convention in CONVENTIONS}
    for point in _points(p):
        a, b, c = (Mod(x, p) for x in point)
        for convention in CONVENTIONS:
            counts[convention][closed_form(a, b, c, convention)] += 1
    return {convention: dict(counter) for convention, counter in counts.items()}


@pytest.mark.parametrize("p", PRIMES)
def test_the_closed_form_is_the_pipeline_on_every_point_of_the_plane(p):
    field = GF(p)
    mismatches = []
    for point in _points(p):
        a, b, c = (Mod(x, p) for x in point)
        for convention in CONVENTIONS:
            want = closed_form(a, b, c, convention)
            got = _pipeline_stage(point, field, convention)
            if got != want:
                mismatches.append((point, convention, got, want))
    assert mismatches == []


def test_the_closed_form_is_the_pipeline_on_small_qq_points():
    seen = set()
    for point in product(range(-3, 4), repeat=3):
        lead = next((x for x in point if x), 0)
        if lead <= 0 or gcd(*point) != 1:
            continue        # the zero vector, or not the primitive positive representative
        a, b, c = map(Fraction, point)
        for convention in CONVENTIONS:
            want = closed_form(a, b, c, convention)
            assert _pipeline_stage(point, QQ, convention) == want, (point, convention)
            seen.add((convention, want))
    assert seen == {(convention, stage) for convention in CONVENTIONS
                    for stage in census_formulas(5)[convention]}


@pytest.mark.parametrize("p", PRIMES)
def test_the_census_is_the_formulas_in_p(p):
    assert _closed_census(p) == census_formulas(p)


@pytest.mark.parametrize("p", sorted(HISTOGRAMS))
def test_the_formulas_are_the_pinned_census_histograms(p):
    assert census_formulas(p) == HISTOGRAMS[p]


@pytest.mark.parametrize("convention", CONVENTIONS)
def test_the_closed_form_gives_the_pinned_sweep_counts(convention):
    # the draws of ``ncquad sweep --samples 300 --seed 0``, at its default height 20
    pinned = json.loads((DATA / f"sweep-300-seed0-{convention}.txt").read_text())
    rng = random.Random(pinned["seed"])
    h = pinned["height"]
    counts = Counter()
    for _ in range(pinned["samples"]):
        a, b, c = (Fraction(rng.randint(-h, h), rng.randint(1, h)) for _ in range(3))
        counts[closed_form(a, b, c, convention)] += 1
    assert dict(counts) == pinned["counts"]
