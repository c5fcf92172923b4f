import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    BinaryForm,
    binary_form_gcd,
    euclid_form_gcd,
    evaluate,
    nonresidue_int,
    root_structure,
)
from ncquad.fields import GF, QQ
from ncquad.forms import _quadratic_root


def form(*coeffs, field=QQ):
    return BinaryForm(field, coeffs)


def test_gcd_coprime_squares():
    # s^2 and t^2 share no projective root
    g = binary_form_gcd([form(1, 0, 0), form(0, 0, 1)])
    assert g.degree == 0 and not g.is_zero()


def test_gcd_common_factor_s():
    g = binary_form_gcd([form(0, 1, 0), form(1, 0, 0)])   # st and s^2
    assert g.degree == 1
    assert g.coeffs == (QQ.of(1), QQ.of(0))   # monic s


def test_gcd_of_multiples():
    f = form(1, -3, 2)            # (s - t)(s - 2t)
    g = form(1, -1, 0)            # s(s - t)
    h = binary_form_gcd([f, g])
    assert h.degree == 1
    assert evaluate(h, 1, 1) == 0  # root (1:1) from the common factor s - t


def test_gcd_all_zero_flagged():
    z = BinaryForm(QQ, [0])
    g = binary_form_gcd([z, BinaryForm(QQ, [0, 0, 0])])
    assert g.is_zero()


def test_gcd_respects_t_powers():
    # st and t^2 share t, the root (1:0); s^2 and st share s, the root (0:1)
    for field in _FIELDS.values():
        def f(*coeffs):
            return form(*coeffs, field=field)
        assert binary_form_gcd([f(0, 1, 0), f(0, 0, 1)]) == f(0, 1)
        assert binary_form_gcd([f(1, 0, 0), f(0, 1, 0)]) == f(1, 0)


def _times(f, g):
    """Product of two coefficient lists in descending s-powers."""
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += a * b
    return out


_FIELDS = {"QQ": QQ, "F_5": GF(5), "F_10007": GF(10007)}


@st.composite
def _form_lists(draw):
    """One to three quadratics over one field, each a drawn common factor
    of degree 0 to 2 (possibly a power of s or t alone) times a cofactor
    of the complementary degree, plus optional noise; some of them zero."""
    name = draw(st.sampled_from(sorted(_FIELDS)))
    field = _FIELDS[name]
    if field is QQ:
        coeff = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9))
    else:
        coeff = st.integers(0, field.p - 1) | st.integers(-3, 3)
    degree = draw(st.integers(0, 2))
    common = draw(st.lists(coeff, min_size=degree + 1, max_size=degree + 1))
    forms = []
    for _ in range(draw(st.integers(1, 3))):
        cofactor = draw(st.lists(coeff, min_size=3 - degree, max_size=3 - degree))
        coeffs = _times(common, cofactor)
        if draw(st.booleans()):
            coeffs = [c + draw(coeff) for c in coeffs]
        forms.append(BinaryForm(field, coeffs))
    return forms


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(_form_lists())
def test_gcd_matches_euclid_oracle(forms):
    assert binary_form_gcd(forms) == euclid_form_gcd(forms)


# -- one case per branch of ``form_gcd``: every form proportional to the
# first; a pencil f, g with n = f x g, and a third form h -----------------


_BRANCHES = {
    # (s - t)(s - 2t) three times, the first not primitive over Z
    "proportional": ([(2, -6, 4), (1, -3, 2), (-3, 9, -6)], (1, -3, 2)),
    # (s - t)(s - 2t) and s(s - t) share s - t, at the root (1 : 1)
    "pencil with a root": ([(1, -3, 2), (1, -1, 0)], (1, -1)),
    # s(s + t) and s(2s - t) share s, at the root (0 : 1), where n0 = 0
    "pencil with the root (0 : 1)": ([(1, 1, 0), (2, -1, 0)], (1, 0)),
    # s^2 and t^2 share no root
    "pencil without a root": ([(1, 0, 0), (0, 0, 1)], (1,)),
    # s^2 and st share s, but t^2 is independent of both
    "three independent forms": ([(1, 0, 0), (0, 1, 0), (0, 0, 1)], (1,)),
    # the second form is twice the first, the third is s(s - t)
    "proportional second, independent third": ([(1, -3, 2), (2, -6, 4), (1, -1, 0)], (1, -1)),
}


@pytest.mark.parametrize("name", ["QQ", "F_5", "F_10007"])
@pytest.mark.parametrize("case", sorted(_BRANCHES))
def test_gcd_branches(case, name):
    field = _FIELDS[name]
    coeffs, want = _BRANCHES[case]
    forms = [form(*c, field=field) for c in coeffs]
    assert binary_form_gcd(forms) == euclid_form_gcd(forms) == form(*want, field=field)


# -- the root structure of a quadratic: the integer classifier
# ``_quadratic_root``, and the field-element oracle in ``helpers`` --------


def _vanishes(a, b, c, x, y, p=0):
    value = a * x * x + b * x * y + c * y * y
    return not (value % p if p else value)


def test_root_structure_split():
    # st = 0 has the roots (1:0) and (0:1); its discriminant is 1
    assert _quadratic_root(0, 1, 0, 0) == 1
    assert _quadratic_root(0, 1, 0, 7) in (1, 6)


def test_root_structure_double():
    # s^2: discriminant 0, the double root (-b : 2a) = (0 : 2)
    for p in (0, 5, 11):
        assert _quadratic_root(1, 0, 0, p) == 0
        assert _vanishes(1, 0, 0, 0, 2, p)


def test_root_structure_irreducible():
    # s^2 + t^2: -4 is no square in QQ or mod 7, and 1 = 2^2 mod 5
    assert _quadratic_root(1, 0, 1, 0) is None
    assert _quadratic_root(1, 0, 1, 7) is None
    r = _quadratic_root(1, 0, 1, 5)
    assert r is not None and r * r % 5 == 1


def test_root_structure_rational_roots_evaluate_to_zero():
    rng = random.Random(11)
    for _ in range(40):
        n1, d1, n2, d2 = (rng.randint(-5, 5), rng.randint(1, 5), rng.randint(-5, 5), rng.randint(1, 5))
        # (d1 s - n1 t)(d2 s - n2 t), roots n1/d1 and n2/d2
        a, b, c = d1 * d2, -(d1 * n2 + d2 * n1), n1 * n2
        r = _quadratic_root(a, b, c, 0)
        assert r is not None and r >= 0
        assert (r == 0) == (Fraction(n1, d1) == Fraction(n2, d2))
        for x in (-b + r, -b - r):
            assert _vanishes(a, b, c, x, 2 * a)


def test_root_structure_prime_field():
    p = 11
    r = _quadratic_root(1, 0, -1, p)      # s^2 - t^2
    assert r is not None and r * r % p == 4
    assert _quadratic_root(1, 0, -nonresidue_int(p), p) is None   # s^2 - nr t^2


def test_root_structure_rejects_bad_input():
    with pytest.raises(ValueError):
        root_structure(form(1, 0))
    with pytest.raises(ValueError):
        root_structure(form(0, 0, 0))


def test_degenerate_leading_coefficient():
    # t(s + 2t): the discriminant is 1 and b s + c t supplies the second root
    assert _quadratic_root(0, 1, 2, 0) == 1
    assert _vanishes(0, 1, 2, 1, 0) and _vanishes(0, 1, 2, 2, -1)


@pytest.mark.parametrize("p", [0, 5, 7, 10007])
def test_quadratic_root_matches_the_field_element_oracle(p):
    # the kind, and the rational roots in their order, of ``root_structure``
    # on field elements: the integer root r gives (-b + r : 2a), (-b - r : 2a)
    field = GF(p) if p else QQ
    rng = random.Random(1901 + p)
    kinds = set()
    for _ in range(600):
        a, b, c = (rng.randint(-6, 6) if rng.random() < 0.8 else 0 for _ in range(3))
        if p:
            a, b, c = a % p, b % p, c % p
        if not (a or b or c):
            continue
        kind, _, roots = root_structure(form(a, b, c, field=field))
        kinds.add(kind)
        r = _quadratic_root(a, b, c, p)
        assert kind == ("irreducible-quadratic" if r is None
                        else "double-rational" if r == 0 else "split-rational")
        if r is not None and a:
            want = [(field.of(-b + r), field.of(2 * a)), (field.of(-b - r), field.of(2 * a))]
            assert list(roots) == want[:len(roots)]
    assert kinds == {"irreducible-quadratic", "double-rational", "split-rational"}
