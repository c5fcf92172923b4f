import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import binary_form_gcd, euclid_form_gcd, evaluate, nonresidue_int
from ncquad.fields import GF, QQ
from ncquad.forms import BinaryForm, root_structure


def form(*coeffs, field=QQ):
    return BinaryForm(field, coeffs)


def test_gcd_coprime_squares():
    # s^2 and t^2 share no projective root
    g = binary_form_gcd([form(1, 0, 0), form(0, 0, 1)])
    assert g.degree == 0 and not g.is_zero()


def test_gcd_common_factor_s():
    g = binary_form_gcd([form(0, 1, 0), form(1, 0, 0)])   # st and s^2
    assert g.degree == 1
    assert g.coeffs == (QQ.one, QQ.zero)   # monic s


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
    # both divisible by t^2: f = t^2 s, g = t^3
    f = form(0, 1, 0, 0)          # s^2 t? no: degree 3, coeffs (s^3, s^2 t, s t^2, t^3)
    f = form(0, 0, 1, 0)          # s t^2
    g = form(0, 0, 0, 1)          # t^3
    h = binary_form_gcd([f, g])
    assert h.degree == 2
    assert evaluate(h, 1, 0) == 0


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
    """One to four forms over one field, multiples of a drawn common factor
    (of degree 0 to 2, possibly a power of s or t alone) plus noise; some
    of them zero."""
    name = draw(st.sampled_from(sorted(_FIELDS)))
    field = _FIELDS[name]
    if field is QQ:
        coeff = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9))
    else:
        coeff = st.integers(0, field.p - 1) | st.integers(-3, 3)
    common = draw(st.lists(coeff, min_size=1, max_size=3))
    forms = []
    for _ in range(draw(st.integers(1, 4))):
        cofactor = draw(st.lists(coeff, min_size=1, max_size=3))
        coeffs = _times(common, cofactor)
        if draw(st.booleans()):
            coeffs = [c + draw(coeff) for c in coeffs]
        forms.append(BinaryForm(field, coeffs))
    return forms


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(_form_lists())
def test_gcd_matches_euclid_oracle(forms):
    assert binary_form_gcd(forms) == euclid_form_gcd(forms)


def test_root_structure_split():
    rs = root_structure(form(0, 1, 0))    # st
    assert rs.kind == "split-rational"
    for s, t in rs.roots:
        assert evaluate(form(0, 1, 0), s, t) == 0


def test_root_structure_double():
    rs = root_structure(form(1, 0, 0))    # s^2
    assert rs.kind == "double-rational"
    (s, t), = rs.roots
    assert t == 0 or s / t == 0   # root (0:1)
    assert evaluate(form(1, 0, 0), s, t) == 0


def test_root_structure_irreducible():
    rs = root_structure(form(1, 0, 1))    # s^2 + t^2
    assert rs.kind == "irreducible-quadratic"
    assert rs.discriminant == Fraction(-4)
    ext = rs.extension
    for s, t in rs.roots:
        val = ext.of(1) * s * s + ext.of(1) * t * t
        assert not val


def test_root_structure_rational_roots_evaluate_to_zero():
    rng = random.Random(11)
    for _ in range(40):
        r1 = Fraction(rng.randint(-5, 5), rng.randint(1, 5))
        r2 = Fraction(rng.randint(-5, 5), rng.randint(1, 5))
        # (s - r1 t)(s - r2 t)
        f = form(1, -(r1 + r2), r1 * r2)
        rs = root_structure(f)
        if r1 == r2:
            assert rs.kind == "double-rational"
        else:
            assert rs.kind == "split-rational"
        for s, t in rs.roots:
            assert evaluate(f, s, t) == 0


def test_root_structure_prime_field():
    F = GF(11)
    f = BinaryForm(F, [F.one, F.zero, -F.one])   # s^2 - t^2
    rs = root_structure(f)
    assert rs.kind == "split-rational"
    nr = F.of(nonresidue_int(F.p))
    g = BinaryForm(F, [F.one, F.zero, -nr])      # s^2 - nr t^2
    rs = root_structure(g)
    assert rs.kind == "irreducible-quadratic"
    ext = rs.extension
    for s, t in rs.roots:
        assert not (s * s - ext.of(nr) * t * t)


def test_root_structure_rejects_bad_input():
    with pytest.raises(ValueError):
        root_structure(form(1, 0))
    with pytest.raises(ValueError):
        root_structure(form(0, 0, 0))


def test_degenerate_leading_coefficient():
    rs = root_structure(form(0, 1, 2))    # t(s + 2t)
    assert rs.kind == "split-rational"
    roots = set()
    for s, t in rs.roots:
        assert evaluate(form(0, 1, 2), s, t) == 0
        roots.add((s, t))
    assert len(roots) == 2
