"""Binary forms (homogeneous polynomials in two variables s, t) and the
exact decision procedures built on them: gcd over the ground field and
root classification of quadratics over the algebraic closure.

Coefficients are stored by descending s-power: a form of degree d is
sum(coeffs[i] * s^(d-i) * t^i).  A common projective root over the
closure exists iff the gcd has positive degree, so "no common root" is
witnessed by a degree-0 gcd, never by numerics.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .fields import PrimeField, QuadraticExtension, RationalField
from .records import Record


class BinaryForm:
    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs):
        self.field = field
        self.coeffs = tuple(field.of(c) for c in coeffs)
        if not self.coeffs:
            raise ValueError("a form needs at least one coefficient")

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return all(not c for c in self.coeffs)

    def __eq__(self, other):
        return (
            isinstance(other, BinaryForm)
            and self.field == other.field
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.field, self.coeffs))

    def __repr__(self) -> str:
        d = self.degree
        terms = []
        for i, c in enumerate(self.coeffs):
            if c:
                terms.append(f"({c})*s^{d - i}*t^{i}")
        return " + ".join(terms) if terms else "0"


# -- univariate helpers (ascending integer coefficient lists) -------------


def _integers(coeffs, p: int) -> list:
    """Integer coefficients of a nonzero form up to a unit: residues mod p,
    or over QQ the numerators on a common denominator, made primitive."""
    if p:
        return [c.value for c in coeffs]
    den = lcm(*(c.denominator for c in coeffs))
    ints = [c.numerator * (den // c.denominator) for c in coeffs]
    content = gcd(*ints)
    return [c // content for c in ints]


def _poly_gcd(a: list, b: list, p: int) -> list:
    """A gcd of two nonzero polynomials with nonzero leading coefficients,
    up to a unit: Euclid on residues mod p, or over Z (``p == 0``) the
    primitive pseudo-remainder sequence, which stays in integers."""
    while b:
        a = list(a)
        lb, db = b[-1], len(b) - 1
        inv = pow(lb, -1, p) if p else 0
        while len(a) > db:
            f, shift = a[-1], len(a) - 1 - db
            if p:
                f = f * inv % p
                for i, c in enumerate(b):
                    a[shift + i] = (a[shift + i] - f * c) % p
            else:
                a = [lb * x for x in a]
                for i, c in enumerate(b):
                    a[shift + i] -= f * c
            a.pop()
            while a and not a[-1]:
                a.pop()
        if a and not p:
            content = gcd(*a)
            a = [x // content for x in a]
        a, b = b, a
    return a


def binary_form_gcd(forms: list[BinaryForm]) -> BinaryForm:
    """Monic gcd of a non-empty list of binary forms over QQ or F_p.

    Degree 0 means no common projective root over the algebraic closure.
    If every input is identically zero, the zero form (degree 0, zero
    coefficient) is returned; callers treat that as "identically
    dependent".  The gcd is taken on integers (see ``_poly_gcd``); field
    elements are built only for the monic result.
    """
    if not forms:
        raise ValueError("empty form list")
    field = forms[0].field
    if not isinstance(field, (RationalField, PrimeField)):
        raise ValueError("binary_form_gcd expects forms over QQ or a prime field")
    for f in forms:
        if f.field != field:
            raise ValueError("forms over different fields")
    nonzero = [f for f in forms if not f.is_zero()]
    if not nonzero:
        return BinaryForm(field, [field.zero])

    p = field.p if isinstance(field, PrimeField) else 0
    s_mult = None
    t_mult = None
    polys = []
    for f in nonzero:
        d = f.degree
        idx = [i for i, c in enumerate(f.coeffs) if c]
        hi, lo = max(idx), min(idx)
        # f = s^(d-hi) * t^lo * core, core has nonzero ends
        sm, tm = d - hi, lo
        s_mult = sm if s_mult is None else min(s_mult, sm)
        t_mult = tm if t_mult is None else min(t_mult, tm)
        # dehomogenize at t=1: ascending powers of s
        polys.append(_integers(f.coeffs[lo:hi + 1][::-1], p))
    g = polys[0]
    for q in polys[1:]:
        g = _poly_gcd(g, q, p)
        if len(g) == 1:
            break
    lead = g[-1]
    if p:
        inv = pow(lead, -1, p)
        g = [c * inv % p for c in g]
    else:
        g = [Fraction(c, lead) for c in g]
    du = len(g) - 1
    total = du + s_mult + t_mult
    coeffs = [0] * (total + 1)
    for k, c in enumerate(g):
        # term c * s^(k + s_mult) * t^(du - k + t_mult)
        coeffs[total - (k + s_mult)] = c
    return BinaryForm(field, coeffs)


class RootStructure(Record):
    """Classification of a nonzero binary quadratic over the closure.

    kind is one of "split-rational" (two distinct roots in the ground
    field), "double-rational", or "irreducible-quadratic"; roots are
    projective pairs (s, t), living in QuadraticExtension(field, disc)
    in the irreducible case.
    """

    kind: str
    discriminant: object
    roots: tuple
    extension: object = None


def root_structure(f: BinaryForm) -> RootStructure:
    if f.degree != 2:
        raise ValueError("root_structure expects a quadratic")
    if f.is_zero():
        raise ValueError("root_structure of the zero form")
    field = f.field
    a, b, c = f.coeffs  # a*s^2 + b*s*t + c*t^2
    disc = b * b - 4 * a * c
    if not disc:
        if a:
            root = (-b, 2 * a)
        elif b:
            # disc = b^2 = 0 contradicts b != 0
            raise AssertionError("unreachable")
        else:
            root = (field.one, field.zero)  # c*t^2
        return RootStructure("double-rational", disc, (root,))
    if field.is_square(disc):
        if a:
            r = field.sqrt(disc)
            roots = ((-b + r, 2 * a), (-b - r, 2 * a))
        else:
            # t * (b*s + c*t): roots (1:0) and (c:-b), distinct since b != 0
            roots = ((field.one, field.zero), (c, -b))
        return RootStructure("split-rational", disc, roots)
    ext = QuadraticExtension(field, disc)
    th = ext.theta
    roots = ((ext.of(-b) + th, ext.of(2 * a)), (ext.of(-b) - th, ext.of(2 * a)))
    return RootStructure("irreducible-quadratic", disc, roots, extension=ext)
