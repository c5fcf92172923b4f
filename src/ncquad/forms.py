"""Binary forms (homogeneous polynomials in two variables s, t) and the
exact decision procedures built on them: gcd over the ground field and
root classification of quadratics over the algebraic closure.

Coefficients are stored by descending s-power: a form of degree d is
sum(coeffs[i] * s^(d-i) * t^i).  A common projective root over the
closure exists iff the gcd has positive degree, so "no common root" is
witnessed by a degree-0 gcd, never by numerics.  ``form_gcd`` takes and
returns integer coefficients, residues mod p or integers for QQ, so the
decision builds no field element; ``_monic`` makes a ``BinaryForm`` of a
gcd whose roots are needed.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .fields import QuadraticExtension
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


# -- gcd on integer coefficients ------------------------------------------


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


def form_gcd(forms, p: int) -> list:
    """A gcd, up to a unit, of a non-empty list of nonzero binary forms
    given, and returned, by integer coefficients of descending s-power:
    residues mod p, or for QQ (``p == 0``) any integer multiple of each
    form.  One coefficient (degree 0) means no common projective root.

    Each form is s^a t^b times a core with nonzero ends; the gcd of the
    cores dehomogenized at t = 1 (``_poly_gcd``) gets back the least
    powers of s and t."""
    s_mult = t_mult = None
    polys = []
    for f in forms:
        idx = [i for i, c in enumerate(f) if c]
        hi, lo = idx[-1], idx[0]
        sm, tm = len(f) - 1 - hi, lo
        s_mult = sm if s_mult is None else min(s_mult, sm)
        t_mult = tm if t_mult is None else min(t_mult, tm)
        polys.append(list(f[lo:hi + 1][::-1]))   # ascending powers of s
    g = polys[0]
    for q in polys[1:]:
        g = _poly_gcd(g, q, p)
        if len(g) == 1:
            break
    du = len(g) - 1
    total = du + s_mult + t_mult
    coeffs = [0] * (total + 1)
    for k, c in enumerate(g):
        # term c * s^(k + s_mult) * t^(du - k + t_mult)
        coeffs[total - (k + s_mult)] = c
    return coeffs


def _monic(field, coeffs) -> BinaryForm:
    """The form over QQ or F_p whose integer coefficients (residues mod p)
    are ``coeffs``, divided by its first nonzero coefficient."""
    lead = next(c for c in coeffs if c)
    p = field.characteristic
    if p:
        inv = pow(lead, -1, p)
        return BinaryForm(field, [c * inv % p for c in coeffs])
    return BinaryForm(field, [Fraction(c, lead) for c in coeffs])


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
