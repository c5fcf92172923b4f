"""Binary forms (homogeneous polynomials in two variables s, t) on
integer coefficients, and the exact decision procedures built on them:
gcd over the ground field and the roots of a quadratic over the
algebraic closure.

Coefficients are stored by descending s-power: a form of degree d is
sum(coeffs[i] * s^(d-i) * t^i).  A common projective root over the
closure exists iff the gcd has positive degree, so "no common root" is
witnessed by a degree-0 gcd, never by numerics.  ``form_gcd`` takes and
returns integer coefficients, residues mod p or integers for QQ, so the
decision builds no field element.  ``_quadratic_root`` is the one root
classifier: geometricity and the line classifier both ask it whether a
quadratic splits over the ground field.
"""

from __future__ import annotations

import math

from .fields import _sqrt_mod_p


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
            content = math.gcd(*a)
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


def _quadratic_root(a: int, b: int, c: int, p: int) -> int | None:
    """The field's square root of the discriminant b^2 - 4ac of the
    quadratic a s^2 + b st + c t^2 on integers (residues mod p): the root
    ``_sqrt_mod_p`` gives, or the nonnegative one on Z.  None when the
    roots lie in a quadratic extension."""
    disc = b * b - 4 * a * c
    if p:
        return _sqrt_mod_p(disc, p)
    if disc < 0:
        return None
    r = math.isqrt(disc)
    return r if r * r == disc else None
