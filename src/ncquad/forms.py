"""Binary quadratic forms a s^2 + b st + c t^2 on integer coefficients
(a, b, c), and the exact decision procedures built on them: the gcd of
one to three such forms and the roots of one over the algebraic closure.

A common projective root over the closure exists iff the gcd has
positive degree, so "no common root" is witnessed by a degree-0 gcd,
never by numerics.  ``form_gcd`` takes and returns integer coefficients,
residues mod p or integers for QQ, so the decision builds no field
element; it reads the gcd off the coefficient vectors in closed form.
``_quadratic_root`` is the one root classifier: geometricity and the
line classifier both ask it whether a quadratic splits over the ground
field.
"""

from __future__ import annotations

import math

from .fields import _sqrt_mod_p


def form_gcd(forms, p: int) -> list:
    """A gcd, up to a unit, of one to three nonzero binary quadratics
    (a, b, c), residues mod p or for QQ (``p == 0``) any integer multiple
    of each form, returned by descending s-power.  One coefficient (degree
    0) means no common projective root.

    (u : v) is a root of (a, b, c) iff (a, b, c) . (u^2, uv, v^2) = 0.  So
    when every form is a multiple of the first, f, f is the gcd.  Else let
    g be the first form independent of f, and n = f x g != 0: a common
    root of f and g makes (u^2, uv, v^2) orthogonal to both, a multiple
    of n, and a nonzero (n0, n1, n2) is such a point (u^2, uv, v^2) iff
    n0 n2 = n1^2, at (n0 : n1), or at (0 : 1) when n0 = 0.  That single
    root is the gcd n1 s - n0 t, or n2 s.  A third form h lies in the
    pencil of f and g when n . h = 0, and adds no condition; otherwise the
    three span every (a, b, c), and no point is a root of all three."""
    f, *rest = forms
    for i, g in enumerate(rest):
        n = (f[1] * g[2] - f[2] * g[1], f[2] * g[0] - f[0] * g[2], f[0] * g[1] - f[1] * g[0])
        n0, n1, n2 = (x % p for x in n) if p else n
        if n0 or n1 or n2:
            break
    else:
        return list(f)
    tests = [n0 * n2 - n1 * n1] + [n0 * h[0] + n1 * h[1] + n2 * h[2] for h in rest[i + 1:]]
    if any(x % p for x in tests) if p else any(tests):
        return [1]
    return [n1, -n0 % p if p else -n0] if n0 else [n2, 0]


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
