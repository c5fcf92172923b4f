"""Exact scalars: arbitrary-precision rationals and odd prime fields.

Every decision runs on integers (numerators, or residues mod p), so a
scalar is the plain value it is decided on: a ``Fraction`` over QQ, an
``int`` residue in [0, p) over F_p, and an ``(x, y)`` pair of those for
x + y theta in F[theta]/(theta^2 - d), d a base-field value kept beside
it.  ``QQ`` and each ``PrimeField`` expose only ``of``, the coercion from
ints, ``Fraction``s and strings.  Questions about the algebraic closure
are never answered numerically: they are reduced to square roots on
integers (``_sqrt_mod_p``, or ``math.isqrt``).  ``_field_str`` is how
schema/1 spells a base-field value in text, such as ``"2 (mod 5)"``.
"""

from __future__ import annotations

from fractions import Fraction

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# the least strong pseudoprime to every base above (Sorenson and Webster,
# Strong pseudoprimes to twelve prime bases, Math. Comp. 86 (2017))
_MR_BOUND = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for n < _MR_BOUND (about 3.3e24);
    n >= _MR_BOUND raises ValueError rather than be guessed."""
    if n < 2:
        return False
    if n >= _MR_BOUND:
        raise ValueError(f"primality is decided only below {_MR_BOUND}, not for {n}")
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _sqrt_mod_p(a: int, p: int) -> int | None:
    """A square root of a mod p, or None when a is a non-residue."""
    a %= p
    if a == 0:
        return 0
    if pow(a, (p - 1) // 2, p) != 1:
        return None
    if p % 4 == 3:
        return pow(a, (p + 1) // 4, p)
    # Tonelli-Shanks
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    m, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c, t, r = i, b * b % p, t * b * b % p, r * b % p
    return r


def _exact_str(x) -> str:
    """``str(x)`` of an int or a ``Fraction``, also past the
    interpreter's int-to-decimal limit (4300 digits since CPython 3.10.7)."""
    try:
        return str(x)
    except ValueError:
        if isinstance(x, Fraction) and x.denominator != 1:
            return f"{_decimal(x.numerator)}/{_decimal(x.denominator)}"
        return _decimal(int(x))


def _decimal(n: int) -> str:
    """The digits of n in pieces of at most 600, below any limit CPython allows (640+)."""
    if n < 0:
        return "-" + _decimal(-n)
    half = n.bit_length() * 30103 // 200000     # log10(2) < 0.30103
    if half < 300:
        return str(n)
    high, low = divmod(n, 10 ** half)
    return _decimal(high) + _decimal(low).zfill(half)


def _field_str(x, p: int) -> str:
    """A base-field value as schema/1 spells it outside the JSON scalars:
    ``_exact_str(x)`` over QQ (p = 0), the residue and its modulus,
    ``"2 (mod 5)"``, over F_p."""
    return f"{_exact_str(x)} (mod {p})" if p else _exact_str(x)


class RationalField:
    """The rationals, with elements stored as ``fractions.Fraction``.

    Fraction keeps values in lowest terms with positive denominator, which
    is exactly the normal form required here.
    """

    characteristic = 0

    def of(self, x) -> Fraction:
        if isinstance(x, Fraction):
            return x
        if isinstance(x, int):
            return Fraction(x)
        if isinstance(x, str):
            return Fraction(x)
        raise TypeError(f"cannot coerce {x!r} into QQ")

    def __eq__(self, other) -> bool:
        return isinstance(other, RationalField)

    def __hash__(self) -> int:
        return hash("QQ")

    def __repr__(self) -> str:
        return "QQ"


QQ = RationalField()


class PrimeField:
    """F_p for an odd prime p >= 5, with elements stored as ``int``
    residues in [0, p).

    Characteristics 2 and 3 are rejected: the discriminant logic used for
    closure decisions needs 2 and 3 invertible.
    """

    def __init__(self, p: int):
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        if p < 5:
            raise ValueError("prime fields are restricted to p >= 5")
        self.p = p
        self.characteristic = p

    def of(self, x) -> int:
        if isinstance(x, int):
            return x % self.p
        if isinstance(x, (Fraction, str)):
            f = Fraction(x)
            if f.denominator % self.p == 0:
                # not f itself: its digits may pass the int-to-decimal limit
                raise ZeroDivisionError(f"the denominator vanishes mod {self.p}")
            return f.numerator * pow(f.denominator, self.p - 2, self.p) % self.p
        raise TypeError(f"cannot coerce {x!r} into F_{self.p}")

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("Fp", self.p))

    def __repr__(self) -> str:
        return f"GF({self.p})"


def GF(p: int) -> PrimeField:
    return PrimeField(p)
