"""Exact scalars: arbitrary-precision rationals, odd prime fields, and
degree-2 extensions of either.

``QQ`` and each ``PrimeField`` expose ``zero``/``one``, ``of`` (coercion
from ints, ``Fraction``, strings and own elements), ``format`` for exact
strings that ``of`` reads back, and ``is_square``.  Every decision runs on
integers (numerators, or residues mod p), so field elements are values
to print: ``Fraction``s over QQ, and ``FpElement``s and ``QuadElement``s
with construction, equality, truth, hashing and repr but no arithmetic.
Questions about the algebraic closure are never answered numerically:
they are reduced to square roots on integers (``_sqrt_mod_p``, or
``math.isqrt``), and a number in a quadratic extension
F[theta]/(theta^2 - d) is printed as a ``QuadElement`` of a
``QuadraticExtension``.
"""

from __future__ import annotations

import math
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
    """``str(x)`` of an int, a ``Fraction`` or a field element, also past the
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

    @property
    def zero(self) -> Fraction:
        return Fraction(0)

    @property
    def one(self) -> Fraction:
        return Fraction(1)

    def format(self, x: Fraction) -> str:
        return _exact_str(x)

    def is_square(self, x: Fraction) -> bool:
        x = self.of(x)
        if x < 0:
            return False
        n, d = x.numerator, x.denominator
        return math.isqrt(n) ** 2 == n and math.isqrt(d) ** 2 == d

    def __eq__(self, other) -> bool:
        return isinstance(other, RationalField)

    def __hash__(self) -> int:
        return hash("QQ")

    def __repr__(self) -> str:
        return "QQ"


QQ = RationalField()


class FpElement:
    """An element of F_p, stored as the canonical representative 0..p-1.
    A print-only value: construction, equality (ints and ``Fraction``s
    coerce), truth, hashing and repr, but no arithmetic."""

    __slots__ = ("value", "field")

    def __init__(self, value: int, field: "PrimeField"):
        self.value = value % field.p
        self.field = field

    def __eq__(self, other):
        if isinstance(other, FpElement):
            if other.field.p != self.field.p:
                raise ValueError("elements of different prime fields")
        elif isinstance(other, (int, Fraction)):
            other = self.field.of(other)
        else:
            return NotImplemented
        return self.value == other.value

    def __bool__(self) -> bool:
        return self.value != 0

    def __hash__(self):
        return hash((self.field.p, self.value))

    def __repr__(self) -> str:
        return f"{_exact_str(self.value)} (mod {self.field.p})"


class PrimeField:
    """F_p for an odd prime p >= 5.

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

    def of(self, x) -> FpElement:
        if isinstance(x, FpElement):
            if x.field.p != self.p:
                raise ValueError("element of a different prime field")
            return x
        if isinstance(x, int):
            return FpElement(x, self)
        if isinstance(x, (Fraction, str)):
            f = Fraction(x)
            if f.denominator % self.p == 0:
                raise ZeroDivisionError(f"denominator of {f} vanishes mod {self.p}")
            return FpElement(f.numerator * pow(f.denominator, self.p - 2, self.p), self)
        raise TypeError(f"cannot coerce {x!r} into F_{self.p}")

    @property
    def zero(self) -> FpElement:
        return FpElement(0, self)

    @property
    def one(self) -> FpElement:
        return FpElement(1, self)

    def format(self, x: FpElement) -> str:
        return str(x.value)

    def is_square(self, x) -> bool:
        x = self.of(x)
        return x.value == 0 or pow(x.value, (self.p - 1) // 2, self.p) == 1

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("Fp", self.p))

    def __repr__(self) -> str:
        return f"GF({self.p})"


def GF(p: int) -> PrimeField:
    return PrimeField(p)


class QuadElement:
    """a + b*theta in a quadratic extension, theta^2 = disc.  A print-only
    value, like ``FpElement``: equality coerces base-field values."""

    __slots__ = ("a", "b", "field")

    def __init__(self, a, b, field: "QuadraticExtension"):
        self.a = a
        self.b = b
        self.field = field

    def __eq__(self, other):
        if isinstance(other, QuadElement):
            if other.field != self.field:
                raise ValueError("elements of different quadratic extensions")
        else:
            try:
                other = self.field.of(other)
            except TypeError:
                return NotImplemented
        return self.a == other.a and self.b == other.b

    def __bool__(self) -> bool:
        return bool(self.a) or bool(self.b)

    def __hash__(self):
        return hash((self.field, self.a, self.b))

    def __repr__(self) -> str:
        return f"({self.a!r}) + ({self.b!r})*theta"


class QuadraticExtension:
    """F[theta]/(theta^2 - disc) for a non-square disc of the base field.

    Towers are capped at total degree 2 over QQ or F_p: extending an
    extension is rejected, since nothing downstream ever needs degree 4.
    """

    def __init__(self, base, disc):
        if isinstance(base, QuadraticExtension):
            raise ValueError("towers of quadratic extensions are not supported")
        disc = base.of(disc)
        if not disc:
            raise ValueError("discriminant must be nonzero")
        if base.is_square(disc):
            raise ValueError("discriminant is a square; extension would not be a field")
        self.base = base
        self.disc = disc
        self.characteristic = base.characteristic

    def of(self, x) -> QuadElement:
        if isinstance(x, QuadElement):
            if x.field != self:
                raise ValueError("element of a different extension")
            return x
        return QuadElement(self.base.of(x), self.base.zero, self)

    @property
    def one(self) -> QuadElement:
        return QuadElement(self.base.one, self.base.zero, self)

    def __eq__(self, other):
        return (
            isinstance(other, QuadraticExtension)
            and other.base == self.base
            and other.disc == self.disc
        )

    def __hash__(self):
        return hash(("quad", self.base, _exact_str(self.disc)))

    def __repr__(self) -> str:
        return f"{self.base!r}[theta]/(theta^2 - {self.disc})"
