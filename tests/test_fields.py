import operator
import random
from fractions import Fraction

import pytest

from helpers import Quad, lift, lower, nonresidue_int
from ncquad.fields import GF, QQ, QuadElement, QuadraticExtension, _sqrt_mod_p, is_prime
from ncquad.forms import _quadratic_root


def test_rationals_lowest_terms():
    x = QQ.of("6/4")
    assert x == Fraction(3, 2)
    assert x.denominator == 2
    assert QQ.of(Fraction(-2, -4)) == Fraction(1, 2)
    assert QQ.of(Fraction(-2, -4)).denominator == 2
    assert QQ.of(QQ.format(Fraction(-7, 3))) == Fraction(-7, 3)


def test_rational_squares():
    assert QQ.is_square(Fraction(9, 4))
    assert not QQ.is_square(Fraction(2))
    assert not QQ.is_square(Fraction(-4))
    # on integers: the nonnegative root of the discriminant b^2 - 4ac
    assert _quadratic_root(0, 3, 0, 0) == _quadratic_root(0, -3, 0, 0) == 3
    assert _quadratic_root(4, 4, -8, 0) == 12
    assert _quadratic_root(1, 0, -2, 0) is None
    assert _quadratic_root(1, 0, 1, 0) is None


def test_prime_field_restrictions():
    with pytest.raises(ValueError):
        GF(4)
    with pytest.raises(ValueError):
        GF(3)
    GF(5)
    GF(2**61 - 1)


def test_prime_field_arithmetic():
    # F_p values carry no arithmetic; the tests' residues compute on them
    F = GF(101)
    a, b = lift(F.of(77)), lift(F.of("3/4"))
    assert b * 4 == F.of(3)
    assert a / a == F.one and a - a == F.zero
    assert lift(F.of(Fraction(1, 2))) * 2 == F.one
    with pytest.raises(ZeroDivisionError):
        F.of(Fraction(1, 101))


def test_prime_field_sqrt_roundtrip():
    rng = random.Random(0)
    for p in (5, 11, 101, 10007):
        F = GF(p)
        for _ in range(20):
            x = rng.randrange(p)
            sq = F.of(x * x)
            assert F.is_square(sq)
            r = _sqrt_mod_p(sq.value, p)
            assert r is not None and r * r % p == sq.value
        nr = F.of(nonresidue_int(F.p))
        assert not F.is_square(nr)
        assert _sqrt_mod_p(nr.value, p) is None


def test_quadratic_extension_arithmetic():
    # on the tests' pairs x + y theta, theta^2 = 5, and back as a QuadElement
    th = Quad(0, 1, Fraction(5))
    assert th * th == 5
    x = Quad(Fraction(1, 2), 3, Fraction(5))
    assert x / x == 1
    assert x * x - 2 * Fraction(1, 2) * 3 * th - (Fraction(1, 4) + 9 * 5) == 0
    # reduction happens after every operation: (a + b th)^2 has no th^2 term
    assert (th + 1) * (th - 1) == 4
    ext = QuadraticExtension(QQ, 5)
    assert lower(QQ, x) == QuadElement(Fraction(1, 2), Fraction(3), ext)
    assert lift(lower(QQ, x)) == x


def test_quadratic_extension_rejects_squares_and_towers():
    with pytest.raises(ValueError):
        QuadraticExtension(QQ, 9)
    ext = QuadraticExtension(QQ, 2)
    with pytest.raises(ValueError):
        QuadraticExtension(ext, 3)


def test_extension_over_prime_field():
    F = GF(11)
    ext = QuadraticExtension(F, F.of(nonresidue_int(11)))
    rng = random.Random(1)
    for _ in range(30):
        x = lift(QuadElement(F.of(rng.randrange(11)), F.of(rng.randrange(11)), ext))
        if x:
            assert x / x == 1 and x * x / x == x


def test_field_values_are_print_only():
    # FpElement and QuadElement construct, compare, hash and print, and
    # have no arithmetic: every decision in ncquad runs on integers
    F = GF(7)
    ext = QuadraticExtension(F, 3)
    x, y = F.of("1/2"), QuadElement(F.of(1), F.of(2), ext)
    assert x == 4 and x == Fraction(1, 2) and hash(x) == hash(F.of(11))
    assert repr(x) == "4 (mod 7)" and repr(y) == "(1 (mod 7)) + (2 (mod 7))*theta"
    assert y == QuadElement(F.of(8), F.of(2), ext) and y != 1 and y and not ext.of(0)
    assert ext.of(3) == 3 and ext.one == 1
    for v in (x, y):
        for op in (operator.add, operator.sub, operator.mul, operator.truediv):
            with pytest.raises(TypeError):
                op(v, v)
        with pytest.raises(TypeError):
            -v
    assert not any(hasattr(ext, name) for name in ("theta", "zero", "format"))
    assert not any(hasattr(y, name) for name in ("conjugate", "norm"))


def test_is_prime():
    assert is_prime(2) and is_prime(101) and is_prime(2**61 - 1)
    assert not is_prime(1) and not is_prime(10007 * 3)


# a strong pseudoprime to each of the twelve bases 2..37, and the least
# one to the thirteen bases 2..41
PSEUDOPRIME_12 = 399165290221 * 798330580441
PSEUDOPRIME_13 = 3317044064679887385961981


def test_is_prime_rejects_the_twelve_base_pseudoprime():
    assert PSEUDOPRIME_12 == 318665857834031151167461
    assert not is_prime(PSEUDOPRIME_12)
    with pytest.raises(ValueError, match="not prime"):
        GF(PSEUDOPRIME_12)
    # below the bound the thirteen bases decide, primes included
    assert is_prime(PSEUDOPRIME_13 - 168)
    assert not is_prime(PSEUDOPRIME_13 - 2)
    assert GF(2**80 - 65).p == 2**80 - 65


def test_is_prime_refuses_moduli_at_the_bound():
    for n in (PSEUDOPRIME_13, PSEUDOPRIME_13 + 2, 2**127 - 1):
        with pytest.raises(ValueError, match="decided only below"):
            is_prime(n)
        with pytest.raises(ValueError, match="decided only below"):
            GF(n)
