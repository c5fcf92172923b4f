import random
from fractions import Fraction

import pytest

from helpers import nonresidue_int
from ncquad.fields import GF, QQ, QuadraticExtension, _sqrt_mod_p, is_prime
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
    F = GF(101)
    a = F.of(77)
    b = F.of("3/4")
    assert b * 4 == F.of(3)
    assert (a / a) == F.one
    assert a - a == F.zero
    assert F.of(Fraction(1, 2)) * 2 == F.one
    with pytest.raises(ZeroDivisionError):
        F.of(Fraction(1, 101))


def test_prime_field_sqrt_roundtrip():
    rng = random.Random(0)
    for p in (5, 11, 101, 10007):
        F = GF(p)
        for _ in range(20):
            x = F.of(rng.randrange(p))
            sq = x * x
            assert F.is_square(sq)
            r = _sqrt_mod_p(sq.value, p)
            assert r is not None and r * r % p == sq.value
        nr = F.of(nonresidue_int(F.p))
        assert not F.is_square(nr)
        assert _sqrt_mod_p(nr.value, p) is None


def test_quadratic_extension_arithmetic():
    ext = QuadraticExtension(QQ, 5)
    th = ext.theta
    assert th * th == ext.of(5)
    x = ext.of(Fraction(1, 2)) + ext.of(3) * th
    assert (x / x) == ext.one
    assert x * x - 2 * Fraction(1, 2) * Fraction(3) * th - ext.of(Fraction(1, 4) + 9 * 5) == ext.zero
    # reduction happens after every operation: (a + b th)^2 has no th^2 term
    y = (th + 1) * (th - 1)
    assert y == ext.of(4)


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
        x = ext.of(rng.randrange(11)) + ext.of(rng.randrange(11)) * ext.theta
        if x:
            assert x * (ext.one / x) == ext.one


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
