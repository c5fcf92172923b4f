import json
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest

from helpers import Quad, certificate_json, lift, lower, nonresidue_int
from ncquad import fields
from ncquad.certify import full_pipeline
from ncquad.fields import GF, QQ, _exact_str, _field_str, _sqrt_mod_p, is_prime
from ncquad.fileformat import parse_quintuple_file
from ncquad.forms import _quadratic_root


def test_rationals_lowest_terms():
    x = QQ.of(Fraction(6, 4))
    assert x == Fraction(3, 2)
    assert x.denominator == 2
    assert QQ.of(Fraction(-2, -4)) == Fraction(1, 2)
    assert QQ.of(Fraction(-2, -4)).denominator == 2
    assert Fraction(_exact_str(Fraction(-7, 3))) == Fraction(-7, 3)


def test_fields_read_no_text():
    # text becomes a scalar only through fileformat's one scalar reader
    for field in (QQ, GF(7)):
        for text in ("6/4", "1", "\u0661"):
            with pytest.raises(TypeError):
                field.of(text)


def test_rational_squares():
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
    # F_p values are plain int residues in [0, p); the tests' ``Mod``s
    # compute on them
    F = GF(101)
    assert [F.of(x) for x in (-1, 202, Fraction(3, 4), Fraction(1, 2))] == [100, 0, 26, 51]
    assert all(type(F.of(x)) is int for x in (-1, Fraction(3, 4), Fraction(1, 2)))
    a, b = lift(F, F.of(77)), lift(F, F.of(Fraction(3, 4)))
    assert b * 4 == F.of(3)
    assert a / a == 1 and a - a == 0
    assert lift(F, F.of(Fraction(1, 2))) * 2 == 1
    with pytest.raises(ZeroDivisionError):
        F.of(Fraction(1, 101))


def test_prime_field_sqrt_roundtrip():
    rng = random.Random(0)
    for p in (5, 11, 101, 10007):
        F = GF(p)
        for _ in range(20):
            x = rng.randrange(p)
            sq = F.of(x * x)
            r = _sqrt_mod_p(sq, p)
            assert r is not None and r * r % p == sq
        assert _sqrt_mod_p(F.of(nonresidue_int(F.p)), p) is None


def test_quadratic_extension_arithmetic():
    # on the tests' ``Quad``s x + y theta, theta^2 = 5, and back as an (x, y) pair
    th = Quad(0, 1, Fraction(5))
    assert th * th == 5
    x = Quad(Fraction(1, 2), 3, Fraction(5))
    assert x / x == 1
    assert x * x - 2 * Fraction(1, 2) * 3 * th - (Fraction(1, 4) + 9 * 5) == 0
    # reduction happens after every operation: (a + b th)^2 has no th^2 term
    assert (th + 1) * (th - 1) == 4
    assert lower(QQ, x) == (Fraction(1, 2), Fraction(3))
    assert lift(QQ, lower(QQ, x), Fraction(5)) == x


def test_extension_discriminants_are_non_squares_over_the_base():
    # no extension is built over a square, and none over an extension: each
    # discriminant the golden certificates print is a base-field non-square,
    # and the coordinates beside it are pairs of base-field values
    seen = set()
    for entry in json.loads(Path(__file__).with_name("golden.json").read_text())["seeded"]:
        if entry.get("kind") not in ("extension witness", "irreducible meet"):
            continue
        q, _ = parse_quintuple_file(entry["input"])
        p = q.field.characteristic
        for stage in certificate_json(full_pipeline(q, entry["convention"]))["stages"]:
            found = [pair.get("witness", {}) for pair in stage.get("report", {}).get("pairs", ())]
            found += stage.get("relation", {}).get("witnesses", [])
            for w in (w for w in found if "extension_minpoly" in w):
                disc = w.pop("extension_minpoly").removeprefix("theta^2-(").removesuffix(")")
                if p:
                    value, modulus = disc.split(" (mod ")
                    assert modulus == f"{p})" and _sqrt_mod_p(int(value), p) is None
                else:
                    n, d = Fraction(disc).as_integer_ratio()
                    assert n < 0 or math.isqrt(n) ** 2 != n or math.isqrt(d) ** 2 != d
                assert all(len(x) == 2 and all(isinstance(y, str) for y in x)
                           for v in w.values() for x in v)
                seen.add(p)
    assert seen == {0, 5, 7, 10007}


def test_extension_over_prime_field():
    F = GF(11)
    d = F.of(nonresidue_int(11))
    rng = random.Random(1)
    for _ in range(30):
        x = lift(F, (F.of(rng.randrange(11)), F.of(rng.randrange(11))), d)
        if x:
            assert x / x == 1 and x * x / x == x


def test_field_values_are_plain_values():
    # a residue is an int in [0, p), an extension value an (x, y) pair;
    # only ``_field_str`` spells a base-field value with its modulus
    F = GF(7)
    assert F.of(Fraction(1, 2)) == 4 and type(F.of(Fraction(1, 2))) is int and F.of(11) == 4
    assert _field_str(4, 7) == "4 (mod 7)" and _field_str(Fraction(-7, 3), 0) == "-7/3"
    assert _field_str(10 ** 5000 % 7, 7) == f"{10 ** 5000 % 7} (mod 7)"
    assert not any(hasattr(fields, name) for name in ("FpElement", "QuadElement", "QuadraticExtension"))
    assert not any(hasattr(k, name) for k in (QQ, F) for name in ("zero", "one", "format", "is_square"))


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
