"""``fileformat._scalar``, the one scalar reader, against ``Fraction(str)``.

The reader accepts exactly an ASCII grammar: an integer, a fraction of an
integer over digits, or a decimal with digits on both sides of its point
and an optional exponent of at most 10000 in absolute value.  On that
language it equals ``Fraction`` of the text, which ``field.of`` reduces
mod p over F_p; a denominator that vanishes mod p raises
``ZeroDivisionError``.  A text of the grammar whose exponent is past the
bound, and every other text, whatever the running Python's ``Fraction``
makes of it, raises ``ValueError``, which the CLI answers with exit 2.  The
grammar is written out here again, apart from the reader's own pattern.
"""

import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ncquad.fields import GF, QQ
from ncquad.fileformat import _scalar

FIELDS = (QQ, GF(5), GF(7), GF(10007))
INTEGER = r"[-+]?[0-9]+"
GRAMMAR = re.compile(
    rf"{INTEGER}|{INTEGER}/[0-9]+|{INTEGER}(\.[0-9]+)?([eE](?P<exp>[-+]?[0-9]+))?")
MAX_EXPONENT = 10000


def _past_the_bound(match) -> bool:
    """Whether a text of the grammar has a decimal exponent past ±10000."""
    return match["exp"] is not None and abs(int(match["exp"])) > MAX_EXPONENT


def _expected(text, field):
    """``Fraction(text)`` reduced into the field, or the exception it raises."""
    try:
        x = Fraction(text)
    except ZeroDivisionError:
        return ZeroDivisionError
    p = field.characteristic
    if not p:
        return x
    if x.denominator % p == 0:
        return ZeroDivisionError
    return x.numerator * pow(x.denominator, -1, p) % p


def _read(text, field):
    try:
        return field.of(_scalar(text))
    except ZeroDivisionError:
        return ZeroDivisionError


# exponents of at most four digits stay within the bound of 10000
_ACCEPTED = st.from_regex(
    rf"\A({INTEGER}|{INTEGER}/[0-9]+|{INTEGER}(\.[0-9]+)?([eE][-+]?[0-9]{{1,4}})?)\Z")


@settings(max_examples=300, deadline=None)
@given(_ACCEPTED, st.sampled_from(FIELDS))
@example("1e10000", QQ)
@example("-7/35", GF(7))
@example("0.0000", GF(5))
def test_on_the_grammar_the_reader_is_fraction_reduced_mod_p(text, field):
    assert GRAMMAR.fullmatch(text)
    got = _read(text, field)
    assert got == _expected(text, field)
    if field.characteristic and got is not ZeroDivisionError:
        assert type(got) is int


# the characters that Fraction or a near miss of the grammar use, some of
# which no Python may read as a scalar
_NEAR = st.text(alphabet="0123456789+-./eE_ \t\u00a0\u0661\uff11x", max_size=10)


@settings(max_examples=1500, deadline=None)
@given(_NEAR, st.sampled_from(FIELDS))
@example(".5", QQ)
@example("5.", QQ)
@example("+.5e1", QQ)
@example("\u0661", QQ)
@example("\uff11", GF(7))
@example("1e+-5", QQ)
@example("1_000", GF(5))
@example("0E10001", QQ)
@example("1e-10001", GF(5))
def test_off_the_grammar_the_reader_refuses(text, field):
    match = GRAMMAR.fullmatch(text)
    if match and _past_the_bound(match):
        with pytest.raises(ValueError, match="decimal exponent past"):
            _scalar(text)
    elif match:
        assert _read(text, field) == _expected(text, field)
    else:
        with pytest.raises(ValueError, match="is outside the grammar"):
            _scalar(text)


@pytest.mark.parametrize("value, want", [(0.1, Fraction(1, 10)), (-2.5e-3, Fraction(-1, 400)),
                                         (1e16, Fraction(10 ** 16)), (7, Fraction(7))])
def test_json_numbers_are_read_through_their_str(value, want):
    assert _scalar(value) == want
    assert _read(value, GF(7)) == _expected(str(value), GF(7))


@pytest.mark.parametrize("value", [float("inf"), float("nan"), True, None, [1], {"a": 1}])
def test_values_whose_str_is_outside_the_grammar_are_refused(value):
    with pytest.raises(ValueError, match="is outside the grammar"):
        _scalar(value)
