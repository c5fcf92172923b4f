"""Exact scalars of any length reach the output.

CPython refuses ``str`` of an int with more than ``sys.int_max_str_digits``
digits (4300 by default since 3.11 and 3.10.7).  Every integer-to-decimal
conversion on the output path goes through ``fields._exact_str``, which is
``str`` below the limit and writes longer integers in pieces.  The
expected digits here are built by arithmetic, never by ``str`` of a long
integer, so the checks hold whatever the interpreter's limit.
"""

import hashlib
import json
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import bareiss_echelon, tensor_entries

import ncquad.fields
from ncquad.cli import main
from ncquad.fields import GF, QQ, _exact_str, _field_str
from ncquad.fileformat import canonical_json_bytes, load_quintuple, scalar_json
from ncquad.grassmann import _HOM_PICKS
from ncquad.linalg import _int_echelon, _pick
from ncquad.quintuples import _SPAN_PICKS
from ncquad.squares import square_from_quintuple


def _digits(rng, n: int) -> str:
    """n random decimal digits, the first nonzero."""
    return str(rng.randint(1, 9)) + "".join(rng.choice("0123456789") for _ in range(n - 1))


def _value(digits: str) -> int:
    """The integer of a digit string, by Horner's rule on 100-digit pieces."""
    n = 0
    for i in range(0, len(digits), 100):
        piece = digits[i:i + 100]
        n = n * 10 ** len(piece) + int(piece)
    return n


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=-10 ** 4000, max_value=10 ** 4000),
       st.integers(min_value=1, max_value=10 ** 300))
def test_below_the_limit_the_bytes_are_those_of_str(n, d):
    assert _exact_str(n) == str(n)
    x = Fraction(n, d)
    assert _exact_str(x) == str(x)
    assert scalar_json(x) == str(x) and _field_str(x, 0) == str(x)
    f = GF(10007).of(n)
    assert _exact_str(f) == str(f) and _field_str(f, 10007) == f"{n % 10007} (mod 10007)"


def test_the_fast_path_is_str(monkeypatch):
    def refuse(n):
        raise AssertionError("the piecewise writer ran below the limit")

    monkeypatch.setattr(ncquad.fields, "_decimal", refuse)
    for x in (0, -7, 10 ** 4000, Fraction(-3, 10 ** 200), GF(5).of(3)):
        assert _exact_str(x) == str(x)


@pytest.mark.parametrize("length", [599, 600, 601, 4300, 4301, 10_000, 12_345])
def test_long_integers_are_written_digit_for_digit(length):
    rng = random.Random(length)
    digits = _digits(rng, length)
    n = _value(digits)
    assert _exact_str(n) == digits
    assert _exact_str(-n) == "-" + digits
    # zeros inside a piece and at a split point survive
    padded = digits[:length // 2] + "0" * 700 + digits[length // 2:]
    assert _exact_str(_value(padded)) == padded
    assert _exact_str(10 ** length) == "1" + "0" * length


def test_ten_thousand_digit_fractions_and_scalars():
    rng = random.Random(10_000)
    num, den = _digits(rng, 10_000), _digits(rng, 10_000)
    x = Fraction(_value(num), _value(den))
    # the reduced form's digits, checked by multiplying back
    text = _exact_str(x)
    top, bottom = text.split("/")
    assert Fraction(_value(top.lstrip("-")), _value(bottom)) == abs(x)
    assert _field_str(x, 0) == text == scalar_json(x)
    assert _exact_str(Fraction(_value(num))) == num == _exact_str(QQ.of(_value(num)))
    assert scalar_json(-_value(num)) == "-" + num


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="this interpreter has no limit on int-to-decimal conversion")
def test_the_lowest_limit_the_interpreter_accepts():
    rng = random.Random(640)
    digits = _digits(rng, 5000)
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        assert _exact_str(_value(digits)) == digits
        assert _exact_str(Fraction(1, _value(digits))) == "1/" + digits
    finally:
        sys.set_int_max_str_digits(before)


# -- the command line on the large-scalar files -----------------------------------


def _nested(flat):
    return [[[[flat[8 * a + 4 * b + 2 * c + d] for d in range(2)] for c in range(2)]
             for b in range(2)] for a in range(2)]


_BASE = ["1", "2", "0", "-1", "3", "0", "1", "1", "0", "2", "-1", "0", "1", "0", "2", "5"]


def _entry(first):
    return {"w": _nested([first] + _BASE[1:])}


def _long_tensor():
    rng = random.Random(2000)
    return {"w": _nested([("-" if k % 3 else "") + _digits(rng, 2000) for k in range(16)])}


def _pure_tensor():
    # (1, 10^5000) x (1, 2) x (3, 1) x (1, -1): every pair fails, and the
    # witness of pair (3, 0) has a 5001-digit coordinate
    flat = []
    for a in range(2):
        for b, c, d in ((b, c, d) for b in range(2) for c in range(2) for d in range(2)):
            r = (1, 2)[b] * (3, 1)[c] * (1, -1)[d]
            flat.append(str(r) if a == 0 else f"{r}e5000")
    return {"w": _nested(flat)}


def _bare_integer():
    # a JSON number, not a string: json.load itself refuses it past the
    # interpreter's int-from-decimal limit, before any entry is read
    return {"w": _nested([10 ** 5000] + [int(x) for x in _BASE[1:]])}


# a bad input (exit 2) where the interpreter limits int-from-decimal below 5001 digits
_BARE_CODE = 2 if 0 < getattr(sys, "get_int_max_str_digits", lambda: 0)() <= 5000 else 0

# document, expected exit codes of (certify, check)
LARGE = {
    "bare-integer-5001-digits": (_bare_integer(), (_BARE_CODE, _BARE_CODE)),
    "entry-1e5000": (_entry("1e5000"), (0, 0)),
    "entry-1e-5000": (_entry("1e-5000"), (0, 0)),
    "type-a-b-1e5000": ({"family": "type-a", "a": "1", "b": "1e5000", "c": "3"}, (0, 0)),
    "tensor-2000-digits": (_long_tensor(), (0, 0)),
    "pure-witness-5001-digits": (_pure_tensor(), (1, 1)),
}


@pytest.mark.parametrize("name", sorted(LARGE))
def test_large_scalars_never_exit_3(name, tmp_path, capsys):
    doc, (certify_code, check_code) = LARGE[name]
    path = tmp_path / f"{name}.json"
    path.write_text(_dumps(doc))
    out = tmp_path / "cert.json"
    assert main(["certify", str(path), "--json", str(out)]) == certify_code
    assert main(["check", str(path)]) == check_code
    assert main(["check", str(path), "--json"]) == check_code
    assert "internal error" not in capsys.readouterr().err
    if certify_code == 2:
        return
    # the certificate names the input by the digest of its exact digits
    q, _ = load_quintuple(str(path))
    cert = json.loads(out.read_text())
    assert cert["input"]["digest"] == hashlib.sha256(canonical_json_bytes(
        {"field": "Q", "w": _exact_w(q)})).hexdigest()


@pytest.mark.parametrize("name", ["entry-1e5000", "entry-1e-5000", "tensor-2000-digits"])
def test_eliminations_stay_within_the_bareiss_bound(name, tmp_path):
    """The two eliminations of a certified input, the 7x16 relations span
    (``_SPAN_PICKS`` of w) and the 6x8 Hom(R, K_1) matrices (``_HOM_PICKS``
    of line 1's phi^-1, either contracted factor), keep no entry longer
    than textbook Bareiss elimination does, and find its pivots."""
    path = tmp_path / f"{name}.json"
    path.write_text(_dumps(LARGE[name][0]))
    q, _ = load_quintuple(str(path))
    phi_inv = square_from_quintuple(q).line(1).phi_inv
    matrices = [_pick(q.w._row, 7, 16, _SPAN_PICKS)]
    matrices += [_pick(phi_inv, 6, 8, picks) for picks in _HOM_PICKS]
    longest = 0
    for m in matrices:
        n = m.ncols
        rows = [list(m._num[i * n:(i + 1) * n]) for i in range(m.nrows)]
        ech, pivots = _int_echelon([list(r) for r in rows], n, 0)
        ref, ref_pivots = bareiss_echelon(rows, n)
        assert pivots == ref_pivots
        for row, ref_row in zip(ech, ref):
            assert all(abs(x).bit_length() <= abs(y).bit_length() for x, y in zip(row, ref_row))
        longest = max(longest, max(abs(x).bit_length() for row in ech for x in row))
    # the long scalars reach the eliminated entries (10^5000 has 16,610 bits)
    assert longest > 6000


def _dumps(doc) -> str:
    """``json.dumps`` with bare integers written by ``_exact_str``, past any limit."""
    if isinstance(doc, int):
        return _exact_str(doc)
    if isinstance(doc, list):
        return "[" + ",".join(_dumps(x) for x in doc) + "]"
    if isinstance(doc, dict):
        return "{" + ",".join(f"{json.dumps(k)}:{_dumps(v)}" for k, v in doc.items()) + "}"
    return json.dumps(doc)


def _exact_w(q):
    """The nested digit strings of w, from its field elements and ``_value``
    checks on every long numerator and denominator."""
    flat = []
    for x in tensor_entries(q.w):
        text = _exact_str(x)
        num, _, den = text.lstrip("-").partition("/")
        assert Fraction(_value(num), _value(den) if den else 1) == abs(x)
        flat.append(text)
    return _nested(flat)


def test_entry_1e5000_writes_all_its_digits(tmp_path):
    path = tmp_path / "big.json"
    path.write_text(json.dumps(_entry("1e5000")))
    q, meta = load_quintuple(str(path))
    assert meta["w"][0][0][0][0] == "1" + "0" * 5000
    path.write_text(json.dumps(_entry("1e-5000")))
    q, meta = load_quintuple(str(path))
    assert meta["w"][0][0][0][0] == "1/1" + "0" * 5000
    path.write_text(json.dumps({"family": "type-a", "a": "1", "b": "1e5000", "c": "3"}))
    _, meta = load_quintuple(str(path))
    assert meta["b"] == "1" + "0" * 5000


def test_fp_elements_print_through_the_same_writer():
    x = GF(7).of(10 ** 5000 + 3)
    assert _field_str(x, 7) == f"{(10 ** 5000 + 3) % 7} (mod 7)"
    assert scalar_json(x) == str((10 ** 5000 + 3) % 7)
    assert scalar_json((x, GF(7).of(-1))) == [str(x), "6"]
