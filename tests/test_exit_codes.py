"""The CLI's exit-code contract under fuzzed input files.

``check``, ``certify``, ``quiver`` and ``mutate`` answer every JSON
document with 0 (success), 1 (a mathematical failure or an excluded
input) or 2 (malformed input); 3 is kept for bugs in ncquad.  The
documents are recursive JSON of every leaf type, quintuple files with
wrong shapes, odd field specs and scalars written as integers,
fractions, decimals and exponent forms up to 1e400.  A field spec names
F_p only when it is spelled ``Fp:<p>`` exactly as ``str`` writes p; every
other spelling int() reads is malformed.  A decimal exponent past ±10000
is malformed too: ``Fraction`` builds 10**e before anything reduces it.
"""

import contextlib
import io
import json
import os
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ncquad.cli import main
from ncquad.corpus import corpus_path
from ncquad.fileformat import ExcludedInput, InputError, parse_quintuple_file

_FIELDS = st.sampled_from([
    "Q", "Fp:5", "Fp:7", "Fp:101", "Fp:10007",
    "Fp:4", "Fp:+7", "Fp: 5", "Fp:1_0007", "Fp:05", "Fp:\u0665", "Fp:3", "Fp:2", "Fp:-5", "Fp:0", "Fp:",
    "Fp:123456789012345678901234567891", "Fp:5.0", "R", "q", "",
]) | st.none() | st.integers(-3, 11) | st.text(max_size=6)

_SCALAR_STRINGS = st.sampled_from([
    "0", "1", "-1", "2", "3", "1/2", "-3/4", "5", "1/5", "0/3", "1/0", "0.1", "-2.5",
    "1e3", "2.5e-3", "1E2", "1e400", "-1e400", "1e-400", "7e+1", " 3", "1_000",
    "+4", "0x10", "nan", "inf", "1/2/3", "", "x",
])

_SCALARS = st.one_of(
    _SCALAR_STRINGS,
    st.integers(-5, 5),
    st.integers(),
    st.fractions(max_denominator=30).map(str),
    st.floats(allow_nan=True, allow_infinity=True),
)

_LEAVES = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=5),
                    _SCALARS)
_KEYS = st.sampled_from(["w", "family", "field", "a", "b", "c"]) | st.text(max_size=3)
_JSON = st.recursive(_LEAVES, lambda kids: st.lists(kids, max_size=3)
                     | st.dictionaries(_KEYS, kids, max_size=4), max_leaves=12)


def _nested(depth, children):
    """A tensor of 2 x ... x 2 lists of ``depth`` levels over ``children``."""
    if depth == 0:
        return children
    return st.lists(_nested(depth - 1, children), min_size=2, max_size=2)


_WELL_SHAPED = _nested(4, _SCALARS)
_ODD_SHAPED = st.integers(0, 6).flatmap(
    lambda depth: _nested(depth, _LEAVES) if depth != 4 else st.lists(_JSON, max_size=3))
_WRONG_LEAF = _nested(4, st.one_of(_SCALARS, _JSON))


@st.composite
def _documents(draw):
    kind = draw(st.sampled_from(("json", "w", "odd w", "wrong leaf", "type-a", "linear")))
    if kind == "json":
        return draw(_JSON)
    doc = {}
    if kind == "type-a":
        doc["family"] = "type-a"
        for key in draw(st.sets(st.sampled_from("abc"), min_size=2)):
            doc[key] = draw(_SCALARS)
    elif kind == "linear":
        doc["family"] = draw(st.sampled_from(["linear", "Linear", "type-b"]))
    else:
        doc["w"] = draw({"w": _WELL_SHAPED, "odd w": _ODD_SHAPED, "wrong leaf": _WRONG_LEAF}[kind])
    if draw(st.booleans()):
        doc["field"] = draw(_FIELDS)
    if draw(st.integers(0, 9)) == 0:
        doc[draw(_KEYS)] = draw(_JSON)
    return doc


_COMMANDS = (["check"], ["certify", "--convention", "ruling"],
             ["certify", "--convention", "literal"], ["quiver"], ["mutate"])


def test_fuzzed_documents_exit_zero_one_or_two(tmp_path):
    path = tmp_path / "doc.json"
    codes = Counter()

    @settings(max_examples=250, derandomize=True, database=None, deadline=None)
    @given(_documents())
    @example({"family": "type-a", "a": "1e400", "b": "-3/4", "c": "0.1", "field": "Fp:5"})
    @example({"family": "linear", "field": "Fp:4"})
    @example({"family": "linear", "field": "Fp:123456789012345678901234567891"})
    @example({"w": [[[["1e-400", 0], [0, 0]], [[0, 0], [0, 0]]], [[[0, 0], [0, 0]], [[0, 0], [0, 1]]]]})
    def run(doc):
        path.write_text(json.dumps(doc))
        for command in _COMMANDS:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                code = main([command[0], str(path), *command[1:]])
            assert code in (0, 1, 2), (command, doc)
            codes[code] += 1

    run()
    assert all(codes[c] for c in (0, 1, 2)), codes


def _exit_codes(path, doc):
    path.write_text(json.dumps(doc))
    codes = []
    for command in _COMMANDS:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            codes.append(main([command[0], str(path), *command[1:]]))
    return codes


# int() reads each of these as a prime, but only "Fp:<p>" as str writes p
# names F_p: a space, a sign, an underscore, a leading zero, an Arabic-Indic 5
@pytest.mark.parametrize("spec", ["Fp: 5", "Fp:+7", "Fp:1_0007", "Fp:05", "Fp:\u0665"])
def test_non_canonical_field_specs_exit_two(tmp_path, spec):
    for doc in ({"family": "linear", "field": spec},
                {"family": "type-a", "a": "1", "b": "2", "c": "3", "field": spec}):
        assert _exit_codes(tmp_path / "doc.json", doc) == [2] * len(_COMMANDS), doc


_W = [[[["1", "0"], ["0", "1"]], [["0", "1"], ["1", "0"]]], [[["1", "1"], ["0", "1"]], [["1", "0"], ["1", "1"]]]]


# each kind of file holds only its own keys: a misspelled "field" used to
# certify over Q, and a stray key was ignored; a family that is not a
# string is an unknown family, not an unhashable table key
@pytest.mark.parametrize("doc, message", [
    ({"family": "linear", "feild": "Fp:5"}, "unknown keys for a linear input: 'feild'"),
    ({"family": "linear", "a": "1", "field": "Q"}, "unknown keys for a linear input: 'a'"),
    ({"family": "type-a", "a": "1", "b": "2", "c": "3", "w": _W}, 'exactly one of "family" or "w"'),
    ({"family": "type-a", "a": "1", "b": "2", "c": "3", "d": "4", "C": "5"},
     "unknown keys for a type-a input: 'C', 'd'"),
    ({"w": _W, "field": "Fp:5", "family ": "linear"}, "unknown keys for a w input: 'family '"),
    ({"w": _W, "a": "1"}, "unknown keys for a w input: 'a'"),
    ({"family": []}, r"unknown family \[\]"),
    ({"family": {"linear": 1}}, "unknown family {'linear': 1}"),
    ({"family": "w", "w": _W}, 'exactly one of "family" or "w"'),
    ({"family": "w"}, "unknown family 'w'"),
], ids=["linear-feild", "linear-a", "type-a-w", "type-a-d-C", "w-family-space", "w-a",
        "family-list", "family-dict", "family-w-and-w", "family-w"])
def test_a_key_outside_the_inputs_kind_exits_two(tmp_path, doc, message):
    with pytest.raises(InputError, match=message):
        parse_quintuple_file(doc)
    assert _exit_codes(tmp_path / "doc.json", doc) == [2] * len(_COMMANDS), doc


def test_every_bundled_and_golden_input_holds_only_its_kinds_keys():
    tests = Path(__file__).parent
    docs = [json.loads(path.read_text()) for path in
            sorted(corpus_path("linear.json").parent.glob("*.json"))
            + sorted((tests / "data").glob("*.json"))]
    docs += [entry["input"] for entry in json.loads((tests / "golden.json").read_text())["seeded"]]
    for doc in docs:
        try:
            parse_quintuple_file(doc)
        except ExcludedInput:
            pass
        except InputError as exc:   # a malformed value, never a stray key
            assert "unknown" not in str(exc), doc
    assert {doc.get("family", "w") for doc in docs} == {"linear", "type-a", "w"}


# ``Fraction`` reads "1_000" from Python 3.11 on and "2 / 3" from 3.12 on,
# so a scalar holding an underscore or whitespace is refused on every Python
@pytest.mark.parametrize("spelling", ["1_000", "2 / 3", " 3", "3 ", "1/\t3", "-1_0/3", "\u00a03"])
@pytest.mark.parametrize("field", ["Q", "Fp:7"])
def test_scalars_with_underscores_or_whitespace_exit_two(tmp_path, spelling, field):
    w = json.loads(json.dumps(_W))
    w[1][0][1][1] = spelling
    for doc in ({"family": "type-a", "a": "1", "b": spelling, "c": "3", "field": field},
                {"w": w, "field": field}):
        with pytest.raises(InputError, match="holds an underscore or whitespace"):
            parse_quintuple_file(doc)
        assert _exit_codes(tmp_path / "doc.json", doc) == [2] * len(_COMMANDS), doc


# Fraction builds 10**e before anything reduces it, so an exponent past
# ±10000 is refused before Fraction reads the string, and quickly
@pytest.mark.parametrize("spelling", ["1e100000", "-1E100000", "1e-100000", "2.5e+100000"])
@pytest.mark.parametrize("field", ["Q", "Fp:5"])
def test_scalars_with_huge_decimal_exponents_exit_two_within_seconds(tmp_path, spelling, field):
    w = json.loads(json.dumps(_W))
    w[1][0][1][1] = spelling
    for doc in ({"family": "type-a", "a": "1", "b": spelling, "c": "3", "field": field},
                {"w": w, "field": field}):
        start = time.perf_counter()
        with pytest.raises(InputError, match="decimal exponent past ±10000"):
            parse_quintuple_file(doc)
        assert _exit_codes(tmp_path / "doc.json", doc) == [2] * len(_COMMANDS), doc
        assert time.perf_counter() - start < 5, doc


def test_the_exponent_bound_is_ten_thousand_either_way():
    for spelling in ("1e10001", "1E-10001", "3.5e+10001", "1e0010001"):
        with pytest.raises(InputError, match="decimal exponent past ±10000"):
            parse_quintuple_file({"family": "type-a", "a": "1", "b": spelling, "c": "3"})
    for spelling in ("1e10000", "1E-10000", "3.5e+10000", "1e00010000"):
        parse_quintuple_file({"family": "type-a", "a": "1", "b": spelling, "c": "3"})


@pytest.mark.parametrize("spelling", ["1e400", "1e5000"])
@pytest.mark.parametrize("field", ["Q", "Fp:5"])
def test_exponents_within_the_bound_still_certify(tmp_path, spelling, field):
    w = json.loads(json.dumps(_W))
    w[0][0][0][0] = spelling
    path = tmp_path / "doc.json"
    for doc in ({"family": "type-a", "a": "1", "b": spelling, "c": "3", "field": field},
                {"w": w, "field": field}):
        path.write_text(json.dumps(doc))
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["certify", str(path)]) == 0, doc


# the message names the vanishing denominator, never its digits: those of
# 10**5000 pass the interpreter's int-to-decimal limit (4300 by default)
@pytest.mark.parametrize("entry", ["1e-5000", "1/5"])
def test_a_denominator_vanishing_mod_p_exits_two_and_says_so(tmp_path, entry, capsys):
    w = json.loads(json.dumps(_W))
    w[0][0][0][0] = entry
    path = tmp_path / "doc.json"
    for doc in ({"w": w, "field": "Fp:5"},
                {"family": "type-a", "a": "1", "b": entry, "c": "3", "field": "Fp:5"}):
        path.write_text(json.dumps(doc))
        assert main(["certify", str(path)]) == 2, doc
        err = capsys.readouterr().err
        assert err.startswith("input error: ") and err.rstrip().endswith(
            ": the denominator vanishes mod 5"), err


# a certificate path that cannot be written is a bad argument, as an input
# file that cannot be read is: it exits 2 with one line naming the path
@pytest.mark.parametrize("target, reason", [
    ("missing/out.json", "No such file or directory"),
    ("", "Is a directory"),
], ids=["missing-directory", "directory"])
def test_an_unwritable_json_path_exits_two_and_names_it(tmp_path, target, reason):
    out = tmp_path / target if target else tmp_path
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-m", "ncquad.cli", "certify", str(corpus_path("linear")),
         "--json", str(out)],
        env=dict(os.environ, PYTHONPATH=str(src)), cwd=tmp_path, capture_output=True, text=True)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith(f"input error: cannot write {out}: [Errno ")
    assert reason in proc.stderr
    assert len(proc.stderr.splitlines()) == 1 and "Traceback" not in proc.stderr
