"""The CLI's exit-code contract under fuzzed input files.

``check``, ``certify``, ``quiver`` and ``mutate`` answer every JSON
document with 0 (success), 1 (a mathematical failure or an excluded
input) or 2 (malformed input); 3 is kept for bugs in ncquad.  The
documents are recursive JSON of every leaf type, quintuple files with
wrong shapes, odd field specs and scalars written as integers,
fractions, decimals and exponent forms up to 1e400.  A field spec names
F_p only when it is spelled ``Fp:<p>`` exactly as ``str`` writes p; every
other spelling int() reads is malformed.  Exponents far
beyond that (``"1e3000000"`` over F_p) take seconds each and are left
to the bound on accepted scalars (ROADMAP item 2).
"""

import contextlib
import io
import json
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ncquad.cli import main

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
