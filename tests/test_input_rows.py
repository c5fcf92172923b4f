"""w's integer row as the input boundary builds it.

``build_type_a`` coerces (a, b, c) once, by ``linalg._integers``, decides
the excluded locus on those integers and picks w's row from them;
``build_linear_quadric`` writes a constant row.  Both are held to
``helpers.reference_type_a_row`` and ``helpers.reference_linear_row``, the
dict-and-``field.of`` construction they replace, over QQ, F_5, F_7 and
F_10007, excluded points and vanishing denominators included.  ``ncquad
sweep`` makes at most three ``field.of`` calls per sample, those of its
three coefficients, and loading a file one per scalar it holds: 16 for a
w-file, whose reader hands ``Fraction``s to ``Tensor``, and 3 for a type-A
file.
"""

import contextlib
import io
import json
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import reference_linear_row, reference_type_a_row
from ncquad import cli, fields
from ncquad.corpus import corpus_names, corpus_path
from ncquad.fields import GF, QQ
from ncquad.fileformat import ExcludedInput, InputError, load_quintuple
from ncquad.quintuples import build_linear_quadric, build_type_a

FIELDS = (QQ, GF(5), GF(7), GF(10007))
DATA = Path(__file__).resolve().parent / "data"

# small coefficients meet the excluded locus and, over F_5 and F_7, the
# vanishing denominators often; large ones meet wide lcms and residues
_COEFFICIENT = st.one_of(
    st.integers(-12, 12),
    st.fractions(min_value=-12, max_value=12, max_denominator=14),
    st.integers(-10 ** 30, 10 ** 30),
    st.fractions(max_denominator=10 ** 12),
)


def _built_row(a, b, c, field):
    row = build_type_a(a, b, c, field).w._row
    return row._num, row._den


def _outcome(build, *args):
    """(num, den) as lists, or the type and message of what was raised."""
    try:
        num, den = build(*args)
    except (ValueError, ZeroDivisionError) as exc:
        return type(exc), str(exc)
    return list(num), den


@settings(max_examples=500, deadline=None)
@given(st.sampled_from(FIELDS), _COEFFICIENT, _COEFFICIENT, _COEFFICIENT)
def test_the_type_a_row_is_the_reference_row(field, a, b, c):
    assert _outcome(_built_row, a, b, c, field) == _outcome(reference_type_a_row, a, b, c, field)


@pytest.mark.parametrize("field", FIELDS)
def test_excluded_points_raise_as_the_reference_does(field):
    half = Fraction(1, 2)
    for point in ((0, 0, 0), (1, 1, 1), (2, -2, 2), (half, -half, half), (0, 0, 3), (0, 3, 0)):
        with pytest.raises(ValueError, match="excluded locus S") as got:
            build_type_a(*point, field)
        with pytest.raises(ValueError) as want:
            reference_type_a_row(*point, field)
        assert str(got.value) == str(want.value), point


@pytest.mark.parametrize("field", FIELDS)
def test_the_linear_row_is_the_reference_row(field):
    row = build_linear_quadric(field).w._row
    assert (list(row._num), row._den) == reference_linear_row(field)


def _count_coercions(monkeypatch) -> list:
    """The values that ``field.of`` receives from now on, QQ and F_p alike."""
    calls = []

    def counting(of):
        def wrapped(self, x):
            calls.append(x)
            return of(self, x)
        return wrapped

    for cls in (fields.RationalField, fields.PrimeField):
        monkeypatch.setattr(cls, "of", counting(cls.of))
    return calls


def test_sweep_makes_at_most_three_field_coercions_per_sample(monkeypatch):
    calls = _count_coercions(monkeypatch)
    samples = 200
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["sweep", "--samples", str(samples), "--seed", "0"]) == 0
    assert 0 < len(calls) <= 3 * samples


# field.of runs once per scalar a file holds: 16 for w, 3 for (a, b, c)
_COERCIONS = {"w": 16, "type-a": 3}


def test_a_file_coerces_each_scalar_once(monkeypatch):
    calls = _count_coercions(monkeypatch)
    loaded = Counter()
    for path in [corpus_path(name) for name in corpus_names()] + sorted(DATA.glob("*.json")):
        doc = json.loads(path.read_text())
        kind = doc.get("family", "w")
        if kind not in _COERCIONS:
            continue
        del calls[:]
        try:
            load_quintuple(str(path))
        except (ExcludedInput, InputError):
            continue
        assert len(calls) == _COERCIONS[kind], path.name
        loaded[kind] += 1
    assert loaded["w"] >= 5 and loaded["type-a"] >= 10, loaded
