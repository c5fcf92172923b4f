import json
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import tensor_entries
from ncquad.fields import GF, QQ
from ncquad.fileformat import FrozenJSON, canonical_json_bytes, tensor_nested_strings
from ncquad.linalg import Matrix
from ncquad.quintuples import SLOT_LABELS, Quintuple
from ncquad.tensors import Tensor

DOC = {"b": [1, {"z": "x", "a": None}], "a": {"k": [True, "é"]}}


def test_frozen_values_serialize_as_the_plain_document():
    plain = {"x": [DOC, 3], "y": DOC, "z": {"w": DOC}}
    frozen = {"x": [FrozenJSON(DOC), 3], "y": FrozenJSON(DOC), "z": {"w": FrozenJSON(DOC)}}
    assert canonical_json_bytes(frozen) == canonical_json_bytes(plain)
    assert FrozenJSON(DOC).text == canonical_json_bytes(DOC).decode()


def test_a_frozen_value_is_read_only_text():
    # it holds the canonical text alone and hands out nothing to change:
    # a reader parses the bytes canonical_json_bytes writes
    frozen = FrozenJSON(DOC)
    text = frozen.text
    assert json.loads(text) == DOC
    with pytest.raises(AttributeError, match="read-only FrozenJSON"):
        frozen.text = "{}"
    with pytest.raises(AttributeError, match="read-only FrozenJSON"):
        frozen.extra = 1
    with pytest.raises(TypeError):
        frozen["a"]
    with pytest.raises(TypeError):
        json.dumps({"f": frozen})
    assert frozen.text == text


def test_other_objects_still_refuse_to_serialize():
    with pytest.raises(TypeError, match="set is not JSON serializable"):
        canonical_json_bytes({"a": {1, 2}})


def test_a_string_equal_to_the_splice_marker_is_refused():
    marker = "\x00frozen\x00"
    assert canonical_json_bytes({"a": marker}) == b'{"a":"\\u0000frozen\\u0000"}'
    with pytest.raises(ValueError, match="2 splice markers for 1 frozen values"):
        canonical_json_bytes({"a": marker, "b": FrozenJSON(DOC)})


# -- the digest's strings are written from the integer row of w ------------

_rationals = st.fractions(min_value=-50, max_value=50, max_denominator=12)


def _nested_by_field(q):
    """w nested slot by slot from its entries, each written by ``str``."""
    flat = [str(x) for x in tensor_entries(q.w)]
    for n in (2, 2, 2):
        flat = [flat[i:i + n] for i in range(0, len(flat), n)]
    return flat


def _quintuple(field, entries):
    return Quintuple(Tensor(field, (2, 2, 2, 2), entries, SLOT_LABELS))


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(st.lists(_rationals, min_size=16, max_size=16).filter(any))
def test_nested_strings_of_a_rational_w_match_the_field_format(entries):
    assert tensor_nested_strings(_quintuple(QQ, entries)) == _nested_by_field(
        _quintuple(QQ, entries))


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(st.sampled_from((5, 10007)), st.lists(st.integers(-20000, 20000), min_size=16,
                                            max_size=16).filter(any))
def test_nested_strings_of_an_fp_w_match_the_field_format(p, entries):
    assume(any(x % p for x in entries))
    q = _quintuple(GF(p), entries)
    assert tensor_nested_strings(q) == _nested_by_field(q)


@pytest.mark.parametrize("entries", [
    # negative, zero, and 1/2 beside 1/3 on the common denominator 6
    [Fraction(1, 2), Fraction(1, 3), 0, -1, Fraction(-5, 6), 4] + [0] * 10,
    [Fraction(-7, 3)] + [0] * 15,
    [0] * 15 + [Fraction(10, 4)],
])
def test_nested_strings_reduce_each_entry(entries):
    q = _quintuple(QQ, entries)
    assert tensor_nested_strings(q) == _nested_by_field(q)
    # the same w held over a common denominator that is not the least one
    row = q.w._row
    q.w._row = Matrix._of_num(QQ, [7 * x for x in row._num], 7 * row._den, 1, 16)
    assert tensor_nested_strings(q) == _nested_by_field(q)
    assert tensor_nested_strings(q)[0][0][0][0] == str(Fraction(entries[0]))
