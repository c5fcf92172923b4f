import copy
import json

import pytest

from ncquad.fileformat import FrozenJSON, canonical_json_bytes

DOC = {"b": [1, {"z": "x", "a": None}], "a": {"k": [True, "é"]}}


def test_frozen_values_serialize_as_the_plain_document():
    plain = {"x": [DOC, 3], "y": DOC, "z": {"w": DOC}}
    frozen = {"x": [FrozenJSON(DOC), 3], "y": FrozenJSON(DOC), "z": {"w": FrozenJSON(DOC)}}
    assert canonical_json_bytes(frozen) == canonical_json_bytes(plain)
    assert FrozenJSON(DOC).text == canonical_json_bytes(DOC).decode()


def test_frozen_reads_are_fresh_copies():
    frozen = FrozenJSON(DOC)
    text = frozen.text
    frozen["b"][1]["z"] = "changed"
    frozen["a"]["k"].append(1)
    assert frozen.text == text
    assert dict(frozen) == json.loads(text) == DOC
    assert sorted(frozen) == ["a", "b"] and len(frozen) == 2
    with pytest.raises(TypeError):
        frozen["a"] = {}
    with pytest.raises(AttributeError, match="read-only FrozenJSON"):
        frozen.text = "{}"
    copied = copy.deepcopy({"f": frozen})["f"]
    assert type(copied) is dict and copied == DOC
    copied["a"]["k"].append(1)
    assert frozen.text == text


def test_other_objects_still_refuse_to_serialize():
    with pytest.raises(TypeError, match="set is not JSON serializable"):
        canonical_json_bytes({"a": {1, 2}})


def test_a_string_equal_to_the_splice_marker_is_refused():
    marker = "\x00frozen\x00"
    assert canonical_json_bytes({"a": marker}) == b'{"a":"\\u0000frozen\\u0000"}'
    with pytest.raises(ValueError, match="2 splice markers for 1 frozen values"):
        canonical_json_bytes({"a": marker, "b": FrozenJSON(DOC)})
