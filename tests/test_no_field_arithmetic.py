"""``full_pipeline`` does no field-element arithmetic.

Every decision runs on integers (numerators or residues mod p), and
``Fraction``s are only built, never combined, for the numbers a
certificate prints.  A residue mod p is itself the int the decisions
run on, and an extension value an (x, y) pair of base-field values.
The inputs are built first; then every arithmetic operator of
``Fraction`` raises, and the golden inputs plus 3,000 sparse seeded
tensors per field must still certify under both conventions.  The sparse tensors and the golden
targeted entries reach the rare root branches: witnesses over a
quadratic extension, and lines that coincide or meet at rational or
conjugate roots.

The input side holds to the same rule: ``parse_quintuple_file`` reads
every corpus file, golden input and ``tests/data`` file (the type-A files
over F_p among them) to the same quintuple, or the same rejection, with
the operators raising; ``build_type_a`` decides the excluded locus on
integers.
"""

import json
import random
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from helpers import certificate_json, root_branches
from ncquad.certify import full_pipeline
from ncquad.corpus import corpus_names, corpus_path
from ncquad.fields import GF, QQ
from ncquad.fileformat import parse_quintuple_file
from ncquad.quintuples import SLOT_LABELS, Quintuple
from ncquad.tensors import Tensor

_OPERATORS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
              "__truediv__", "__rtruediv__", "__floordiv__", "__rfloordiv__",
              "__mod__", "__rmod__", "__divmod__", "__rdivmod__", "__pow__", "__rpow__",
              "__neg__", "__pos__", "__abs__")

_POOLS = {QQ: (-1, 0, 0, 1, Fraction(1, 2)), GF(5): (0, 0, 1, 2, 3, 4), GF(10007): (-1, 0, 0, 1, 2)}


def _sparse(field, seed, count):
    """``count`` nonzero tensors with entries from a small pool, mostly zero."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        entries = [rng.choice(_POOLS[field]) for _ in range(16)]
        if any(entries):
            out.append(Quintuple(Tensor(field, (2, 2, 2, 2), [field.of(x) for x in entries],
                                        SLOT_LABELS)))
    return out


def _golden_documents():
    doc = json.loads(Path(__file__).with_name("golden.json").read_text())
    return [entry["input"] for entry in doc["seeded"]]


def _golden_inputs():
    return [parse_quintuple_file(doc)[0] for doc in _golden_documents()]


def _input_documents():
    """Every corpus file, golden input and ``tests/data`` file."""
    paths = [corpus_path(name) for name in corpus_names()]
    paths += sorted(Path(__file__).with_name("data").glob("*.json"))
    return [json.loads(path.read_text()) for path in paths] + _golden_documents()


def _parsed(doc):
    """The field and integer entries of a document's w with its meta, or
    its rejection."""
    try:
        q, meta = parse_quintuple_file(doc)
    except ValueError as exc:
        return type(exc), str(exc)
    return (q.field, q.w._row._num, q.w._row._den), meta


@pytest.fixture
def no_field_arithmetic(monkeypatch):
    def raiser(name):
        def op(*args):
            raise AssertionError(f"field-element arithmetic: {name}")
        return op

    for name in _OPERATORS:
        if hasattr(Fraction, name):
            monkeypatch.setattr(Fraction, name, raiser(f"Fraction.{name}"))


def test_full_pipeline_does_no_field_element_arithmetic(request):
    inputs = _golden_inputs()
    for k, field in enumerate(_POOLS):
        inputs += _sparse(field, 1801 + k, 3000)
    request.getfixturevalue("no_field_arithmetic")
    with pytest.raises(AssertionError):
        Fraction(1, 2) + 1
    branches = Counter()
    for q in inputs:
        for convention in ("ruling", "literal"):
            cert = full_pipeline(q, convention)
            for kind in root_branches(certificate_json(cert)["stages"]):
                branches[q.field.characteristic, kind] += 1
    for p in (0, 5):
        for kind in ("extension witness", "irreducible meet", "rational meet", "coincide"):
            assert branches[p, kind] >= 1, (p, kind, branches)


def test_parsing_does_no_field_element_arithmetic(request):
    docs = _input_documents()
    expected = [_parsed(doc) for doc in docs]
    request.getfixturevalue("no_field_arithmetic")
    with pytest.raises(AssertionError):
        Fraction(1, 2) * 3
    assert [_parsed(doc) for doc in docs] == expected
    fields = {doc.get("field", "Q") for doc in docs if doc.get("family") == "type-a"}
    assert {"Q", "Fp:5", "Fp:7", "Fp:101", "Fp:10007"} <= fields
    assert sum(isinstance(out[0], type) for out in expected) >= 5
