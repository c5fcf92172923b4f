"""``input_digest`` against the nested-document path it replaces.

``input_digest(q)`` formats the canonical input bytes straight from the
integer row of w.  The oracle builds the document {"field", "w"} with w
nested by ``tensor_nested_strings`` and encodes it with
``canonical_json_bytes``; both must hash the same bytes on the golden
inputs, the bundled corpus, every loadable file in ``tests/data`` and
10,000 seeded inputs: fractions and negative entries over QQ, residues
over F_5, F_7 and F_10007, integers past the int-to-decimal digit limit
(4300 digits since CPython 3.10.7) and fractions whose denominators are
past it, which ``fields._exact_str`` writes.  ``recompute_input_digest``,
which imports nothing from ncquad and writes a family file's w from the
monomials of its docstring, must agree on every w-file and on every
family file that names an admissible input: the corpus, the type-A files
of ``tests/data`` and seeded type-A and linear documents.
"""

import hashlib
import json
import random
from fractions import Fraction
from pathlib import Path

from ncquad.corpus import corpus_names, corpus_path
from ncquad.fields import GF, QQ
from ncquad.fileformat import (
    ExcludedInput,
    InputError,
    canonical_json_bytes,
    field_to_str,
    input_digest,
    load_quintuple,
    parse_quintuple_file,
    tensor_nested_strings,
)
from ncquad.quintuples import SLOT_LABELS, Quintuple
from ncquad.tensors import Tensor

_TESTS = Path(__file__).parent
BIG = 10 ** 4400        # past the digit limit, so str() of it raises ValueError
FIELDS = (QQ, GF(5), GF(7), GF(10007))


def _oracle(q) -> str:
    doc = {"field": field_to_str(q.field), "w": tensor_nested_strings(q)}
    return hashlib.sha256(canonical_json_bytes(doc)).hexdigest()


def _quintuple(field, entries):
    return Quintuple(Tensor(field, (2, 2, 2, 2), entries, SLOT_LABELS))


def test_digest_of_every_golden_corpus_and_data_input():
    golden = json.loads((_TESTS / "golden.json").read_text())
    qs = [parse_quintuple_file(entry["input"])[0] for entry in golden["seeded"]]
    qs += [load_quintuple(str(corpus_path(name)))[0] for name in corpus_names()]
    loaded = 0
    for path in sorted((_TESTS / "data").glob("*.json")):
        try:
            qs.append(load_quintuple(str(path))[0])
            loaded += 1
        except (InputError, ExcludedInput):
            continue
    assert loaded >= 18 and len(qs) >= 72
    for q in qs:
        assert input_digest(q) == _oracle(q), q


def _entries(rng, kind):
    """16 entries, about a third of them zero, of the given kind."""
    def one():
        if kind == "fraction":
            return Fraction(rng.randint(-50, 50), rng.randint(1, 60))
        if kind == "integer":
            return rng.randint(-10 ** 6, 10 ** 6)
        if kind == "residue":
            return rng.randint(-20000, 20000)
        if kind == "big integer":
            return rng.choice((-1, 1)) * (BIG + rng.getrandbits(64))
        if kind == "big denominator":
            return Fraction(rng.randint(-9, 9), BIG * rng.randint(1, 6))
        # a big numerator over a small denominator
        return Fraction(rng.choice((-1, 1)) * (BIG + rng.getrandbits(32)), rng.randint(1, 12))
    return [one() if rng.random() < 2 / 3 else 0 for _ in range(16)]


def test_digest_of_10000_seeded_inputs():
    rng = random.Random(2801)
    seen = {}
    while sum(seen.values()) < 10000:
        k = sum(seen.values())
        if k % 50 == 0:     # one input in 50 holds numbers past the digit limit
            field = QQ
            kind = ("big integer", "big denominator", "big numerator")[k // 50 % 3]
        else:
            field = FIELDS[k % 4]
            kind = ("fraction", "integer")[k % 8 // 4] if field is QQ else "residue"
        try:
            q = _quintuple(field, _entries(rng, kind))
        except ValueError:      # w = 0
            continue
        assert input_digest(q) == _oracle(q), (kind, field)
        seen[kind, field_to_str(field)] = seen.get((kind, field_to_str(field)), 0) + 1
    assert {key: n >= 60 for key, n in seen.items()} == {
        key: True for key in [("fraction", "Q"), ("integer", "Q"), ("big integer", "Q"),
                              ("big denominator", "Q"), ("big numerator", "Q"),
                              ("residue", "Fp:5"), ("residue", "Fp:7"), ("residue", "Fp:10007")]}


def test_stdlib_recomputation_agrees_on_every_w_file():
    # the digest check the CI runs on certificates, which imports nothing
    # from ncquad, against input_digest on the same files
    from recompute_input_digest import recompute

    golden = json.loads((_TESTS / "golden.json").read_text())
    docs = [entry["input"] for entry in golden["seeded"]]
    docs += [json.loads(path.read_text()) for path in sorted((_TESTS / "data").glob("*.json"))]
    docs = [doc for doc in docs if "w" in doc]
    assert len(docs) >= 59
    for doc in docs:
        assert recompute(doc) == input_digest(parse_quintuple_file(doc)[0]), doc


def _coefficient(rng) -> str:
    """A type-A coefficient as a file spells it: an integer, a fraction or a
    decimal, small enough to meet the excluded locus, over a denominator
    that no prime of FIELDS divides."""
    n = rng.randint(-4, 4)
    kind = rng.randrange(3)
    if kind == 0:
        return str(n)
    if kind == 1:
        return f"{n}/{rng.choice((1, 2, 3, 4, 6, 12))}"
    return f"{n}.{rng.choice(('5', '25', '0'))}"


def test_stdlib_recomputation_agrees_on_every_family_file():
    from recompute_input_digest import recompute

    docs = [json.loads(corpus_path(name).read_text()) for name in corpus_names()]
    docs += [json.loads(path.read_text()) for path in sorted((_TESTS / "data").glob("typea-*.json"))]
    specs = [field_to_str(field) for field in FIELDS]
    docs += [{"family": "linear", "field": spec} for spec in specs]
    rng = random.Random(3601)
    docs += [{"family": "type-a", "field": specs[k % 4], **{key: _coefficient(rng) for key in "abc"}}
             for k in range(800)]
    checked = excluded = 0
    for doc in docs:
        try:
            q = parse_quintuple_file(doc)[0]
        except ExcludedInput:
            excluded += 1
            continue
        assert recompute(doc) == input_digest(q), doc
        checked += 1
    assert checked >= 700 and excluded >= 20, (checked, excluded)
