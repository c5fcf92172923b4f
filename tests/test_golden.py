"""Golden certificate digests.

``golden.json`` pins the sha256 of the canonical certificate bytes,
``canonical_json_bytes(full_pipeline(q, convention).to_dict())``, for
the bundled corpus under both conventions and for a fixed set of seeded
inputs over QQ, F_5 and F_10007 whose verdicts span ``certified``,
``geometricity``, ``determinant`` and ``lines``.  Targeted entries, drawn
until a certificate shows a named branch (``kind``), cover the rare roots
of the two root classifiers: meets at conjugate roots in a quadratic
extension over QQ, F_5, F_7 and F_10007, a geometricity witness over an
extension of QQ and of F_7, and coinciding lines over F_5.  The F_7 and
F_10007 entries print a discriminant mod p in ``extension_minpoly``.  The seeded inputs are stored in the
file in the quintuple file format, so the digests do not depend on any
random generator.

A refactor must leave every digest unchanged.  A deliberate change of
certificate bytes bumps the certificate schema and rewrites the file:

    PYTHONPATH=src python tests/test_golden.py
"""

import hashlib
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from helpers import root_branches
from ncquad.certify import full_pipeline
from ncquad.corpus import corpus_names, corpus_path
from ncquad.fileformat import (
    canonical_json_bytes,
    field_from_str,
    load_quintuple,
    parse_quintuple_file,
    tensor_nested_strings,
)
from ncquad.quintuples import SLOT_LABELS, Quintuple, build_type_a
from ncquad.tensors import Tensor

GOLDEN = Path(__file__).with_name("golden.json")
CONVENTIONS = ("ruling", "literal")
REQUIRED_VERDICTS = {"certified", "geometricity", "determinant", "lines"}
REQUIRED_FIELDS = {"Q", "Fp:5", "Fp:7", "Fp:10007"}
REQUIRED_KINDS = {("Q", "irreducible meet"), ("Fp:5", "irreducible meet"),
                  ("Q", "extension witness"), ("Fp:5", "coincide"),
                  ("Fp:7", "extension witness"), ("Fp:7", "irreducible meet"),
                  ("Fp:10007", "irreducible meet")}


def _digest_and_verdict(q, convention):
    cert = full_pipeline(q, convention)
    digest = hashlib.sha256(canonical_json_bytes(cert.to_dict())).hexdigest()
    verdict = "certified" if cert.certified else cert.verdict["stage"]
    return digest, verdict


def _golden():
    return json.loads(GOLDEN.read_text())


def _cases():
    doc = _golden()
    for entry in doc["corpus"]:
        yield pytest.param(entry, id=f"corpus-{entry['name']}-{entry['convention']}")
    for k, entry in enumerate(doc["seeded"]):
        yield pytest.param(entry, id=f"seeded-{k:02d}-{entry['input']['field']}-"
                                     f"{entry['convention']}-{entry['verdict']}")


def _quintuple(entry):
    if "name" in entry:
        q, _ = load_quintuple(str(corpus_path(entry["name"])))
        return q
    q, _ = parse_quintuple_file(entry["input"])
    return q


# an absent file collects no digest cases; the coverage test below fails on it
@pytest.mark.parametrize("entry", list(_cases()) if GOLDEN.exists() else [])
def test_certificate_digest_unchanged(entry):
    digest, verdict = _digest_and_verdict(_quintuple(entry), entry["convention"])
    assert verdict == entry["verdict"]
    assert digest == entry["sha256"]


def test_golden_set_covers_corpus_fields_and_verdicts():
    doc = _golden()
    assert {(e["name"], e["convention"]) for e in doc["corpus"]} == {
        (name, c) for name in corpus_names() for c in CONVENTIONS}
    seeded = doc["seeded"]
    assert len(seeded) >= 40
    assert {e["input"]["field"] for e in seeded} == REQUIRED_FIELDS
    assert {e["verdict"] for e in seeded} >= REQUIRED_VERDICTS
    assert set(CONVENTIONS) <= {e["convention"] for e in seeded}
    assert {(e["input"]["field"], e["kind"]) for e in seeded if "kind" in e} == REQUIRED_KINDS


def test_targeted_entries_show_their_kind():
    for entry in _golden()["seeded"]:
        if "kind" in entry:
            cert = full_pipeline(_quintuple(entry), entry["convention"])
            assert entry["kind"] in root_branches(cert.stages)


# -- regeneration (run this file as a script) ---------------------------------

SPARSE = (-1, 0, 0, 1)
SPARSE_F5 = (-1, 0, 0, 0, 1)
WIDE = (-1, 0, 0, 1, 2, 3)

# (field, convention, sampler, wanted count per verdict)
PLAN = (
    ("Q", "literal", "sparse", {"certified": 3, "geometricity": 3, "determinant": 2, "lines": 2}),
    ("Q", "ruling", "type-a", {"certified": 4, "determinant": 1}),
    ("Q", "literal", "type-a", {"certified": 2, "determinant": 1, "lines": 2}),
    ("Fp:5", "literal", "sparse", {"certified": 3, "geometricity": 3, "determinant": 2, "lines": 3}),
    ("Fp:5", "ruling", "sparse", {"certified": 1, "geometricity": 1}),
    ("Fp:10007", "literal", "sparse", {"certified": 2, "geometricity": 2, "determinant": 1, "lines": 2}),
    ("Fp:10007", "ruling", "type-a", {"certified": 2, "determinant": 1}),
)


# (field, convention, sampler, kind), drawn from seed len(PLAN) + k
TARGETED = (
    ("Q", "literal", "sparse", "irreducible meet"),
    ("Fp:5", "literal", "sparse", "irreducible meet"),
    ("Q", "literal", "sparse", "extension witness"),
    ("Fp:5", "literal", "sparse", "coincide"),
    ("Fp:7", "literal", "wide", "extension witness"),
    ("Fp:7", "literal", "wide", "irreducible meet"),
    ("Fp:10007", "literal", "wide", "irreducible meet"),
)


def _draw(rng, field, sampler):
    if sampler == "type-a":
        while True:
            triple = tuple(field.of(Fraction(rng.randint(-20, 20), rng.randint(1, 20)))
                           for _ in range(3))
            try:
                return build_type_a(*triple, field)
            except (ValueError, ZeroDivisionError):
                continue
    pool = WIDE if sampler == "wide" else SPARSE_F5 if getattr(field, "p", None) == 5 else SPARSE
    while True:
        entries = [rng.choice(pool) for _ in range(16)]
        if any(entries):
            return Quintuple(Tensor(field, (2, 2, 2, 2), [field.of(x) for x in entries],
                                    SLOT_LABELS))


def regenerate():
    corpus = []
    for name in corpus_names():
        q, _ = load_quintuple(str(corpus_path(name)))
        for convention in CONVENTIONS:
            digest, verdict = _digest_and_verdict(q, convention)
            corpus.append({"name": name, "convention": convention,
                           "verdict": verdict, "sha256": digest})
    seeded = []
    for seed, (field_str, convention, sampler, wanted) in enumerate(PLAN):
        rng = random.Random(seed)
        field = field_from_str(field_str)
        left = dict(wanted)
        while any(left.values()):
            q = _draw(rng, field, sampler)
            digest, verdict = _digest_and_verdict(q, convention)
            if left.get(verdict, 0) == 0:
                continue
            left[verdict] -= 1
            seeded.append({
                "input": {"field": field_str, "w": tensor_nested_strings(q)},
                "convention": convention,
                "verdict": verdict,
                "sha256": digest,
            })
    for k, (field_str, convention, sampler, kind) in enumerate(TARGETED):
        rng = random.Random(len(PLAN) + k)
        field = field_from_str(field_str)
        while True:
            q = _draw(rng, field, sampler)
            cert = full_pipeline(q, convention)
            if kind in root_branches(cert.stages):
                break
        digest, verdict = _digest_and_verdict(q, convention)
        seeded.append({
            "input": {"field": field_str, "w": tensor_nested_strings(q)},
            "convention": convention,
            "verdict": verdict,
            "kind": kind,
            "sha256": digest,
        })
    doc = {"corpus": corpus, "seeded": seeded}
    GOLDEN.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(corpus)} corpus and {len(seeded)} seeded digests to {GOLDEN}")


if __name__ == "__main__":
    regenerate()
