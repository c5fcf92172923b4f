"""Deciding and rendering are separate steps.

``full_pipeline`` returns the record of what the stages decided; only
``Certificate.to_dict`` builds the schema/1 document, and only it hashes
the input.  These tests check that deciding touches none of the
renderers, and that every stage call stays a direct call from
``full_pipeline``, which is how the span tracer in ``perfbench/spans.py``
attributes time to stages.
"""

import json
import types
from pathlib import Path

import pytest

import ncquad.certify
from ncquad.certify import full_pipeline
from ncquad.corpus import corpus_path
from ncquad.fileformat import FrozenJSON, load_quintuple, parse_quintuple_file
from ncquad.quintuples import build_type_a

TESTS = Path(__file__).resolve().parent
CONVENTIONS = ("ruling", "literal")
RENDERERS = ("input_digest", "_geometricity_json", "_line_relation_json",
             "_relations_stage", "_quiver_stage", "_ext_table_stage", "gram_base_change")


def _golden():
    doc = json.loads((TESTS / "golden.json").read_text())
    for entry in doc["corpus"] + doc["seeded"]:
        if "name" in entry:
            q, _ = load_quintuple(str(corpus_path(entry["name"])))
        else:
            q, _ = parse_quintuple_file(entry["input"])
        yield q, entry


def _decided(cert):
    return cert.certified, cert.stage, cert.verdict


def test_deciding_renders_nothing(monkeypatch):
    cases = []
    for q, entry in _golden():
        for convention in CONVENTIONS:
            expected = _decided(full_pipeline(q, convention))
            if convention == entry["convention"]:
                assert (expected[1] or "certified") == entry["verdict"]
            cases.append((q, convention, expected))

    def refuse(*args, **kwargs):
        raise AssertionError("deciding rendered a document or hashed the input")

    for name in RENDERERS:
        monkeypatch.setattr(ncquad.certify, name, refuse)
    # the cases above built the shared Ext cells, so deciding encodes no JSON
    monkeypatch.setattr(FrozenJSON, "__init__", refuse)
    stages = set()
    for q, convention, expected in cases:
        cert = full_pipeline(q, convention)
        assert _decided(cert) == expected
        stages.add(cert.stage)
        with pytest.raises(AssertionError, match="deciding rendered"):
            cert.to_dict()
    assert stages == {"", "geometricity", "determinant", "lines"}


def _spans_module():
    """``perfbench/spans.py``, executed from its source text, so that no
    bytecode is written beside it."""
    path = TESTS.parent / "perfbench" / "spans.py"
    module = types.ModuleType("spans")
    exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    return module


@pytest.mark.parametrize("convention", CONVENTIONS)
def test_every_stage_call_is_a_direct_call_from_full_pipeline(convention):
    spans = _spans_module()
    with spans.Tracer() as tracer:
        tracer.recording = True
        cert = ncquad.certify.full_pipeline(build_type_a(1, 2, 3), convention)
        tracer.recording = False
        recorded = tracer.take()
    assert cert.certified
    direct = set()
    for key, parent, _, _ in recorded:
        if key not in spans.STAGE_OF:
            continue
        assert parent >= 0, key
        caller = recorded[parent][0]
        if caller == spans.PIPELINE:
            direct.add(spans.STAGE_OF[key])
        else:
            # block_quiver and ext_table read square.line themselves; any
            # other caller is a wrapped helper that would hide the stage
            assert caller in spans.STAGE_OF, (key, caller)
    assert direct == set(spans.STAGES[:7])
    stage_ms = spans.summarize(recorded)["stage_ms"]
    assert set(spans.STAGES[:7]) <= set(stage_ms)
