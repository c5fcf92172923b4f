"""``full_pipeline`` decides and ``Certificate.to_dict`` explains.

``full_pipeline`` runs the three stages that can fail (geometricity, the
determinant and the lines) and returns the record of what they decided.
Only ``Certificate.to_dict`` builds the schema/1 document, hashes the
input and runs the stages those three force: relations, the quivers and
the mutation, the Ext table and the gram.  These tests check that
deciding touches none of the renderers and none of the forced stages,
that every deciding stage call stays a direct call from
``full_pipeline``, and that rendering calls each forced stage once,
directly from ``to_dict``.
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
from test_certify import _count_calls

TESTS = Path(__file__).resolve().parent
CONVENTIONS = ("ruling", "literal")
RENDERERS = ("input_digest", "_geometricity_json", "_line_relation_json",
             "_geometricity_stage", "_lines_stage", "_relations_stage", "_quiver_stage",
             "_ext_table_stage", "_gram_stage", "gram_base_change")
FORCED = (("quintuples", "relations"), ("quintuples", "truncated_dims"),
          ("squares", "block_quiver"), ("squares", "linear_quiver"),
          ("squares", "mutate_linear_to_block"), ("certify", "ext_table"),
          ("certify", "gram_of"))


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
    forced = _count_calls(monkeypatch, FORCED)
    # deciding builds no shared stage document, so it encodes no JSON
    monkeypatch.setattr(FrozenJSON, "__init__", refuse)
    stages = set()
    for q, convention, expected in cases:
        cert = full_pipeline(q, convention)
        assert _decided(cert) == expected
        stages.add(cert.stage)
        with pytest.raises(AssertionError, match="deciding rendered"):
            cert.to_dict()
    assert stages == {"", "geometricity", "determinant", "lines"}
    assert forced == {}


def _spans_module():
    """``perfbench/spans.py``, executed from its source text, so that no
    bytecode is written beside it."""
    path = TESTS.parent / "perfbench" / "spans.py"
    module = types.ModuleType("spans")
    exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    return module


def _trace(spans, call):
    """``call()`` and the spans recorded while it runs."""
    with spans.Tracer() as tracer:
        tracer.recording = True
        result = call()
        tracer.recording = False
        return result, tracer.take()


def _stage_calls(recorded, keys) -> list:
    """(key, caller) of each recorded call whose key is in ``keys``."""
    return [(key, recorded[parent][0] if parent >= 0 else None)
            for key, parent, _, _ in recorded if key in keys]


@pytest.mark.parametrize("convention", CONVENTIONS)
def test_every_deciding_stage_call_is_a_direct_call_from_full_pipeline(convention):
    spans = _spans_module()
    cert, recorded = _trace(spans, lambda: ncquad.certify.full_pipeline(
        build_type_a(1, 2, 3), convention))
    assert cert.certified
    calls = _stage_calls(recorded, spans.STAGE_OF)
    assert {caller for _, caller in calls} == {spans.PIPELINE}
    assert {spans.STAGE_OF[key] for key, _ in calls} == {"geometricity", "determinant", "lines"}
    stage_ms = spans.summarize(recorded)["stage_ms"]
    assert {"geometricity", "determinant", "lines"} <= set(stage_ms)


@pytest.mark.parametrize("convention", CONVENTIONS)
def test_rendering_calls_each_forced_stage_once_from_to_dict(convention):
    spans = _spans_module()
    cert = full_pipeline(build_type_a(1, 2, 3), convention)
    cert.to_dict()   # builds the shared stage documents
    # to_dict is looked up inside the call, so the tracer's wrapper runs
    _, recorded = _trace(spans, lambda: cert.to_dict())
    forced = {f"{mod}.{name}" for mod, name in FORCED}
    calls = sorted(_stage_calls(recorded, forced))
    # the relations document is shared, so only the linear quiver reads the window
    assert calls == sorted([(key, "certify.Certificate.to_dict")
                            for key in forced - {"quintuples.truncated_dims"}]
                           + [("quintuples.truncated_dims", "squares.linear_quiver")])
