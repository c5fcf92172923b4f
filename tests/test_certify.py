import copy
import hashlib
import json
import random
import sys
from collections import Counter
from collections.abc import Mapping
from importlib import import_module
from pathlib import Path

import pytest

from helpers import random_type_a_triple
import ncquad.certify
from ncquad.certify import (
    OBJECTS,
    ExtTable,
    ExtTableError,
    SharedCell,
    full_pipeline,
    ext_table,
    gram_of,
    replay_table,
)
from ncquad.corpus import corpus_path
from ncquad.fileformat import (
    canonical_json_bytes,
    input_digest,
    load_quintuple,
    parse_quintuple_file,
)
from ncquad.grassmann import line_relation
from ncquad.linalg import Matrix
from ncquad.quintuples import build_linear_quadric, build_type_a, relations, truncated_dims
from ncquad.squares import (
    BLOCK_GRAM,
    gram_base_change,
    linear_quiver,
    square_from_quintuple,
)


def _table(sq):
    return ext_table(sq, line_relation(sq.line(1)))


def test_ext_table_expected_cells():
    sq = square_from_quintuple(build_linear_quadric(), "ruling")
    t = _table(sq)
    assert t.dims(0, 0) == (1, 0, 0, 0, 0)
    assert t.dims(0, 1) == (2, 0, 0, 0, 0)
    assert t.dims(0, 2) == (2, 0, 0, 0, 0)
    assert t.dims(0, 3) == (4, 0, 0, 0, 0)
    for i in range(1, 4):
        for j in range(0, i):
            assert t.dims(i, j) == (0, 0, 0, 0, 0)
    assert t.dims(1, 2) == (0, 0, 0, 0, 0)
    assert t.dims(2, 1) == (0, 0, 0, 0, 0)
    for i in range(4):
        assert t.dims(i, i) == (1, 0, 0, 0, 0)
    assert t.dims(1, 3) == (2, 0, 0, 0, 0)
    assert t.dims(2, 3) == (2, 0, 0, 0, 0)


def test_ext_table_leaf_values_in_derivations():
    sq = square_from_quintuple(build_type_a(1, 2, 3), "ruling")
    t = _table(sq)
    cell = t.cells[(0, 1)]["derivation"]
    assert cell["rule"] == "les-covariant"
    assert cell["hom"]["value"] == 2                     # Hom(p*R, C_i) leaf
    assert cell["middle"]["dims"][0] == 8                # Hom(p*R, O^2) leaf
    assert cell["quotient"]["dims"][0] == 6              # Hom(p*R, O_E(1,0)) leaf
    back = t.cells[(1, 0)]["derivation"]
    assert back["rule"] == "les-contravariant"
    assert back["sub"]["rule"] == "serre-dual"
    assert back["sub"]["child"]["m"] == -2 and back["sub"]["child"]["n"] == -2


def test_ext_table_requires_disjoint_lines():
    sq = square_from_quintuple(build_type_a(0, 1, 1), "literal")
    with pytest.raises(ExtTableError, match="disjoint"):
        _table(sq)


def test_gram_of_equals_block_gram():
    sq = square_from_quintuple(build_linear_quadric(), "ruling")
    t = _table(sq)
    assert gram_of(t) == BLOCK_GRAM
    total = sum(sum(r) for r in gram_of(t))
    assert total == 16


def _tampered(t, key, *path):
    """A copy of table ``t`` and the node at ``path`` under cell ``key``."""
    cells = copy.deepcopy(t.cells)
    node = cells[key]["derivation"]
    for field in path:
        node = node[field]
    return ExtTable(t.objects, cells), node


def test_replay_validates_and_detects_tampering():
    sq = square_from_quintuple(build_linear_quadric(), "ruling")
    t = _table(sq)
    assert replay_table(t, sq)
    # tamper with a stored dimension: replay must refuse it
    bad, node = _tampered(t, (0, 1))
    node["dims"][0] = 3
    with pytest.raises(ExtTableError):
        replay_table(bad, sq)
    # tamper with a leaf inside the tree as well
    bad, node = _tampered(t, (0, 1), "quotient")
    node["dims"][0] = 7
    with pytest.raises(ExtTableError):
        replay_table(bad, sq)


def _node_paths(node, path=()):
    """Key paths to every derivation node (every dict with stored dims)
    below and including ``node``, found by walking all dict values."""
    if "dims" in node:
        yield path
    for key, value in node.items():
        if isinstance(value, dict):
            yield from _node_paths(value, path + (key,))


def test_replay_rejects_every_single_dim_bump():
    sq = square_from_quintuple(build_type_a(1, 2, 3), "ruling")
    t = _table(sq)
    cases = 0
    for key, cell in t.cells.items():
        for path in _node_paths(cell["derivation"]):
            for k in range(5):
                bad, node = _tampered(t, key, *path)
                node["dims"][k] += 1
                with pytest.raises(ExtTableError):
                    replay_table(bad, sq)
                cases += 1
    assert cases == 420
    assert replay_table(t, sq)


@pytest.mark.parametrize("key, path, field, value, reason", [
    ((0, 1), ("hom",), "value", 3, "hom-R-K leaf"),
    ((0, 2), ("hom",), "line", 0, "hom-R-K leaf"),
    ((0, 3), ("hom",), "value", 5, "strong-pair leaf"),
    ((0, 1), ("middle", "child", "hom"), "value", 3, "strong-pair leaf"),
    ((0, 0), (), "name", "pair-backward:O,p*R", "disagree with stored"),
    ((3, 3), (), "name", "exceptional:P", "unknown axiom"),
    ((0, 3), (), "rule", "axiom", "malformed node"),
    ((1, 1), ("middle",), "rule", "bogus", "unknown rule"),
    ((0, 1), (), "hom_mode", "forced-zero", "forced-zero mode"),
    ((3, 1), (), "hom_mode", "leaf", "hom-R-K leaf"),
    ((3, 1), (), "hom_mode", "bogus", "unknown covariant mode"),
    ((1, 3), (), "mode", "middle-vanishes", "middle-vanishes mode"),
    ((1, 0), (), "mode", "bogus", "unknown contravariant mode"),
    ((1, 2), ("sub", "quotient"), "objects", ["O_E0(1,0)", "O_E0(1,0)"], "distinct"),
])
def test_replay_rejects_tampered_fields(key, path, field, value, reason):
    sq = square_from_quintuple(build_linear_quadric(), "ruling")
    t = _table(sq)
    bad, node = _tampered(t, key, *path)
    assert node[field] != value
    node[field] = value
    with pytest.raises(ExtTableError, match=reason):
        replay_table(bad, sq)


def test_replay_rejects_a_consistent_table_with_wrong_values():
    # every node replays, but the (p*R, p*R) cell derives the backward
    # pair's zero and the Euler row 0 would read (0, 2, 2, 4)
    sq = square_from_quintuple(build_linear_quadric(), "ruling")
    t = _table(sq)
    bad, node = _tampered(t, (0, 0))
    node["name"] = "pair-backward:O,p*R"
    node["dims"] = [0, 0, 0, 0, 0]
    bad.cells[(0, 0)]["dims"] = [0, 0, 0, 0, 0]
    assert gram_of(bad)[0] == (0, 2, 2, 4)
    with pytest.raises(ExtTableError, match=r"cell \(0,0\) has dims \[0, 0, 0, 0, 0\], "
                                            r"expected \[1, 0, 0, 0, 0\]"):
        replay_table(bad, sq)


def _swapped(t, a, b):
    cells = copy.deepcopy(t.cells)
    cells[a], cells[b] = cells[b], cells[a]
    return ExtTable(t.objects, cells)


def test_replay_rejects_swapped_cells_with_equal_dims():
    # (C0, C1) and (C1, C0) both derive zero, each from its own C_i; every
    # node replays, so only the pair a cell's top node names tells them apart
    sq = square_from_quintuple(build_linear_quadric(), "ruling")
    t = _table(sq)
    with pytest.raises(ExtTableError, match=r"cell \(1,2\) derives the pair \('C1', 'C0'\)"):
        replay_table(_swapped(t, (1, 2), (2, 1)), sq)
    # so does every other swap of two cells with equal dims
    keys = sorted(t.cells)
    swaps = [(a, b) for n, a in enumerate(keys) for b in keys[n + 1:]
             if t.cells[a]["dims"] == t.cells[b]["dims"]]
    assert len(swaps) == 33
    for a, b in swaps:
        with pytest.raises(ExtTableError, match="derives the pair"):
            replay_table(_swapped(t, a, b), sq)


def test_replay_rejects_a_table_with_a_missing_cell():
    sq = square_from_quintuple(build_linear_quadric(), "ruling")
    bad, _ = _tampered(_table(sq), (0, 3))
    del bad.cells[(0, 3)]
    with pytest.raises(ExtTableError, match=r"cell \(0,3\) is missing"):
        replay_table(bad, sq)


def test_hom_leaf_failure_reason_is_pinned(monkeypatch):
    monkeypatch.setattr("ncquad.certify.hom_R_K_dim", lambda line: 3)
    cert = full_pipeline(build_type_a(1, 2, 3), "ruling")
    assert cert.verdict == {"certified": False, "stage": "ext_table",
                            "reason": "Hom(R, K_0) leaf is 3, not 2"}
    assert cert.stages[-1] == {"stage": "ext_table", "passed": False,
                               "error": "Hom(R, K_0) leaf is 3, not 2"}


def test_full_pipeline_paper_verdicts():
    cert = full_pipeline(build_linear_quadric(), "ruling")
    assert cert.certified
    assert [s["stage"] for s in cert.stages] == [
        "geometricity", "relations", "determinant", "lines",
        "quiver", "ext_table", "gram"]

    cert_lit = full_pipeline(build_type_a(0, 1, 1), "literal")
    assert not cert_lit.certified
    assert cert_lit.verdict["stage"] == "lines"
    assert cert_lit.verdict["reason"] == "Coincide"

    cert_det = full_pipeline(build_type_a(1, 1, 2), "ruling")
    assert not cert_det.certified
    assert cert_det.verdict["stage"] == "determinant"


def test_certificate_determinism():
    q = build_type_a(1, 2, 3)
    b1 = canonical_json_bytes(full_pipeline(q, "ruling").to_dict())
    b2 = canonical_json_bytes(full_pipeline(q, "ruling").to_dict())
    assert b1 == b2
    doc = json.loads(b1)
    assert doc["verdict"] == {"certified": True}
    assert doc["input"]["digest"] == input_digest(q)


def test_certificate_serializes_witnesses():
    cert = full_pipeline(build_type_a(0, 1, 1), "literal")
    doc = cert.to_dict()
    lines_stage = [s for s in doc["stages"] if s["stage"] == "lines"][0]
    assert lines_stage["relation"]["verdict"] == "Coincide"
    assert lines_stage["relation"]["psi_reshuffle_rank"] == 1


def test_triple_gram_agreement_on_certified():
    rng = random.Random(71)
    done = 0
    while done < 10:
        _, q = random_type_a_triple(rng)
        cert = full_pipeline(q, "ruling")
        if not cert.certified:
            continue
        square = square_from_quintuple(q, "ruling")
        lines = line_relation(square.line(1))
        assert gram_of(ext_table(square, lines)) == BLOCK_GRAM
        rel = relations(q)
        assert gram_base_change(linear_quiver(rel, truncated_dims(rel))) == BLOCK_GRAM
        done += 1


def test_full_pipeline_over_prime_field():
    from ncquad.fields import GF

    F = GF(101)
    q = build_type_a(F.of(3), F.of(5), F.of(7), F)
    cert = full_pipeline(q, "ruling")
    assert cert.certified
    assert cert.field == "Fp:101"
    assert canonical_json_bytes(cert.to_dict()) == canonical_json_bytes(
        full_pipeline(q, "ruling").to_dict())


def _pure_tensor():
    """The quintuple with w[0,0,0,0] = 1 and every other entry 0."""
    from ncquad.quintuples import SLOT_LABELS, Quintuple
    from ncquad.fields import QQ
    from ncquad.tensors import Tensor

    entries = [QQ.of(0)] * 16
    entries[0] = QQ.of(1)
    return Quintuple(Tensor(QQ, (2, 2, 2, 2), entries, SLOT_LABELS))


def test_degenerate_reports_first_failing_stage():
    cert = full_pipeline(_pure_tensor())
    assert not cert.certified
    assert cert.verdict["stage"] == "geometricity"
    # stage list stops at the failure
    assert [s["stage"] for s in cert.stages] == ["geometricity"]


def test_unknown_convention_rejected_before_any_stage(monkeypatch):
    # the pure tensor stops at geometricity, before the square would
    # notice the convention
    with pytest.raises(ValueError, match="unknown convention 'bogus'"):
        full_pipeline(_pure_tensor(), "bogus")

    def first_stage(q):
        raise AssertionError("a stage ran before the convention was checked")

    monkeypatch.setattr(ncquad.certify, "is_geometric", first_stage)
    with pytest.raises(ValueError, match="unknown convention"):
        full_pipeline(build_type_a(1, 2, 3), "bogus")


COUNTED_STAGES = (
    ("quintuples", "relations"),
    ("quintuples", "truncated_dims"),
    ("squares", "square_from_quintuple"),
    ("squares", "block_quiver"),
    ("squares", "linear_quiver"),
    ("grassmann", "line_relation"),
)


@pytest.mark.parametrize("convention", ["ruling", "literal"])
def test_full_pipeline_computes_each_stage_once(monkeypatch, convention):
    counts = Counter()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    # rebind every ncquad binding of each stage function, so a call made
    # through any module's import of it is counted
    for modname, name in COUNTED_STAGES:
        original = getattr(import_module(f"ncquad.{modname}"), name)
        wrapper = counting(name, original)
        for mod in [m for k, m in sys.modules.items() if k.startswith("ncquad")]:
            if vars(mod).get(name) is original:
                monkeypatch.setattr(mod, name, wrapper)

    cert = full_pipeline(build_type_a(1, 2, 3), convention)
    assert cert.certified
    assert counts == {name: 1 for _, name in COUNTED_STAGES}
    # nothing inverts a matrix: the square writes phi_1 as an adjugate
    assert not hasattr(Matrix, "inverse")


def _vandalize(value):
    """Change in place every dict and list reachable from ``value``; a
    read-only mapping is walked through the values it hands out."""
    if isinstance(value, dict):
        for item in list(value.values()):
            _vandalize(item)
        for key in list(value):
            value[key] = "vandalized"
        value["vandalized"] = [0]
    elif isinstance(value, list):
        for item in value:
            _vandalize(item)
        value[:] = ["vandalized"]
    elif isinstance(value, Mapping):
        for item in value.values():
            _vandalize(item)
        with pytest.raises(TypeError):
            value["cells"] = {}


def _golden_certified(convention):
    """(quintuple, sha256) of every certified golden entry under ``convention``."""
    doc = json.loads(Path(__file__).with_name("golden.json").read_text())
    for entry in doc["corpus"] + doc["seeded"]:
        if entry["convention"] == convention and entry["verdict"] == "certified":
            if "name" in entry:
                q, _ = load_quintuple(str(corpus_path(entry["name"])))
            else:
                q, _ = parse_quintuple_file(entry["input"])
            yield q, entry["sha256"]


@pytest.mark.parametrize("convention", ["ruling", "literal"])
def test_shared_cells_survive_mutating_what_callers_get(convention):
    q = build_type_a(1, 2, 3)
    _vandalize(full_pipeline(q, convention).to_dict())
    square = square_from_quintuple(q, convention)
    table = ext_table(square, line_relation(square.line(1)))
    shared = [cell for cell in table.cells.values() if isinstance(cell, SharedCell)]
    assert len(shared) == 14
    for cell in shared:
        with pytest.raises(AttributeError, match="read-only SharedCell"):
            cell.text = "{}"
    _vandalize(table.cells)
    square = square_from_quintuple(q, convention)
    fresh = ext_table(square, line_relation(square.line(1)))
    assert fresh.dims(0, 3) == (4, 0, 0, 0, 0)
    assert replay_table(fresh, square)
    goldens = list(_golden_certified(convention))
    assert goldens
    for other, sha256 in goldens:
        cert_bytes = canonical_json_bytes(full_pipeline(other, convention).to_dict())
        assert hashlib.sha256(cert_bytes).hexdigest() == sha256


def test_shared_cells_are_derived_once_per_process(monkeypatch):
    # count the top-level derivations of each cell: the 14 shared cells
    # once, the two (p*R, C_i) cells once per table
    top, depth = Counter(), [0]
    original = ncquad.certify._ext

    def counting(hom, x, y):
        if depth[0] == 0:
            top[(x, y)] += 1
        depth[0] += 1
        try:
            return original(hom, x, y)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(ncquad.certify, "_ext", counting)
    ncquad.certify._shared_cells.cache_clear()
    rng = random.Random(72)
    certified = Counter()
    while min(certified["ruling"], certified["literal"]) < 20:
        _, q = random_type_a_triple(rng)
        for convention in ("ruling", "literal"):
            if certified[convention] < 20 and full_pipeline(q, convention).certified:
                certified[convention] += 1
    input_cells = {("p*R", "C0"), ("p*R", "C1")}
    assert top == {(x, y): 40 if (x, y) in input_cells else 1 for x in OBJECTS for y in OBJECTS}
    # only the per-input cells hold a Hom(R, K_i) leaf
    for cell in ncquad.certify._shared_cells().values():
        assert "hom-R-K-leaf" not in cell.text
