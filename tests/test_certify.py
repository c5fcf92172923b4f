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

from helpers import certificate_json, random_type_a_triple
import ncquad.certify
from ncquad.blowup import coh_p1xp2
from ncquad.certify import (
    _CELLS,
    OBJECTS,
    ExtTable,
    ExtTableError,
    _check_cell,
    _derived,
    full_pipeline,
    ext_table,
    gram_of,
    replay_table,
)
from ncquad.cli import main
from ncquad.corpus import corpus_path
from ncquad.fileformat import (
    FrozenJSON,
    canonical_json_bytes,
    input_digest,
    load_quintuple,
    parse_quintuple_file,
)
from ncquad.linalg import Matrix
from ncquad.quintuples import build_linear_quadric, build_type_a, relations
from ncquad.squares import (
    BLOCK_GRAM,
    gram_base_change,
    linear_quiver,
    square_from_quintuple,
)


def test_ext_table_expected_cells():
    sq = square_from_quintuple(build_linear_quadric(), "ruling")
    t = ext_table(sq)
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
    t = _parsed_table(build_type_a(1, 2, 3))
    cell = t.cells[(0, 1)]["derivation"]
    assert cell["rule"] == "les-covariant"
    assert cell["hom"]["value"] == 2                     # Hom(p*R, C_i) leaf
    assert cell["middle"]["dims"][0] == 8                # Hom(p*R, O^2) leaf
    assert cell["quotient"]["dims"][0] == 6              # Hom(p*R, O_E(1,0)) leaf
    back = t.cells[(1, 0)]["derivation"]
    assert back["rule"] == "les-contravariant"
    assert back["sub"]["rule"] == "serre-dual"
    assert back["sub"]["child"]["m"] == -2 and back["sub"]["child"]["n"] == -2


def test_gram_of_equals_block_gram():
    sq = square_from_quintuple(build_linear_quadric(), "ruling")
    t = ext_table(sq)
    assert gram_of(t) == BLOCK_GRAM
    total = sum(sum(r) for r in gram_of(t))
    assert total == 16


def _parsed_table(q, convention="ruling"):
    """The Ext table of ``q``'s certificate, parsed back from its bytes as
    ``perfbench/run.py`` builds it: the table that ``replay_table`` checks."""
    table = next(s for s in certificate_json(full_pipeline(q, convention))["stages"]
                 if s["stage"] == "ext_table")["table"]
    return ExtTable(tuple(table["objects"]),
                    {tuple(map(int, key.split(","))): cell for key, cell in table["cells"].items()})


def _certified_table(q=None, convention="ruling"):
    """The square of ``q`` (the linear quadric by default) and its parsed table."""
    q = build_linear_quadric() if q is None else q
    return square_from_quintuple(q, convention), _parsed_table(q, convention)


def _tampered(t, key, *path):
    """A copy of table ``t`` whose cell ``key`` is a plain deep copy, and
    the node at ``path`` under that cell; the other cells are shared."""
    cells = dict(t.cells)
    cells[key] = copy.deepcopy(cells[key])
    node = cells[key]["derivation"]
    for field in path:
        node = node[field]
    return ExtTable(t.objects, cells), node


def test_replay_validates_and_detects_tampering():
    sq, t = _certified_table()
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


def _dim_bumps(t):
    """``t`` with one stored dim of one node raised by 1, every way."""
    for key, cell in t.cells.items():
        for path in _node_paths(cell["derivation"]):
            for k in range(5):
                bad, node = _tampered(t, key, *path)
                node["dims"][k] += 1
                yield bad


def test_replay_rejects_every_single_dim_bump():
    sq, t = _certified_table(build_type_a(1, 2, 3))
    cases = 0
    for bad in _dim_bumps(t):
        with pytest.raises(ExtTableError):
            replay_table(bad, sq)
        cases += 1
    assert cases == 420
    assert replay_table(t, sq)


FIELD_TAMPERS = [
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
]


@pytest.mark.parametrize("key, path, field, value, reason", FIELD_TAMPERS)
def test_replay_rejects_tampered_fields(key, path, field, value, reason):
    sq, t = _certified_table()
    bad, node = _tampered(t, key, *path)
    assert node[field] != value
    node[field] = value
    with pytest.raises(ExtTableError, match=reason):
        replay_table(bad, sq)


def test_replay_rejects_a_consistent_table_with_wrong_values():
    # every node replays, but the (p*R, p*R) cell derives the backward
    # pair's zero and the Euler row 0 would read (0, 2, 2, 4)
    sq, t = _certified_table()
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


def _equal_dims_swaps(t):
    """Every pair of cells of ``t`` with equal dims."""
    keys = sorted(t.cells)
    return [(a, b) for n, a in enumerate(keys) for b in keys[n + 1:]
            if t.cells[a]["dims"] == t.cells[b]["dims"]]


def test_replay_rejects_swapped_cells_with_equal_dims():
    # (C0, C1) and (C1, C0) both derive zero, each from its own C_i; every
    # node replays, so only the pair a cell's top node names tells them apart
    sq, t = _certified_table()
    with pytest.raises(ExtTableError, match=r"cell \(1,2\) derives the pair \('C1', 'C0'\)"):
        replay_table(_swapped(t, (1, 2), (2, 1)), sq)
    # so does every other swap of two cells with equal dims
    swaps = _equal_dims_swaps(t)
    assert len(swaps) == 33
    for a, b in swaps:
        with pytest.raises(ExtTableError, match="derives the pair"):
            replay_table(_swapped(t, a, b), sq)


def _missing_cell(t):
    bad, _ = _tampered(t, (0, 3))
    del bad.cells[(0, 3)]
    return bad


def test_replay_rejects_a_table_with_a_missing_cell():
    sq, t = _certified_table()
    with pytest.raises(ExtTableError, match=r"cell \(0,3\) is missing"):
        replay_table(_missing_cell(t), sq)


def test_every_derived_cell_passes_check_cell():
    # the per-node walk on the one table the rules derive: each node came
    # from _rule_dims, _cell checked the dims and _ext named the pair, so
    # replay_table passes a cell equal to it without walking it
    derived = _derived((2, 2))
    assert list(derived) == list(_CELLS)
    for (i, j), cell in derived.items():
        assert _check_cell(i, j, cell, (2, 2)) is cell


def test_a_wrong_hom_leaf_is_an_internal_error_raised_by_cell(monkeypatch, capsys, tmp_path):
    # Hom(R, K_i) = 2 is forced (the hom-R-K lemma), so no verdict names
    # the Ext table: a wrong leaf fails _cell's EXPECTED_HOM check when
    # the certificate is rendered, and the CLI reports it as a bug
    monkeypatch.setattr("ncquad.certify.hom_R_K_dim", lambda line: 3)
    reason = r"cell \(p\*R, C0\) has dims \[3, 1, 0, 0, 0\], expected \[2, 0, 0, 0, 0\]"
    cert = full_pipeline(build_type_a(1, 2, 3), "ruling")
    assert cert.certified
    with pytest.raises(ExtTableError, match=reason):
        cert.to_dict()
    assert main(["certify", str(corpus_path("linear")), "--json", str(tmp_path / "c.json")]) == 3
    err = capsys.readouterr().err.strip()
    assert err.startswith("internal error: ExtTableError: cell (p*R, C0) has dims [3, 1, 0, 0, 0]")
    assert err.endswith("(raised in _cell, module ncquad.certify)")


def test_full_pipeline_paper_verdicts():
    cert = full_pipeline(build_linear_quadric(), "ruling")
    assert cert.certified
    assert [s["stage"] for s in certificate_json(cert)["stages"]] == [
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
    doc = certificate_json(cert)
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
        assert gram_of(ext_table(square_from_quintuple(q, "ruling"))) == BLOCK_GRAM
        assert gram_base_change(linear_quiver(relations(q))) == BLOCK_GRAM
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
    assert [s["stage"] for s in certificate_json(cert)["stages"]] == ["geometricity"]


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


def _count_calls(monkeypatch, stages) -> Counter:
    """Rebind every ncquad binding of each stage function, so a call made
    through any module's import of it is counted."""
    counts = Counter()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for modname, name in stages:
        original = getattr(import_module(f"ncquad.{modname}"), name)
        wrapper = counting(name, original)
        for mod in [m for k, m in sys.modules.items() if k.startswith("ncquad")]:
            if vars(mod).get(name) is original:
                monkeypatch.setattr(mod, name, wrapper)
    return counts


@pytest.mark.parametrize("convention", ["ruling", "literal"])
def test_full_pipeline_computes_each_stage_once(monkeypatch, convention):
    q = build_type_a(1, 2, 3)
    full_pipeline(q, convention).to_dict()   # builds the shared stage documents
    counts = _count_calls(monkeypatch, COUNTED_STAGES)
    cert = full_pipeline(q, convention)
    assert cert.certified
    # deciding runs the square and the lines; rendering runs the rest
    assert counts == {"square_from_quintuple": 1, "line_relation": 1}
    cert.to_dict()
    assert counts == {name: 1 for _, name in COUNTED_STAGES}
    # nothing inverts a matrix: the square writes phi_1 as an adjugate
    assert not hasattr(Matrix, "inverse")


@pytest.mark.parametrize("q, convention, stage", [
    (build_type_a(1, 1, 2), "ruling", "determinant"),
    (load_quintuple(str(corpus_path("typea-0-1-1.json")))[0], "literal", "lines"),
], ids=["determinant", "lines"])
def test_an_input_stopping_before_the_quiver_builds_no_window(monkeypatch, q, convention, stage):
    # the window belongs to the linear quiver, so deciding an input that
    # stops at the determinant or at the lines never builds it
    counts = _count_calls(monkeypatch, [("quintuples", "truncated_dims"),
                                        ("squares", "linear_quiver")])
    assert full_pipeline(q, convention).stage == stage
    assert counts == {}


def _vandalize(value):
    """Change in place every dict and list reachable from ``value``; a
    read-only mapping is walked through the values it hands out, and a
    frozen document refuses a new text."""
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
    elif isinstance(value, FrozenJSON):
        with pytest.raises(AttributeError, match="read-only FrozenJSON"):
            value.text = "{}"


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
    # the 14 cells an ext_table() result shares are read-only views of dims
    # alone; changing everything else a table or a to_dict() result hands
    # out moves no later certificate byte
    q = build_type_a(1, 2, 3)
    _vandalize(full_pipeline(q, convention).to_dict())
    square = square_from_quintuple(q, convention)
    table = ext_table(square)
    shared = {key: cell for key, cell in table.cells.items() if not isinstance(cell, dict)}
    assert sorted(shared) == sorted(set(_CELLS) - {(0, 1), (0, 2)})
    for key, cell in shared.items():
        assert list(cell) == ["dims"]
        assert cell["dims"] == tuple(_derived((2, 2))[key]["dims"])
        with pytest.raises(TypeError):
            cell["derivation"] = {}
    _vandalize(table.cells)
    square = square_from_quintuple(q, convention)
    fresh = ext_table(square)
    assert fresh.dims(0, 3) == (4, 0, 0, 0, 0)
    assert gram_of(fresh) == BLOCK_GRAM
    assert replay_table(_parsed_table(q, convention), square)
    goldens = list(_golden_certified(convention))
    assert goldens
    for other, sha256 in goldens:
        cert_bytes = canonical_json_bytes(full_pipeline(other, convention).to_dict())
        assert hashlib.sha256(cert_bytes).hexdigest() == sha256


def test_shared_cells_are_derived_once_per_process(monkeypatch):
    # count the top-level derivations of each cell: every cell once, in
    # the one derivation of the Hom pair (2, 2), and the two (p*R, C_i)
    # cells again for each table; no cell is derived with hom=None
    top, homs, depth = Counter(), set(), [0]
    original = ncquad.certify._ext

    def counting(hom, x, y):
        if depth[0] == 0:
            top[(x, y)] += 1
            homs.add(hom)
        depth[0] += 1
        try:
            return original(hom, x, y)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(ncquad.certify, "_ext", counting)
    ncquad.certify._derived.cache_clear()
    ncquad.certify._shared_cells.cache_clear()
    rng = random.Random(72)
    certified = Counter()
    while min(certified["ruling"], certified["literal"]) < 20:
        _, q = random_type_a_triple(rng)
        for convention in ("ruling", "literal"):
            cert = full_pipeline(q, convention)
            if certified[convention] < 20 and cert.certified:
                cert.to_dict()
                certified[convention] += 1
    input_cells = {("p*R", "C0"), ("p*R", "C1")}
    assert top == {(x, y): 41 if (x, y) in input_cells else 1 for x in OBJECTS for y in OBJECTS}
    assert homs == {(2, 2)}
    # only the per-input cells hold a Hom(R, K_i) leaf; the shared ones are dims
    shared = ncquad.certify._shared_cells((2, 2))
    assert len(shared) == 14
    for key, cell in shared.items():
        assert list(cell) == ["dims"]
        assert "hom-R-K-leaf" not in json.dumps(ncquad.certify._derived((2, 2))[key])


# -- the derived table is the replay's reference: a cell equal to it is not walked


def _outcome(table, sq):
    try:
        return replay_table(table, sq)
    except ExtTableError as exc:
        return str(exc)


def _no_table(hom):
    return None


def _both_paths(monkeypatch, table, sq):
    """The outcome of replaying ``table``, True or the error message; the
    per-node walk of every cell, with no derived table to compare against,
    must give the same."""
    outcome = _outcome(table, sq)
    with monkeypatch.context() as patch:
        patch.setattr(ncquad.certify, "_derived", _no_table)
        assert _outcome(table, sq) == outcome
    return outcome


def _set(key, path, field, value):
    def tamper(t):
        bad, node = _tampered(t, key, *path)
        node[field] = value
        return bad
    return tamper


def _extra_cell(t):
    bad, _ = _tampered(t, (0, 0))
    bad.cells[(4, 4)] = bad.cells[(0, 0)]
    return bad


def _line_minus_one(t):
    """Cell (0,2) naming line -1 at its top node and at its hom leaf."""
    bad, node = _tampered(t, (0, 2))
    node["i"] = node["hom"]["line"] = -1
    return bad


# (tamper, outcome): the note and extra keys are never read; ``==`` takes
# 1.0 and True for 1, and the per-node walk indexes with a top node's i
# only; a line index is 0 or 1, and a twist a whole number
NEW_TAMPERS = [
    (_line_minus_one, "line index -1 is not 0 or 1"),
    (_set((2, 0), (), "i", -1), "line index -1 is not 0 or 1"),
    (_set((0, 1), ("quotient",), "n", 0.0), True),
    (_set((0, 1), ("quotient",), "m", 2.5), "coh-leaf twist (2.5, 0) is not a pair of integers"),
    (_set((0, 1), ("quotient",), "m", "2"), "cell (0,1) has a malformed node: TypeError("),
    (_set((1, 0), ("sub",), "note", "changed"), True),
    (_set((0, 3), (), "extra", 1), True),
    (_extra_cell, True),
    (_set((0, 1), (), "i", 0.0), "cell (0,1) has a malformed node: TypeError("),
    (_set((0, 2), (), "i", 1.0), "cell (0,2) has a malformed node: TypeError("),
    (_set((2, 3), (), "i", 1.0), "cell (2,3) has a malformed node: TypeError("),
    (_set((0, 2), (), "i", True), True),
    (_set((2, 1), (), "i", True), True),
    (_set((1, 3), ("middle",), "copies", 2.0), True),
    (_set((0, 1), ("quotient",), "m", 2.0), True),
    (_set((1, 0), ("sub", "child"), "m", -2.0), True),
]


def test_reference_shortcut_agrees_with_the_per_node_walk(monkeypatch):
    sq, t = _certified_table(build_type_a(1, 2, 3))
    assert _both_paths(monkeypatch, t, sq) is True
    assert sum(_both_paths(monkeypatch, bad, sq) is not True for bad in _dim_bumps(t)) == 420
    sq, t = _certified_table()
    for key, path, field, value, reason in FIELD_TAMPERS:
        assert reason in _both_paths(monkeypatch, _set(key, path, field, value)(t), sq)
    swaps = _equal_dims_swaps(t)
    assert len(swaps) == 33
    for a, b in swaps:
        assert "derives the pair" in _both_paths(monkeypatch, _swapped(t, a, b), sq)
    assert _both_paths(monkeypatch, _missing_cell(t), sq) == "cell (0,3) is missing"
    for tamper, outcome in NEW_TAMPERS:
        got = _both_paths(monkeypatch, tamper(t), sq)
        if outcome is True:
            assert got is True
        else:
            assert got.startswith(outcome)


def test_the_walk_does_not_read_the_twist_cache(monkeypatch):
    # every outcome above holds when the walk finds coh_p1xp2's cache empty
    sq, t = _certified_table()
    monkeypatch.setattr(ncquad.certify, "_derived", _no_table)
    for tamper, outcome in NEW_TAMPERS:
        bad = tamper(t)
        coh_p1xp2.cache_clear()
        got = _outcome(bad, sq)
        assert got is True if outcome is True else got.startswith(outcome)


def _deep(depth):
    """Cell (3,3) under ``depth`` consistent ``scale`` nodes of one copy."""
    def tamper(t):
        bad, node = _tampered(t, (3, 3))
        for _ in range(depth):
            node = {"rule": "scale", "copies": 1, "child": node, "dims": [1, 0, 0, 0, 0]}
        bad.cells[(3, 3)]["derivation"] = node
        return bad
    return tamper


def test_a_deep_derivation_is_refused_with_ext_table_error(monkeypatch):
    sq, t = _certified_table()
    assert _both_paths(monkeypatch, _deep(100)(t), sq) == "cell (3,3) derives the pair None"
    assert _both_paths(monkeypatch, _deep(2000)(t), sq).startswith(
        "cell (3,3) has a malformed node: RecursionError(")


@pytest.mark.parametrize("tamper, message", [
    (lambda cell: cell.pop("derivation"), r"KeyError\('derivation'\)"),
    (lambda cell: cell.pop("dims"), r"KeyError\('dims'\)"),
    (None, r"TypeError\("),
    (lambda cell: cell["derivation"]["sub"]["quotient"].update(objects=["O_E0(1,0)"]),
     r"ValueError\("),
], ids=["no-derivation", "no-dims", "list", "one-object"])
def test_replay_refuses_malformed_cells_with_ext_table_error(monkeypatch, tamper, message):
    sq, t = _certified_table()
    bad, _ = _tampered(t, (1, 2))
    if tamper is None:
        bad.cells[(1, 2)] = list(bad.cells[(1, 2)].values())
    else:
        tamper(bad.cells[(1, 2)])
    with pytest.raises(ExtTableError, match=r"cell \(1,2\) has a malformed node: " + message):
        replay_table(bad, sq)
    _both_paths(monkeypatch, bad, sq)


def _count_rule_dims(monkeypatch) -> list:
    calls = []
    original = ncquad.certify._rule_dims

    def counting(node, hom):
        calls.append(node)
        return original(node, hom)

    monkeypatch.setattr(ncquad.certify, "_rule_dims", counting)
    return calls


@pytest.mark.parametrize("convention", ["ruling", "literal"])
def test_an_untampered_table_replays_with_no_rule_evaluated(monkeypatch, convention):
    sq, t = _certified_table(build_type_a(1, 2, 3), convention)
    assert replay_table(t, sq)          # warm-up: derives the reference
    calls = _count_rule_dims(monkeypatch)
    assert replay_table(t, sq)
    assert calls == []


def test_a_tampered_cell_alone_is_walked(monkeypatch):
    sq, t = _certified_table(build_type_a(1, 2, 3))
    assert replay_table(t, sq)
    bad, node = _tampered(t, (0, 1), "quotient")
    node["note"] = "changed"
    calls = _count_rule_dims(monkeypatch)
    assert replay_table(bad, sq)
    walked = list(_node_paths(bad.cells[(0, 1)]["derivation"]))
    assert len(calls) == len(walked) == 4
    assert calls[-1] is bad.cells[(0, 1)]["derivation"]


def test_the_reference_is_built_once_per_hom_pair(monkeypatch):
    inputs = [(build_type_a(1, 2, 3), "ruling"), (build_type_a(1, 2, 3), "literal"),
              (build_type_a(3, 5, 7), "literal"), (build_linear_quadric(), "ruling")]
    tables = [_certified_table(q, c) for q, c in inputs]
    built = Counter()
    original = ncquad.certify._cell

    def counting(hom, i, j):
        built[hom] += 1
        return original(hom, i, j)

    monkeypatch.setattr(ncquad.certify, "_cell", counting)
    ncquad.certify._derived.cache_clear()
    for _ in range(3):
        for sq, t in tables:
            assert replay_table(t, sq)
    assert built == {(2, 2): 16}
    # with Hom(R, K_i) = 3 the rules derive no valid table: no reference,
    # so every cell is walked and the hom-R-K leaf of cell (0,1) is refused;
    # the one derivation stops at cell (0,1), the first to read the leaf,
    # and its outcome, no table, is kept for every later replay
    monkeypatch.setattr(ncquad.certify, "hom_R_K_dim", lambda line: 3)
    for _ in range(2):
        for sq, t in tables:
            with pytest.raises(ExtTableError, match=r"hom-R-K leaf is not Hom\(R, K_0\) = 3"):
                replay_table(t, sq)
    assert built == {(2, 2): 16, (3, 3): 2}
