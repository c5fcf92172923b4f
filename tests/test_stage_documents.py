"""The stage documents that hold no witness, built once per distinct
value.

``certify._relations_stage``, ``_quiver_stage``, ``_geometricity_stage``,
``_lines_stage`` and ``_gram_stage`` cache each stage document by the
records it prints, and ``certify._ext_table_stage`` by the Hom(R, K_i)
pair its table is derived from; a geometricity report or line relation
that carries a witness is written inline.  These tests check that the
shared documents encode to the bytes of the inline dicts they replaced
(kept in ``helpers``), that the caches stay small and never hold a
witness, that the ext_table document is built once per Hom pair, and that
the golden digests do not depend on the order in which a fresh process
meets its inputs.
"""

import json
import os
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from helpers import (
    certificate_json,
    random_tensor_fp,
    random_type_a_triple,
    reference_ext_table_stage,
    reference_geometricity_stage,
    reference_gram_stage,
    reference_lines_stage,
    reference_quiver_stage,
    reference_relations_stage,
)
import ncquad.certify
from ncquad.certify import (_ext_table_stage, _geometricity_stage, _gram_stage, _lines_stage,
                            _quiver_stage, _relations_stage, ext_table, full_pipeline, gram_of)
from ncquad.fields import GF
from ncquad.fileformat import canonical_json_bytes
from ncquad.quintuples import relations, truncated_dims
from ncquad.squares import (
    block_quiver,
    gram_base_change,
    linear_quiver,
    mutate_linear_to_block,
    square_from_quintuple,
)

TESTS = Path(__file__).resolve().parent
SPARSE_DENSITIES = (0.2, 0.3, 0.4, 0.6, 1.0)

# the dims (R0, R1, W) of every failing relations stage that sparse tensors
# over F_5 and F_7 produce: a rank-one flattening, or W above 1
RELATIONS_FAILURES = {(1, 1, 1), (1, 2, 1), (2, 1, 1), (2, 2, 2), (2, 2, 4)}


def _draw(family, rng):
    if family == "typea-qq":
        return random_type_a_triple(rng)[1]
    return random_tensor_fp(rng, GF(int(family[-1])), rng.choice(SPARSE_DENSITIES))


def _reference_quiver(q, rel, convention) -> dict:
    square = square_from_quintuple(q, convention)
    bq = block_quiver(square)
    lq = linear_quiver(rel)
    _, mreport = mutate_linear_to_block(q, rel, bq)
    return reference_quiver_stage(bq, lq, mreport, gram_base_change(lq))


@pytest.mark.parametrize("convention", ["ruling", "literal"])
@pytest.mark.parametrize("family", ["typea-qq", "sparse-f5", "sparse-f7"])
def test_shared_stage_documents_have_the_inline_bytes(family, convention):
    # every relations document, failing ones included, and every
    # certificate, read back from its bytes with its shared stages swapped
    # for the inline dicts
    rng = random.Random(f"{family}-{convention}")
    failures, quivers, tables = set(), 0, 0
    for _ in range(2000):
        q = _draw(family, rng)
        rel = relations(q)
        table = truncated_dims(rel)
        reference = reference_relations_stage(rel, table)
        assert canonical_json_bytes(_relations_stage(rel)) == canonical_json_bytes(reference)
        if not rel.valid:
            failures.add(rel.dims)
        cert = full_pipeline(q, convention)
        doc = certificate_json(cert)
        stages = doc["stages"]
        p = q.field.characteristic
        assert stages[0]["stage"] == "geometricity"
        stages[0] = reference_geometricity_stage(cert.geometricity, p)
        if len(stages) > 1:
            assert stages[1]["stage"] == "relations"
            stages[1] = reference
        if len(stages) > 3:
            assert stages[3]["stage"] == "lines"
            stages[3] = reference_lines_stage(cert.lines, cert.certified, p)
        if len(stages) > 4:
            assert stages[4]["stage"] == "quiver"
            stages[4] = _reference_quiver(q, rel, convention)
            quivers += 1
        if len(stages) > 5:
            assert stages[5]["stage"] == "ext_table"
            table = ext_table(square_from_quintuple(q, convention))
            stages[5] = reference_ext_table_stage(table.hom)
            assert stages[6]["stage"] == "gram"
            stages[6] = reference_gram_stage(gram_of(table))
            tables += 1
        assert canonical_json_bytes(cert.to_dict()) == canonical_json_bytes(doc)
    assert quivers >= 100
    assert tables == quivers
    if family != "typea-qq":
        assert failures == RELATIONS_FAILURES


def test_stage_caches_stay_bounded(monkeypatch):
    # relations: R0 and R1 have dimension 1 or 2 (w != 0), W is at least 1
    # (w spans it) and at most 2 dim R0, and the dims fix the issues, so
    # at most 2 + 2 + 2 + 4 = 10 keys.  Quiver: the relation dims are
    # (2, 2, 1), so the linear quiver, which fixes the base-changed Gram,
    # is a constant; the block quiver's arrow spaces follow the convention (2),
    # its leg ranks lie in 0..4 (25), its relation dim is 4 (leg 0 holds
    # the rows of the identity), and the mutation report either matches or
    # not (2): at most 100 keys.  Ext table: ``_cell`` accepts only the
    # Hom pair (2, 2), so one key, and so one gram.  Geometricity: every
    # failing pair carries a witness, so each pair of a witness-free
    # report has kernel dim 0 or a nonsingular kernel line: at most 2^4 =
    # 16 keys.  Lines: with no meet witness the relation is disjoint under
    # one of three flags or coincide (4), at one of five reshuffle ranks
    # and two orientations, passed or not: at most 80 keys.  Rendering
    # builds the documents, so each certificate renders
    shared = (_relations_stage, _quiver_stage, _ext_table_stage,
              _geometricity_stage, _lines_stage, _gram_stage)
    for cached in shared:
        cached.cache_clear()
    keys = {name: set() for name in ("_geometricity_stage", "_lines_stage")}
    for name in keys:
        def recording(*args, _name=name, _cached=getattr(ncquad.certify, name)):
            keys[_name].add(args[0])
            return _cached(*args)
        monkeypatch.setattr(ncquad.certify, name, recording)
    rng = random.Random(1706)
    families = ("typea-qq", "sparse-f5", "sparse-f7")
    inline = Counter()
    for k in range(5000):
        q = _draw(families[k % 3], rng)
        _relations_stage(relations(q))
        cert = full_pipeline(q, ("ruling", "literal")[k // 3 % 2])
        cert.to_dict()
        inline["geometricity"] += any(r.witness for r in cert.geometricity.pairs)
        inline["lines"] += bool(cert.lines and cert.lines.witnesses)
    # a witness never enters a cache: those documents were written inline
    assert all(r.witness is None for report in keys["_geometricity_stage"]
               for r in report.pairs)
    assert all(not relation.witnesses for relation in keys["_lines_stage"])
    assert inline["geometricity"] >= 100 and inline["lines"] >= 10, inline
    assert 6 <= _relations_stage.cache_info().currsize <= 10
    assert 1 <= _quiver_stage.cache_info().currsize <= 100
    assert len(keys["_geometricity_stage"]) == _geometricity_stage.cache_info().currsize <= 16
    assert 2 <= _lines_stage.cache_info().currsize <= 80
    assert _gram_stage.cache_info().currsize == 1
    info = _ext_table_stage.cache_info()
    assert info.currsize == 1
    _ext_table_stage((2, 2))     # the one key: a hit, not a new entry
    assert _ext_table_stage.cache_info()[:2] == (info.hits + 1, info.misses)


def test_ext_table_stage_is_built_once_per_hom_pair(monkeypatch):
    # 40 certified renders, under both conventions, of tables all derived
    # from the Hom pair (2, 2): one document, read off the one derivation
    # of its 16 cells, and two cells derived for each input
    built = Counter()
    original = ncquad.certify._cell

    def counting(hom, i, j):
        built[hom] += 1
        return original(hom, i, j)

    monkeypatch.setattr(ncquad.certify, "_cell", counting)
    for cached in (_ext_table_stage, ncquad.certify._derived, ncquad.certify._shared_cells):
        cached.cache_clear()
    rng = random.Random(4027)
    rendered = 0
    while rendered < 40:
        q = random_type_a_triple(rng)[1]
        for convention in ("ruling", "literal"):
            cert = full_pipeline(q, convention)
            if cert.certified:
                assert b'"stage":"ext_table"' in canonical_json_bytes(cert.to_dict())
                rendered += 1
    assert built == {(2, 2): 16 + 2 * rendered}
    assert _ext_table_stage.cache_info().misses == 1


_REPLAY_GOLDEN = """
import hashlib, json, sys
from ncquad.certify import full_pipeline
from ncquad.corpus import corpus_path
from ncquad.fileformat import canonical_json_bytes, load_quintuple, parse_quintuple_file

doc = json.loads(open(sys.argv[1], encoding="utf-8").read())
entries = doc["corpus"] + doc["seeded"]
if sys.argv[2] == "reversed":
    entries.reverse()
bad = 0
for e in entries:
    if "name" in e:
        q, _ = load_quintuple(str(corpus_path(e["name"])))
    else:
        q, _ = parse_quintuple_file(e["input"])
    cert = canonical_json_bytes(full_pipeline(q, e["convention"]).to_dict())
    bad += hashlib.sha256(cert).hexdigest() != e["sha256"]
print(len(entries), bad)
"""


@pytest.mark.parametrize("order", ["forward", "reversed"])
def test_golden_digests_in_either_order_from_a_fresh_process(order):
    # a cache key that does not fix its document would hand a later input
    # the document of an earlier one; reversing the order changes which
    # input fills each entry first
    golden = TESTS / "golden.json"
    doc = json.loads(golden.read_text())
    env = dict(os.environ, PYTHONPATH=str(TESTS.parent / "src"))
    proc = subprocess.run([sys.executable, "-c", _REPLAY_GOLDEN, str(golden), order],
                          capture_output=True, text=True, env=env, timeout=120, check=True)
    total, bad = map(int, proc.stdout.split())
    assert total == len(doc["corpus"]) + len(doc["seeded"])
    assert bad == 0
