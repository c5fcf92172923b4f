"""The relations and quiver stage documents, built once per distinct value.

``certify._relations_stage`` and ``certify._quiver_stage`` cache each
stage document by the records it prints.  These tests check that the
shared documents encode to the bytes of the inline dicts they replaced
(kept in ``helpers``), that both caches stay small, and that the golden
digests do not depend on the order in which a fresh process meets its
inputs.
"""

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from helpers import (
    random_tensor_fp,
    random_type_a_triple,
    reference_quiver_stage,
    reference_relations_stage,
)
from ncquad.certify import _quiver_stage, _relations_stage, full_pipeline
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


def _reference_quiver(q, rel, table, convention) -> dict:
    square = square_from_quintuple(q, convention)
    bq = block_quiver(square)
    lq = linear_quiver(rel, table)
    _, mreport = mutate_linear_to_block(q, rel, bq)
    return reference_quiver_stage(bq, lq, mreport, gram_base_change(lq))


@pytest.mark.parametrize("convention", ["ruling", "literal"])
@pytest.mark.parametrize("family", ["typea-qq", "sparse-f5", "sparse-f7"])
def test_shared_stage_documents_have_the_inline_bytes(family, convention):
    # every relations document, failing ones included, and every
    # certificate, with its shared stages swapped for the inline dicts
    rng = random.Random(f"{family}-{convention}")
    failures, quivers = set(), 0
    for _ in range(2000):
        q = _draw(family, rng)
        rel = relations(q)
        table = truncated_dims(rel)
        reference = reference_relations_stage(rel, table)
        assert canonical_json_bytes(_relations_stage(rel)) == canonical_json_bytes(reference)
        if not rel.valid:
            failures.add(rel.dims)
        cert = full_pipeline(q, convention)
        doc = cert.to_dict()
        stages = doc["stages"]
        if len(stages) > 1:
            assert stages[1]["stage"] == "relations"
            stages[1] = reference
        if len(stages) > 4:
            assert stages[4]["stage"] == "quiver"
            stages[4] = _reference_quiver(q, rel, table, convention)
            quivers += 1
        assert canonical_json_bytes(cert.to_dict()) == canonical_json_bytes(doc)
    assert quivers >= 100
    if family != "typea-qq":
        assert failures == RELATIONS_FAILURES


def test_stage_caches_stay_bounded():
    # relations: R0 and R1 have dimension 1 or 2 (w != 0), W is at least 1
    # (w spans it) and at most 2 dim R0, and the dims fix the issues, so
    # at most 2 + 2 + 2 + 4 = 10 keys.  Quiver: the relation dims are
    # (2, 2, 1), so the linear quiver and the base-changed Gram are
    # constants; the block quiver's arrow spaces follow the convention (2),
    # its leg ranks lie in 0..4 (25), its relation dim is 4 (leg 0 holds
    # the rows of the identity), and the mutation report either matches or
    # not (2): at most 100 keys
    _relations_stage.cache_clear()
    _quiver_stage.cache_clear()
    rng = random.Random(1706)
    families = ("typea-qq", "sparse-f5", "sparse-f7")
    for k in range(5000):
        q = _draw(families[k % 3], rng)
        _relations_stage(relations(q))
        full_pipeline(q, ("ruling", "literal")[k // 3 % 2])
    assert 6 <= _relations_stage.cache_info().currsize <= 10
    assert 1 <= _quiver_stage.cache_info().currsize <= 100


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
