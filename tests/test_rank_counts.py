"""The dimensions that the pipeline counts by one rank, against oracles
that build the full subspaces and maps (``tests/helpers.py``).

``relations``, the block and mutated quivers and ``hom_R_K_dim`` pick
matrix entries straight from w or phi_i and take one rank.  The oracles build what the pipeline used to keep: the intersection
(R0 x V3) ∩ (V0 x R1) as a basis, the compositions as products with unit
vectors, and the Hom(R, K_i) section matrix from its product table.
Inputs are the bundled corpus, the seeded golden inputs (QQ, F_5 and
F_10007), seeded type-A members, random tensors over F_5 and F_7 and
sparse ones over QQ, F_5 and F_7, under both conventions; on each square
the counts also take the values that quiver-forced (the
``mutate_linear_to_block`` docstring) proves.  Then random, possibly
singular, squares, so that the counts take more than their regular values.
"""

import json
import random
from pathlib import Path

from helpers import (
    block_quiver_oracle,
    hom_R_K_oracle,
    matmul,
    mutation_oracle,
    random_matrix_fp,
    random_matrix_qq,
    random_quintuple_fp,
    random_type_a_triple,
    relations_oracle,
    span_contains,
    span_rank_oracle,
    tensor_entries,
)
from ncquad.corpus import corpus_names, corpus_path
from ncquad.fields import GF, QQ
from ncquad.fileformat import load_quintuple, parse_quintuple_file
from ncquad.grassmann import EmbeddedLine, hom_R_K_dim
from ncquad.linalg import Matrix
from ncquad.quintuples import SLOT_LABELS, Quintuple, relations
from ncquad.squares import (
    CONVENTIONS,
    GeometricSquare,
    NotGeneric,
    block_quiver,
    mutate_linear_to_block,
    square_from_quintuple,
)
from ncquad.tensors import Tensor

GOLDEN = Path(__file__).with_name("golden.json")


def _inputs():
    for name in corpus_names():
        yield load_quintuple(str(corpus_path(name)))[0]
    for entry in json.loads(GOLDEN.read_text())["seeded"]:
        yield parse_quintuple_file(entry["input"])[0]
    rng = random.Random(86)
    for _ in range(15):
        yield random_type_a_triple(rng)[1]
    for p in (5, 7):
        for _ in range(30):
            yield random_quintuple_fp(rng, GF(p))
    # sparse tensors, entries as in the hom-R-K lemma test
    for field in (QQ, GF(5), GF(7)):
        for _ in range(40):
            entries = [field.of(rng.choice((-2, -1, 0, 0, 0, 1, 3))) for _ in range(16)]
            if any(entries):
                yield Quintuple(Tensor(field, (2, 2, 2, 2), entries, SLOT_LABELS))


def _check_square(sq, seen):
    bq = block_quiver(sq)
    counts = (bq.relation_dim, bq.leg_ranks)
    assert counts == block_quiver_oracle(sq)
    seen["block"].add(counts)
    for i in range(2):
        dim = hom_R_K_dim(sq.line(i))
        assert dim == hom_R_K_oracle(sq.line(i))
        seen["hom"].add(dim)
    return bq


def test_counts_match_oracles_on_inputs():
    seen = {"rel": set(), "block": set(), "mutation": set(), "hom": set(), "fields": set(),
            "forced": 0}
    for q in _inputs():
        seen["fields"].add(q.field)
        rel = relations(q)
        r0, r1_dim, line = relations_oracle(q)
        assert rel.dims == (r0.ncols, r1_dim, line.ncols)
        assert rel.w_dim == 2 * (rel.r0_dim + rel.r1_dim) - span_rank_oracle(q)
        # w lies in both spans, so in the intersection, and spans it when
        # it is a line
        assert span_contains(line, tensor_entries(q.w))
        seen["rel"].add(rel.dims)
        for convention in CONVENTIONS:
            try:
                block = _check_square(square_from_quintuple(q, convention), seen)
            except NotGeneric:
                block = None
            else:
                # quiver-forced (``mutate_linear_to_block``): past the
                # determinant both legs have rank 4 and 4 relations
                assert (block.relation_dim, block.leg_ranks) == (4, (4, 4))
                seen["forced"] += 1
            if rel.valid:
                mutated, report = mutate_linear_to_block(q, rel, block)
                counts = (mutated.relation_dim, mutated.leg_ranks)
                assert counts == mutation_oracle(r0)
                seen["mutation"].add(counts)
                assert report.structural_match == (block is not None)
                if block is not None:
                    assert mutated.leg_ranks == (4, 4)
    assert {QQ, GF(5), GF(7), GF(10007)} <= seen["fields"]
    assert len(seen["rel"]) > 1
    assert len(seen["mutation"]) > 1
    assert seen["hom"] == {2}
    assert seen["forced"] > 300


def _singular(rng, field, n):
    """An n x n matrix of random rank: a product through a thinner space,
    or a sparse matrix of 0 and +-1, whose coincidences dense draws miss."""
    rank = rng.randint(0, n)
    if rng.random() < 0.5:
        return Matrix(field, [[rng.choice((0, 0, 0, 1, -1)) for _ in range(n)]
                              for _ in range(n)])
    if rank == 0:
        return Matrix(field, [[0] * n] * n)
    draw = random_matrix_qq if field is QQ else (lambda r, a, b: random_matrix_fp(r, field, a, b))
    return matmul(draw(rng, n, rank), draw(rng, rank, n))


def test_counts_match_oracles_off_the_regular_values():
    # singular phi and phi^{-1} reach counts that an input quintuple never
    # gives; the entry picking must agree there too
    rng = random.Random(87)
    seen = {"block": set(), "hom": set()}
    for field in (QQ, GF(5), GF(10007)):
        for _ in range(40):
            phi0, phi1, inv0, inv1 = (_singular(rng, field, 4) for _ in range(4))
            for convention in CONVENTIONS:
                _check_square(GeometricSquare(phi0, phi1, inv0, inv1, convention), seen)
            for cf in (0, 1):
                line = EmbeddedLine(phi0, inv0, cf)
                assert hom_R_K_dim(line) == hom_R_K_oracle(line)
    assert len(seen["block"]) > 3
    assert len(seen["hom"]) > 2
