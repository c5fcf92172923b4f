"""The relations span, one 7x16 elimination, against the oracles.

``relations`` reads dim R0 and dim R1 off 2x2 minors of the 8x2
flattenings and eliminates the span [R0 x V3 ; V0 x R1], 7 of its 8
spanning vectors picked from w, once, whatever the dims.  Tensors that
are pure in slot 3 (w = r x v) have dim R0 = 1, those pure in slot 0
have dim R1 = 1, and ``witness-qq-theta.json`` has a plane of relations;
random sparse and dense tensors reach every dims tuple there is.  The
``relations-*.json`` files are the bundled inputs with dim R0 or dim R1
below 2; their ``check`` output is pinned as written before the span
was first reduced.
"""

import hashlib
import random
from fractions import Fraction
from pathlib import Path

import pytest

from helpers import (
    lift,
    record_eliminations,
    relations_oracle,
    rows,
    span_rank_oracle,
    span_vectors_oracle,
    tensor_entries,
)
from ncquad.cli import main
from ncquad.fields import GF, QQ
from ncquad.fileformat import load_quintuple
from ncquad.linalg import _pick
from ncquad.quintuples import _SPAN_PICKS, SLOT_LABELS, Quintuple, relations
from ncquad.tensors import Tensor

_DATA = Path(__file__).with_name("data")

# name -> (dims, check exit, sha256 of check stdout, sha256 of check --json stdout)
_PINS = {
    "relations-qq-pure-slot3": (
        (1, 2, 1), 1,
        "9a88e663db43599f1f65380e90fe623a4fbc0056b3a67563649570f8d9b97a3d",
        "166521593706d266598ef1d3b6aec087df31602a26b78902c0ca129c9b23ed8c"),
    "relations-f5-pure-slot0": (
        (2, 1, 1), 1,
        "f05db4931e2b5ecaf8aca7680ef91c1edfee80db2687306c5d6a3c68b4412690",
        "b26f752e7abf5d219d953df16942c158ddfebbc119faf451bd55c1b7c4b730ad"),
    "relations-f7-pure-both": (
        (1, 1, 1), 1,
        "4cc9e4ae2ed6993ab49809b7b453e356b66d57a07bfdbff5ec2f2e20f9706634",
        "a58494eaa33321588fcb527afa2b4d62ab4e41f77cb024102462935542ae13d3"),
}


def _quintuple(field, entries):
    return Quintuple(Tensor(field, (2, 2, 2, 2), entries, SLOT_LABELS))


def _check(q, eliminations):
    """The dims of ``relations(q)``, checked against both oracles, and the
    one 7x16 elimination the stage runs."""
    eliminations.clear()
    rel = relations(q)
    assert eliminations == [(7, 16)]
    r0, r1_dim, line = relations_oracle(q)
    assert rel.dims == (r0.ncols, r1_dim, line.ncols)
    assert rel.w_dim == 2 * (rel.r0_dim + rel.r1_dim) - span_rank_oracle(q)
    return rel.dims


@pytest.fixture
def eliminations(monkeypatch):
    return record_eliminations(monkeypatch)


_VALUES = (1, -1, 2, 3, -4, Fraction(1, 3), Fraction(-5, 2))


def _draw(rng, field, n, density=7 / 8):
    """n small entries, not all zero in ``field``, each nonzero with
    probability ``density``; over QQ some are fractions."""
    while True:
        out = [rng.choice(_VALUES) if rng.random() < density else 0 for _ in range(n)]
        if field.characteristic:
            out = [int(x) if x.denominator == 1 else 1 for x in map(Fraction, out)]
        if any(field.of(x) for x in out):
            return out


def _pure(rng, field, slots):
    """A random nonzero w that is a pure tensor in slot 3 (r x v), in slot 0
    (u x r'), or in both (u x m x v), with small entries and, over QQ,
    some fractions."""
    def draw(n):
        return _draw(rng, field, n)
    if slots == {3}:
        r, v = draw(8), draw(2)
        return [r[i] * v[d] for i in range(8) for d in range(2)]
    if slots == {0}:
        u, r = draw(2), draw(8)
        return [u[a] * r[i] for a in range(2) for i in range(8)]
    u, m, v = draw(2), draw(4), draw(2)
    return [u[a] * m[k] * v[d] for a in range(2) for k in range(4) for d in range(2)]


def test_pure_tensors_rank_the_8x16_span(eliminations):
    rng = random.Random(2303)
    seen = {}
    for field in (QQ, GF(5), GF(7), GF(10007)):
        for slots in ({3}, {0}, {0, 3}):
            for _ in range(25):
                dims = _check(_quintuple(field, _pure(rng, field, slots)), eliminations)
                seen.setdefault(frozenset(slots), set()).add(dims)
    # a generic pure factor leaves the other span of dimension 2
    assert (1, 2, 1) in seen[frozenset({3})]
    assert (2, 1, 1) in seen[frozenset({0})]
    assert seen[frozenset({0, 3})] == {(1, 1, 1)}
    assert all(dims[0] == 1 for dims in seen[frozenset({3})])
    assert all(dims[1] == 1 for dims in seen[frozenset({0})])


# every (dim R0, dim R1, dim W) that random tensors reach
_ALL_DIMS = {(1, 1, 1), (1, 2, 1), (2, 1, 1), (2, 2, 1), (2, 2, 2), (2, 2, 4)}


def test_random_sparse_and_dense_tensors_reach_every_dims_tuple(eliminations):
    rng = random.Random(2501)
    for field in (QQ, GF(5), GF(7), GF(10007)):
        seen = {_check(_quintuple(field, _draw(rng, field, 16, density)), eliminations)
                for density in (0.1, 0.15, 0.2, 0.3, 0.5, 1.0) for _ in range(40)}
        assert seen == _ALL_DIMS


def test_the_left_out_span_vector_is_row_0_plus_row_3_less_row_4():
    # vectors (0, 0) + (1, 1) of R0 x V3 sum to w, and so do vectors
    # (0, 0) + (1, 1) of V0 x R1; so the eighth vector, which
    # ``relations`` leaves out, is row 0 + row 3 - row 4 of its 7 picks
    rng = random.Random(2801)
    for field in (QQ, GF(5), GF(7), GF(10007)):
        for density in (0.2, 0.5, 1.0):
            for _ in range(30):
                q = _quintuple(field, _draw(rng, field, 16, density))
                w = list(tensor_entries(q.w))
                picked = _pick(q.w._row, 7, 16, _SPAN_PICKS)
                span = [list(lift(field, r)) for r in rows(picked)]
                vectors = span_vectors_oracle(q)
                assert span == vectors[:7]
                assert [a + b for a, b in zip(span[0], span[3])] == w
                assert [a + b for a, b in zip(span[4], vectors[7])] == w
                assert [a + b - c for a, b, c in zip(span[0], span[3], span[4])] == vectors[7]
                assert picked.rank() == span_rank_oracle(q)


def test_plane_of_relations_matches_the_oracle(eliminations):
    q, _ = load_quintuple(str(_DATA / "witness-qq-theta.json"))
    assert _check(q, eliminations) == (2, 2, 2)


@pytest.mark.parametrize("name", sorted(_PINS))
def test_relations_files_are_pinned(name, eliminations, capsys):
    dims, code, text_sha, json_sha = _PINS[name]
    path = str(_DATA / f"{name}.json")
    assert _check(load_quintuple(path)[0], eliminations) == dims
    assert main(["check", path]) == code
    text = capsys.readouterr().out
    assert hashlib.sha256(text.encode()).hexdigest() == text_sha
    assert f"relation dims (R0, R1, W): {dims}" in text
    assert main(["check", path, "--json"]) == code
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == json_sha


def test_the_pinned_files_are_every_relations_file():
    assert {p.stem for p in _DATA.glob("relations-*.json")} == set(_PINS)
