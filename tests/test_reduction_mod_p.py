"""Reduction mod p keeps every geometricity failure of an integer tensor.

Claim (a) of ROADMAP item 3: if pair j of an integer tensor w fails
geometricity over QQ, it fails over F_p for every prime p, so the F_p
failing-pair set of w mod p contains the QQ one.  Pair j fails when the
kernel of M_j, a 4x4 integer matrix, holds a nonzero pure tensor
phi x chi over the algebraic closure, that is a nonzero kernel vector
whose 2x2 determinant is 0.  The rank of M_j mod p is at most its rank
over QQ, so its kernel does not shrink:

- kernel dimension 1 over QQ: the kernel is spanned by a primitive
  integer vector v with det v = 0.  Being primitive, v mod p is nonzero;
  it is still in the kernel of M_j mod p, and its determinant is
  0 mod p, so it is a pure kernel vector mod p;
- kernel dimension 2 or more: the kernel mod p is also at least a line
  of P^3, and every line of P^3 meets the quadric det = 0 over the
  algebraic closure.

So no prime needs excluding: an integer tensor has no denominator.

A tensor w over QQ with denominators reduces mod every prime p that
divides none of them, and keeps its failures there too.  With D the
least common denominator, D w is an integer tensor with the same
contraction kernels over QQ, so with the same failing pairs; p does not
divide D, so w mod p is D^-1 (D w mod p), a unit multiple with the same
failing pairs as D w mod p, which contain those of D w by the argument
above.  When D w is 0 mod p (all of it divisible by p), w mod p is not
a quintuple, and that prime is skipped.

Claim (b): the verdict stage of w over QQ equals that of w mod p when p
divides no denominator of w, neither det M_0 nor det M_1 where nonzero,
and no nonzero resultant of two nonzero line forms; and, where
det M_j = 0, neither of the two integers named below.  Every decision
reads D w, whose reduction is a unit multiple of w mod p:

- geometricity at pair j.  If det M_j is nonzero and prime to p, M_j is
  invertible on both sides and pair j passes (M_2 = M_0^T and
  M_3 = M_1^T share those determinants).  If det M_j = 0 and rank M_j
  is 2 or less, pair j fails on both sides, by claim (a).  If the rank
  is 3, two more primes are bad, each for its own reason: a prime
  dividing every 3x3 minor drops the rank mod p, so the kernel mod p
  is at least a line of P^3, which meets the quadric det = 0; any other
  prime keeps the kernel spanned by the primitive integer vector v that
  a column of adj M_j gives, and a prime dividing det v, v read as a
  2x2 matrix, makes it a pure tensor mod p;
- the determinant: det <-, w> = det M_0 is 0 on both sides or on none;
- the lines: ``grassmann.line_relation`` reads three binary quadratics
  off the integers of M_2 for the line of the convention, and mod p
  they are those of D w reduced, times a unit.  Two nonzero forms whose
  resultant is prime to p share no root mod p, so the lines are
  disjoint on both sides.  For lines that meet over QQ, or forms that
  share roots pairwise and not all three, the claim is tested here,
  not argued.
"""

import json
import math
import random
from collections import Counter
from fractions import Fraction
from pathlib import Path

from helpers import random_tensor_qq, random_type_a_triple, tensor_entries
from ncquad.certify import full_pipeline
from ncquad.corpus import corpus_path
from ncquad.fields import GF, QQ
from ncquad.fileformat import load_quintuple, parse_quintuple_file
from ncquad.quintuples import SLOT_LABELS, Quintuple, is_geometric
from ncquad.tensors import Tensor

ENTRIES = (-4, -1, 0, 0, 1, 2, 3, 5)
# each tensor draws its denominators from one of these, so that 5 and 7
# divide a denominator of some tensors and of others not
DENOMINATORS = ((1, 2, 3, 4), (1, 5, 10), (1, 7, 14), (1, 2, 5, 7))
PRIMES = (5, 7, 11, 13, 10007)


def _quintuple(field, ints):
    return Quintuple(Tensor(field, (2, 2, 2, 2), ints, SLOT_LABELS))


def test_qq_geometricity_failures_fail_mod_every_prime():
    rng = random.Random(3)
    failures, kernel_dims = 0, Counter()
    for _ in range(20000):
        ints = [rng.choice(ENTRIES) for _ in range(16)]
        if not any(ints):
            continue
        report = is_geometric(_quintuple(QQ, ints))
        if report.passed:
            continue
        failures += 1
        kernel_dims.update(r.kernel_dim for r in report.pairs if not r.passed)
        failing = set(report.failing_pairs())
        for p in PRIMES:
            reduced = is_geometric(_quintuple(GF(p), ints))
            assert failing <= set(reduced.failing_pairs()), (p, ints)
    # both branches of the argument are exercised
    assert failures > 1000
    assert set(kernel_dims) == {1, 2}, kernel_dims


def test_qq_geometricity_failures_with_denominators_fail_mod_every_other_prime():
    rng = random.Random(2803)
    failures, kernel_dims, reduced_pairs = 0, Counter(), Counter()
    for _ in range(10000):
        dens = rng.choice(DENOMINATORS)
        entries = [Fraction(rng.choice(ENTRIES), rng.choice(dens)) for _ in range(16)]
        if not any(entries):
            continue
        report = is_geometric(_quintuple(QQ, entries))
        if report.passed:
            continue
        failures += 1
        kernel_dims.update(r.kernel_dim for r in report.pairs if not r.passed)
        failing = set(report.failing_pairs())
        den = math.lcm(*(x.denominator for x in entries))
        for p in PRIMES:
            if den % p == 0:
                continue
            if not any(x.numerator * (den // x.denominator) % p for x in entries):
                continue        # w = 0 mod p: not a quintuple
            reduced = is_geometric(_quintuple(GF(p), entries))
            assert failing <= set(reduced.failing_pairs()), (p, entries)
            reduced_pairs[p] += 1
    # both branches of the argument are exercised, and every prime is
    # reached, 5 and 7 only on the tensors without them in a denominator
    assert failures > 400
    assert set(kernel_dims) == {1, 2}, kernel_dims
    assert set(reduced_pairs) == set(PRIMES) and min(reduced_pairs.values()) > 100, reduced_pairs


# -- claim (b): the whole verdict ------------------------------------------


def _contraction(ints, j) -> list:
    """M_j of the integer tensor ``ints`` (row-major, slot 0 first) as
    rows: column 2a + b, row 2c + d holds the entry with index a at slot
    j, b at j + 1, c at j + 2 and d at j + 3 (slots mod 4)."""
    rows = [[0] * 4 for _ in range(4)]
    for flat in range(16):
        idx = [(flat >> (3 - k)) & 1 for k in range(4)]
        a, b, c, d = (idx[(j + k) % 4] for k in range(4))
        rows[2 * c + d][2 * a + b] = ints[flat]
    return rows


def _det(rows) -> int:
    """Laplace expansion along the first row."""
    if len(rows) == 1:
        return rows[0][0]
    return sum((-1) ** k * x * _det([r[:k] + r[k + 1:] for r in rows[1:]])
               for k, x in enumerate(rows[0]) if x)


def _det2(v):
    return v[0] * v[3] - v[1] * v[2]


def _polar2(u, v):
    return u[0] * v[3] + v[0] * u[3] - u[1] * v[2] - v[1] * u[2]


def _resultant(f, g) -> int:
    """The Sylvester resultant of two binary quadratics, 0 iff they share
    a root in P^1."""
    return _det([[f[0], f[1], f[2], 0], [0, f[0], f[1], f[2]],
                 [g[0], g[1], g[2], 0], [0, g[0], g[1], g[2]]])


def _geometricity_bad(ints) -> list:
    """(reason, integer) for each integer whose prime factors claim (b)
    excludes for geometricity and the determinant."""
    bad = []
    for j in range(4):
        m = _contraction(ints, j)
        if det := _det(m):
            if j < 2:       # M_2 and M_3 are the transposes
                bad.append(("det", det))
            continue
        minors = [[_det([r[:k] + r[k + 1:] for i, r in enumerate(m) if i != row])
                   for k in range(4)] for row in range(4)]
        if not (g := math.gcd(*(x for r in minors for x in r))):
            continue        # rank 2 or less: fails on both sides
        bad.append(("rank", g))
        # adj M_j has rank 1 and M_j adj M_j = 0: a nonzero column spans the kernel
        columns = ([(-1) ** (i + k) * minors[k][i] for i in range(4)] for k in range(4))
        v = next(col for col in columns if any(col))
        if det_v := _det2([x // math.gcd(*v) for x in v]):
            bad.append(("kernel", det_v))
    return bad


def _line_forms_bad(ints, convention) -> list:
    """("resultant", r) for each nonzero resultant of two nonzero line
    forms of line 1, read off M_2 for the convention's contracted factor."""
    flat = [x for r in _contraction(ints, 2) for x in r]
    a_cols, b_cols = ((1, 3), (0, 2)) if convention == "ruling" else ((2, 3), (0, 1))
    A = [flat[j::4] for j in a_cols]
    B = [[-x for x in flat[j::4]] for j in b_cols]
    forms = [f for f in ((_det2(A[0]), _polar2(A[0], B[0]), _det2(B[0])),
                         (_det2(A[1]), _polar2(A[1], B[1]), _det2(B[1])),
                         (_polar2(A[0], A[1]), _polar2(A[0], B[1]) + _polar2(B[0], A[1]),
                          _polar2(B[0], B[1])))
             if any(f)]
    return [("resultant", r) for i, f in enumerate(forms) for g in forms[i + 1:]
            if (r := _resultant(f, g))]


def _qq_inputs():
    """The golden inputs over QQ, then seeded sparse integer and sparse
    rational tensors and type-A members."""
    doc = json.loads((Path(__file__).with_name("golden.json")).read_text())
    for entry in doc["corpus"] + doc["seeded"]:
        if "name" in entry:
            q, _ = load_quintuple(str(corpus_path(entry["name"])))
        else:
            q, _ = parse_quintuple_file(entry["input"])
        if q.field == QQ:
            yield "golden", q
    rng = random.Random(2904)
    for _ in range(500):
        ints = [rng.choice(ENTRIES) for _ in range(16)]
        if any(ints):
            yield "sparse", _quintuple(QQ, ints)
    for k in range(200):
        yield "rational", random_tensor_qq(rng, (0.3, 0.6, 1.0)[k % 3], height=4)
    for _ in range(200):
        yield "type-a", random_type_a_triple(rng)[1]


def test_qq_verdicts_equal_the_verdicts_mod_every_good_prime():
    kept, moved, stages = Counter(), Counter(), Counter()
    for kind, q in _qq_inputs():
        entries = [Fraction(x) for x in tensor_entries(q.w)]
        den = math.lcm(*(x.denominator for x in entries))
        ints = [int(x * den) for x in entries]
        geometricity_bad = _geometricity_bad(ints)
        for convention in ("ruling", "literal"):
            stage = full_pipeline(q, convention).stage
            bad = geometricity_bad + _line_forms_bad(ints, convention)
            for p in PRIMES:
                if den % p == 0 or not any(x % p for x in ints):
                    continue        # a denominator, or w = 0 mod p
                reduced = full_pipeline(_quintuple(GF(p), entries), convention).stage
                reasons = {reason for reason, x in bad if x % p == 0}
                if not reasons:
                    assert reduced == stage, (kind, convention, p, ints, den)
                    kept[kind] += 1
                    stages[stage] += 1
                elif reduced != stage:
                    moved.update(reasons)
    # every kind of input is reduced at good primes, every verdict stage
    # is compared there, and the excluded primes do move verdicts
    assert min(kept.values()) > 100 and set(kept) == {"golden", "sparse", "rational", "type-a"}
    assert set(stages) == {"", "geometricity", "determinant", "lines"}, stages
    assert {"det", "kernel", "resultant"} <= set(moved), moved
