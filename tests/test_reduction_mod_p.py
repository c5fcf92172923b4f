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
"""

import random
from collections import Counter

from ncquad.fields import GF, QQ
from ncquad.quintuples import SLOT_LABELS, Quintuple, is_geometric
from ncquad.tensors import Tensor

ENTRIES = (-4, -1, 0, 0, 1, 2, 3, 5)
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
