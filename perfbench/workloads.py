"""Seeded input families.

Every generator is a pure function of its seed: the same seed yields the
same stream of inputs.  The quintuples are built here, before any timer
starts, so the code under test only ever sees finished inputs.  Warm-up
inputs come from a different stream (``warmup_seed``) than timed ones,
so a per-input cache can never be credited with reuse between warm-up
and timing.
"""

from __future__ import annotations

import random
from fractions import Fraction

TYPEA_HEIGHT = 20
F5_ENTRIES = (-1, 0, 0, 0, 1)


def warmup_seed(seed: int) -> int:
    return seed + 1_000_003


def typea_qq(seed: int):
    """Type-A members over QQ at height 20, drawn exactly as ``ncquad
    sweep`` draws them; points on the excluded locus are skipped."""
    from ncquad.fields import QQ
    from ncquad.quintuples import build_type_a

    rng = random.Random(seed)
    h = TYPEA_HEIGHT
    while True:
        triple = tuple(Fraction(rng.randint(-h, h), rng.randint(1, h)) for _ in range(3))
        try:
            yield build_type_a(*triple, QQ)
        except ValueError:
            continue


def degenerate_f5(seed: int):
    """Sparse tensors over F_5, each entry drawn from {-1, 0, 0, 0, 1};
    the zero tensor is redrawn."""
    from ncquad.fields import GF
    from ncquad.quintuples import SLOT_LABELS, Quintuple
    from ncquad.tensors import Tensor

    rng = random.Random(seed)
    f5 = GF(5)
    while True:
        entries = [rng.choice(F5_ENTRIES) for _ in range(16)]
        if any(entries):
            yield Quintuple(Tensor(f5, (2, 2, 2, 2), [f5.of(x) for x in entries], SLOT_LABELS))


# workload name -> (input stream, line convention)
FAMILIES = {
    "typea_qq": (typea_qq, "ruling"),
    "degenerate_f5": (degenerate_f5, "literal"),
}
