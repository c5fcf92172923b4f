"""Discrete invariants of the blow-up of Gr(1,3) along two disjoint
lines: Picard classes with their restriction to the exceptional
divisors E_i ~ P^1 x P^2, and Kuenneth cohomology of line bundles.

The blown-up fourfold itself is never constructed; every statement
consumed downstream is about integers attached to it.
"""

from __future__ import annotations

from functools import cache
from math import comb

from .records import Record


class CohTable(Record):
    """Dimensions of H^0..H^dim for one line bundle on one space."""

    space: str
    twist: tuple
    dims: tuple

    def h(self, k: int) -> int:
        return self.dims[k] if 0 <= k < len(self.dims) else 0

    def euler(self) -> int:
        return sum((-1) ** k * d for k, d in enumerate(self.dims))

    @property
    def pairs(self) -> tuple:
        return tuple(enumerate(self.dims))


def coh_p1(m: int) -> CohTable:
    """H^*(P^1, O(m)): h0 = m+1 for m >= 0, h1 = -m-1 for m <= -2."""
    h0 = m + 1 if m >= 0 else 0
    h1 = -m - 1 if m <= -2 else 0
    return CohTable("P1", (m,), (h0, h1))


def coh_p2(n: int) -> CohTable:
    """H^*(P^2, O(n)): h0 = C(n+2,2) for n >= 0, h2 = C(-n-1,2) for n <= -3."""
    h0 = comb(n + 2, 2) if n >= 0 else 0
    h2 = comb(-n - 1, 2) if n <= -3 else 0
    return CohTable("P2", (n,), (h0, 0, h2))


@cache
def coh_p1xp2(m: int, n: int) -> CohTable:
    """Kuenneth product of P^1 and P^2 cohomology; degrees 0..3.

    Memoized: the value is a frozen table of ints that depends on the
    integer twist alone."""
    a, b = coh_p1(m), coh_p2(n)
    dims = tuple(
        sum(a.h(i) * b.h(k - i) for i in range(k + 1)) for k in range(4)
    )
    return CohTable("P1xP2", (m, n), dims)


class PicClass(Record):
    """a*H + b*E0 + c*E1 on the blow-up, H the pulled-back Pluecker class."""

    h: int
    e0: int
    e1: int


class EPair(Record):
    """O(m, n) = O_{P^1}(m) box O_{P^2}(n) on an exceptional divisor."""

    m: int
    n: int


def restrict_to_E(c: PicClass, i: int) -> EPair:
    """Restriction Pic(blow-up) -> Pic(E_i) on generators:
    H -> (2, 0) (the center is a degree-2 curve in Pluecker coordinates),
    E_i -> (2, -1), E_other -> (0, 0) (disjoint centers).

    The degree 2 in the first rule is forced: omega_G = O_G(-4) restricts
    to degree -8 on either line, so H restricts to degree 8/4 = 2.
    """
    if i not in (0, 1):
        raise ValueError("exceptional divisor index is 0 or 1")
    ei = c.e0 if i == 0 else c.e1
    return EPair(2 * c.h + 2 * ei, -ei)


def canonical_class() -> PicClass:
    """omega of the blow-up: -4H + 2E0 + 2E1 (pullback of omega_G plus one
    copy of E per codimension-2 center, doubled)."""
    return PicClass(-4, 2, 2)
