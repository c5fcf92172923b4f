"""Discrete invariants of the blow-up of Gr(1,3) along two disjoint
lines: Picard-lattice arithmetic with restriction to the exceptional
divisors E_i ~ P^1 x P^2, Kuenneth cohomology of line bundles, Serre
duality reindexing, and semiorthogonal-decomposition length counting.

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

    def is_zero(self) -> bool:
        return all(d == 0 for d in self.dims)


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


def coh_p1xp1(m: int, n: int) -> CohTable:
    a, b = coh_p1(m), coh_p1(n)
    dims = tuple(
        sum(a.h(i) * b.h(k - i) for i in range(k + 1)) for k in range(3)
    )
    return CohTable("P1xP1", (m, n), dims)


def euler_p1xp2(m: int, n: int) -> int:
    """chi(O(m,n)) = (m+1)(n+1)(n+2)/2, the closed form the tables must hit."""
    return (m + 1) * (n + 1) * (n + 2) // 2


class PicClass(Record):
    """a*H + b*E0 + c*E1 on the blow-up, H the pulled-back Pluecker class."""

    h: int
    e0: int
    e1: int

    def __add__(self, other: "PicClass") -> "PicClass":
        return PicClass(self.h + other.h, self.e0 + other.e0, self.e1 + other.e1)

    def __sub__(self, other: "PicClass") -> "PicClass":
        return PicClass(self.h - other.h, self.e0 - other.e0, self.e1 - other.e1)

    def __neg__(self) -> "PicClass":
        return PicClass(-self.h, -self.e0, -self.e1)

    def scale(self, k: int) -> "PicClass":
        return PicClass(k * self.h, k * self.e0, k * self.e1)


class EPair(Record):
    """O(m, n) = O_{P^1}(m) box O_{P^2}(n) on an exceptional divisor."""

    m: int
    n: int

    def __add__(self, other: "EPair") -> "EPair":
        return EPair(self.m + other.m, self.n + other.n)

    def as_tuple(self) -> tuple:
        return (self.m, self.n)


def hyperplane() -> PicClass:
    return PicClass(1, 0, 0)


def exceptional(i: int) -> PicClass:
    if i == 0:
        return PicClass(0, 1, 0)
    if i == 1:
        return PicClass(0, 0, 1)
    raise ValueError("exceptional divisor index is 0 or 1")


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


def omega_E(i: int = 0) -> EPair:
    """omega of E_i by adjunction: (omega + E_i)|_{E_i} = (-2, -3)."""
    return restrict_to_E(canonical_class() + exceptional(i), i)


def serre_dual_degree(k: int, dim: int) -> int:
    """The complementary degree dim - k used by Serre-duality reindexing."""
    if not 0 <= k <= dim:
        raise ValueError(f"degree {k} outside 0..{dim}")
    return dim - k


def sod_length(base_len: int, center_collection_lens, codim: int) -> int:
    """Length of the blow-up semiorthogonal decomposition: the base part
    plus codim-1 copies of each center part."""
    if codim < 2:
        raise ValueError("blow-up centers have codimension >= 2")
    if base_len < 0 or any(l < 0 for l in center_collection_lens):
        raise ValueError("lengths are non-negative")
    return base_len + (codim - 1) * sum(center_collection_lens)


class HKRTriple(Record):
    """(h0(wedge^2 T), h1(T), h2(O)) for the quadric surface P^1 x P^1.

    Kuenneth gives (9, 0, 0): wedge^2 T = O(2,2) with h0 = 9, T =
    O(2,0) + O(0,2) with no H^1, and H^2(O) = 0.  A 10-dimensional count
    for the noncommutative directions is on record elsewhere; the table
    here is the direct Kuenneth evaluation and the discrepancy is noted,
    not adjudicated.
    """

    h0_wedge2_tangent: int
    h1_tangent: int
    h2_structure: int
    note: str

    def as_tuple(self) -> tuple:
        return (self.h0_wedge2_tangent, self.h1_tangent, self.h2_structure)


def hkr_quadric() -> HKRTriple:
    h0 = coh_p1xp1(2, 2).h(0)
    h1 = coh_p1xp1(2, 0).h(1) + coh_p1xp1(0, 2).h(1)
    h2 = coh_p1xp1(0, 0).h(2)
    return HKRTriple(
        h0,
        h1,
        h2,
        note=(
            "Kuenneth count of noncommutative directions is 9; a stated "
            "count of 10 for the same space exists and is recorded here "
            "without being reproduced."
        ),
    )
