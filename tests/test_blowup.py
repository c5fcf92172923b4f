from helpers import euler_p1xp2
from ncquad.blowup import (
    EPair,
    PicClass,
    canonical_class,
    coh_p1,
    coh_p1xp2,
    coh_p2,
    restrict_to_E,
)

H, E0, E1 = PicClass(1, 0, 0), PicClass(0, 1, 0), PicClass(0, 0, 1)


def test_coh_p1_values():
    assert coh_p1(-8).dims == (0, 7)
    assert coh_p1(0).dims == (1, 0)
    assert coh_p1(2).dims == (3, 0)
    assert coh_p1(-1).dims == (0, 0)


def test_coh_p2_values():
    assert coh_p2(0).dims == (1, 0, 0)
    assert coh_p2(2).dims == (6, 0, 0)
    assert coh_p2(-3).dims == (0, 0, 1)
    assert coh_p2(-2).dims == (0, 0, 0)


def test_coh_p1xp2_key_leaves():
    assert coh_p1xp2(-3, -2).dims == (0, 0, 0, 0)
    assert coh_p1xp2(-2, -2).dims == (0, 0, 0, 0)
    assert coh_p1xp2(1, 0).dims == (2, 0, 0, 0)
    assert 2 * coh_p1xp2(2, 0).h(0) == 6


def test_euler_characteristic_closed_form():
    for m in range(-10, 11):
        for n in range(-10, 11):
            assert coh_p1xp2(m, n).euler() == euler_p1xp2(m, n)


def test_serre_duality_on_p1xp2():
    for m in range(-10, 11):
        for n in range(-10, 11):
            t = coh_p1xp2(m, n)
            dual = coh_p1xp2(-2 - m, -3 - n)
            for k in range(4):
                assert t.h(k) == dual.h(3 - k)


def test_restriction_rules():
    assert restrict_to_E(E0, 0) == EPair(2, -1)
    assert restrict_to_E(E1, 1) == EPair(2, -1)
    assert restrict_to_E(E1, 0) == EPair(0, 0)
    assert restrict_to_E(H, 0) == EPair(2, 0)
    assert restrict_to_E(canonical_class(), 0) == EPair(-4, -2)
    assert restrict_to_E(canonical_class(), 1) == EPair(-4, -2)


def test_restriction_additive():
    import random

    rng = random.Random(61)
    for _ in range(30):
        a, b = ([rng.randint(-5, 5) for _ in range(3)] for _ in range(2))
        for i in (0, 1):
            ra, rb = restrict_to_E(PicClass(*a), i), restrict_to_E(PicClass(*b), i)
            both = restrict_to_E(PicClass(*(x + y for x, y in zip(a, b))), i)
            assert both == EPair(ra.m + rb.m, ra.n + rb.n)


def test_canonical_class_and_adjunction_chain():
    om = canonical_class()
    assert (om.h, om.e0, om.e1) == (-4, 2, 2)
    # omega_E by adjunction: (omega + E_i)|_{E_i} = (-2, -3), the canonical
    # class of P^1 x P^2, and omega|_E + E|_E gives the same
    assert restrict_to_E(PicClass(-4, 3, 2), 0) == EPair(-2, -3)
    assert restrict_to_E(PicClass(-4, 2, 3), 1) == EPair(-2, -3)
    for i, e in ((0, E0), (1, E1)):
        r_om, r_e = restrict_to_E(om, i), restrict_to_E(e, i)
        assert EPair(r_om.m + r_e.m, r_om.n + r_e.n) == EPair(-2, -3)
    # pullback part restricted to the center curve has degree -8
    assert restrict_to_E(PicClass(-4, 0, 0), 0).m == -8


def test_cohtable_pairs():
    t = coh_p1xp2(1, 0)
    assert t.pairs == ((0, 2), (1, 0), (2, 0), (3, 0))
