"""Every {0,1} tensor: an exhaustive census of the 65,535 nonzero tensors
w with entries 0 and 1, with its stage histogram pinned.

Two kinds of symmetry map the family to itself and keep the stage: the
basis swap e0 <-> e1 in each slot (16 elements of GL_2^4) and the shift
of the slots by two, (V0, V1, V2, V3) -> (V2, V3, V0, V1).  Their group
of 32 elements acts on the 16 entries of w by permutations, written out
below as a pick table that shares no code with ``src/``.  It has 2,301
orbits on the family.  One representative per orbit is decided under
both conventions over QQ, F_5 and F_7, each stage weighted by its orbit
size, and every representative past geometricity is rendered, so each
forced stage (relations, quiver, ext_table, gram) runs on the whole
family.  A seeded sample of orbit members checks that the stage is
constant on orbits.

A histogram that differs is a verdict change: it is reported with the w
that moved, never re-pinned to make this pass.
"""

import random
from collections import Counter
from functools import cache

import pytest

from helpers import certificate_json
from ncquad.certify import full_pipeline
from ncquad.fields import GF, QQ
from ncquad.quintuples import SLOT_LABELS, Quintuple
from ncquad.tensors import Tensor

CONVENTIONS = ("ruling", "literal")
FIELDS = {"QQ": QQ, "F5": GF(5), "F7": GF(7)}

# convention -> stage -> number of tensors, the same over QQ, F_5 and F_7
HISTOGRAM = {
    "ruling": {"certified": 15216, "determinant": 4632, "geometricity": 45687},
    "literal": {"certified": 10480, "determinant": 4632, "lines": 4736,
                "geometricity": 45687},
}


def _pick_table() -> tuple:
    """For each of the 32 symmetries, the entry of w that each entry of
    its image reads: entry (a, b, c, d) sits at 8a + 4b + 2c + d.  The
    image first shifts the slots by ``shift`` and then swaps the basis of
    each slot whose bit is set in ``flips``."""
    table = []
    for flips in range(16):
        for shift in (0, 2):
            picks = []
            for i in range(16):
                digits = [(i >> (3 - s)) & 1 for s in range(4)]
                src = digits[shift:] + digits[:shift]
                src = [x ^ (flips >> (3 - s)) & 1 for s, x in enumerate(src)]
                picks.append(8 * src[0] + 4 * src[1] + 2 * src[2] + src[3])
            table.append(tuple(picks))
    return tuple(table)


PICKS = _pick_table()


def _entries(mask: int) -> list:
    """The 16 entries of w, row-major, from the bits of ``mask``, entry 0 highest."""
    return [mask >> (15 - i) & 1 for i in range(16)]


def _image(mask: int, picks: tuple) -> int:
    bits = _entries(mask)
    return sum(bits[src] << (15 - i) for i, src in enumerate(picks))


@cache
def _orbits() -> tuple:
    """(representative, orbit size) for each orbit, the representative
    being its least mask."""
    seen = bytearray(1 << 16)
    orbits = []
    for mask in range(1, 1 << 16):
        if not seen[mask]:
            orbit = {_image(mask, picks) for picks in PICKS}
            for member in orbit:
                seen[member] = 1
            orbits.append((mask, len(orbit)))
    return tuple(orbits)


def _quintuple(mask: int, field) -> Quintuple:
    return Quintuple(Tensor(field, (2, 2, 2, 2), _entries(mask), SLOT_LABELS))


@cache
def _decided(field_name: str) -> dict:
    """convention -> representative -> its certificate over the field."""
    field = FIELDS[field_name]
    return {convention: {mask: full_pipeline(_quintuple(mask, field), convention)
                         for mask, _ in _orbits()}
            for convention in CONVENTIONS}


def _stage(cert) -> str:
    return cert.stage or "certified"


def test_the_pick_table_is_a_group_of_32_and_has_2301_orbits():
    identity = tuple(range(16))
    assert len(set(PICKS)) == 32 and identity in PICKS
    for f in PICKS:
        for g in PICKS:
            assert tuple(f[g[i]] for i in range(16)) in PICKS
    orbits = _orbits()
    assert len(orbits) == 2301
    assert sum(size for _, size in orbits) == (1 << 16) - 1
    assert all(32 % size == 0 for _, size in orbits)


@pytest.mark.parametrize("field_name", sorted(FIELDS))
def test_the_stage_histogram_is_pinned(field_name):
    decided = _decided(field_name)
    sizes = dict(_orbits())
    for convention in CONVENTIONS:
        histogram = Counter()
        for mask, cert in decided[convention].items():
            histogram[_stage(cert)] += sizes[mask]
        assert histogram == HISTOGRAM[convention], (field_name, convention)


@pytest.mark.parametrize("field_name", sorted(FIELDS))
def test_every_representative_past_geometricity_renders(field_name):
    # every stage a document holds passes, but the last one of an input
    # that did not certify: the forced stages never fail on the family
    rendered = Counter()
    for convention in CONVENTIONS:
        for mask, cert in _decided(field_name)[convention].items():
            if not cert.geometricity.passed:
                continue
            doc = certificate_json(cert)
            assert doc["verdict"] == cert.verdict
            stages = doc["stages"]
            passed = [s["passed"] for s in stages]
            if cert.certified:
                assert [s["stage"] for s in stages] == [
                    "geometricity", "relations", "determinant", "lines",
                    "quiver", "ext_table", "gram"]
                assert all(passed), (mask, convention)
            else:
                assert stages[-1]["stage"] == cert.stage
                assert passed == [True] * (len(stages) - 1) + [False], (mask, convention)
            rendered[_stage(cert)] += 1
    assert rendered["certified"] > 0 and rendered["determinant"] > 0


def test_every_orbit_has_one_stage_over_every_field():
    for convention in CONVENTIONS:
        over = {name: _decided(name)[convention] for name in FIELDS}
        for mask, _ in _orbits():
            stages = {name: _stage(over[name][mask]) for name in FIELDS}
            assert len(set(stages.values())) == 1, (_entries(mask), convention, stages)


def test_orbit_members_share_their_representatives_stage():
    reps = _decided("QQ")
    rng = random.Random(19)
    for mask in rng.sample(range(1, 1 << 16), 300):
        rep = min(_image(mask, picks) for picks in PICKS)
        for convention in CONVENTIONS:
            cert = full_pipeline(_quintuple(mask, QQ), convention)
            assert _stage(cert) == _stage(reps[convention][rep]), (_entries(mask), convention)
