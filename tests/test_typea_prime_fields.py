"""Type-A files over F_p, pinned end to end.

``build_type_a`` decides the excluded locus S = {a^2 = b^2 = c^2} u
{(0:0:1), (0:1:0)} on the residues of a, b and c.  Each file below is
pinned by the exit code of ``check`` with the sha256 of its ``--json``
stdout, and by the exit code of ``certify`` under each convention with
the sha256 of the certificate it writes (None when none is written).
The set holds fraction coefficients, a coefficient that is 0 mod p,
points excluded only mod p and a denominator that vanishes mod p.
"""

import hashlib
import re
from pathlib import Path

import pytest

from ncquad.cli import main

_DATA = Path(__file__).with_name("data")

# name -> ((check exit, stdout sha256), (ruling exit, certificate sha256),
#          (literal exit, certificate sha256))
_EMPTY = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
_TYPEA_PINS = {
    "typea-f5-fractions": (
        (0, "dfdd7a10ad0e010c859b4078857726f635c265c2e82d0aaf07565d960df8d5d0"),
        (1, "6dfe25e6860aa08ad227ae7d18657ffab9fffa35192d2fd411faf546b27e2b00"),
        (1, "d610759d7f8da439b71408f3842b7610d6d521a8bb9a7aff46842710f4a33d5e")),
    "typea-f5-zero-mod-p": (
        (0, "c2a21e2fc1633e25010e38517f4540c08a27f3abb5530177440c6f1e94bd27e0"),
        (0, "1a9076d22f1d0d7ac50493ec87c44be1e7218817604c68b4dab8295e9b91f404"),
        (1, "cdf29632070fde07b5131cba4b464837763d15dffebe60eca53480c7b6ba4e3f")),
    "typea-f5-1-2-3": (
        (0, "ec426cb81da0eebcbc3147706d1babf390de21152c5441d1e01e559ca2648d3d"),
        (0, "97c6446d9b9ebae72207d0fca1fcce975e881d166cab85fcdf89defeca8a73ad"),
        (1, "b453ad9d97f8af2ebff7b671c5ba41516deee0c2e0102a03886881ca65c92e72")),
    "typea-f5-excluded-squares": ((1, _EMPTY), (1, None), (1, None)),
    "typea-f5-excluded-001": ((1, _EMPTY), (1, None), (1, None)),
    "typea-f7-fractions": (
        (0, "4c2c7d37596f41dfcb44d04a3e35cd4334a9a46fb71d67f068966e5bd624ed09"),
        (1, "7923f903423852f58c03e45f13346e49a2087cf071fdf41c470666e1abedf1d3"),
        (1, "9e2ead31437e0239b140a87a0c13e03c7ba7b758e5202f72a1df2aff23ccc8a0")),
    "typea-f7-1-2-3": (
        (0, "466b60e9007773656eda882a72db1317da8cae50bf6eaa4f5f1bee836e17622f"),
        (0, "0b8cb4e2e0b238c9132e3214b35216b173f6b7867cfef304288cdc53e55fb31f"),
        (0, "924c32e88ef6b1859b7e81d8e2eb417db907552a54beae6a5fa468b2fa4f8a7b")),
    "typea-f7-excluded-010": ((1, _EMPTY), (1, None), (1, None)),
    "typea-f101-3-5-7": (
        (0, "73ffe9ce092eb79530af3a6663793408cf06107416e076594e4b526de72e1eef"),
        (0, "4b56f190caea61d99991eeecbc2286ee397d04e379278ad1fc20663d58e7aae9"),
        (0, "9c8e40ded1fc84584ad53ad6e9b36d3af1d3824f2db5addb3b2e138bf842472c")),
    "typea-f101-fractions": (
        (0, "dd9e563af5f86976d40b83ec9b98cb603584e6e58710a63dc2b6ebd043e17c0b"),
        (0, "9f8a2ed090bf6c1e2c2fa9757e8e64a84aad2717ec1a128d5a0725e7bfbc0810"),
        (0, "26d92bac004e399cb61ec5689e95454db5abcc81f08f7ca66087ce10494931c5")),
    "typea-f10007-1-2-3": (
        (0, "a4e41b69337de5457f19fe1a6b820aa67df66be830dae1a07d2d7eea4d383162"),
        (0, "a6954e8d821bf623c0920415431ed30e629c047ea3ad0bcb9258ed921a960e71"),
        (0, "d991d356f00fa207ecf1664b8e7595c85dcd89dc5de545b6dc372ee5c501e7d0")),
    "typea-f10007-fractions": (
        (0, "fa7cba0c004a5d9b39ef4f94075a39b814aba389afb68f553824c052128af307"),
        (0, "f3379e51ecc652514745847400277706c1063f418b4c968fcd0a4d7ed69b3802"),
        (0, "8adab8ba887603a8537dbcdd4a3bb26792bdcfd62ac330199949e84fe5103ea7")),
    "typea-f10007-excluded-squares": ((1, _EMPTY), (1, None), (1, None)),
    "malformed-typea-f5-denominator": ((2, _EMPTY), (2, None), (2, None)),
}

# the stderr line of every file that names no quintuple
_REJECTIONS = {
    "typea-f5-excluded-squares": "rejected: excluded locus S: a^2 = b^2 = c^2",
    "typea-f5-excluded-001": "rejected: excluded locus S: point (0:0:1)",
    "typea-f7-excluded-010": "rejected: excluded locus S: point (0:1:0)",
    "typea-f10007-excluded-squares": "rejected: excluded locus S: a^2 = b^2 = c^2",
    "malformed-typea-f5-denominator": "input error: bad coefficient: the denominator vanishes mod 5",
}


@pytest.mark.parametrize("name", sorted(_TYPEA_PINS))
def test_check_is_pinned(name, capsys):
    code = main(["check", str(_DATA / f"{name}.json"), "--json"])
    out = capsys.readouterr().out
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == _TYPEA_PINS[name][0]


@pytest.mark.parametrize("convention", ["ruling", "literal"])
@pytest.mark.parametrize("name", sorted(_TYPEA_PINS))
def test_certify_and_its_certificate_are_pinned(name, convention, tmp_path, capsys):
    out = tmp_path / "cert.json"
    code = main(["certify", str(_DATA / f"{name}.json"), "--convention", convention,
                 "--json", str(out)])
    digest = hashlib.sha256(out.read_bytes()).hexdigest() if out.exists() else None
    expected = _TYPEA_PINS[name][1 if convention == "ruling" else 2]
    assert (code, digest) == expected


@pytest.mark.parametrize("name", sorted(_REJECTIONS))
def test_rejections_name_their_reason(name, capsys):
    main(["check", str(_DATA / f"{name}.json")])
    assert capsys.readouterr().err.strip() == _REJECTIONS[name]


def test_the_set_covers_every_prime_and_every_excluded_point():
    names = set(_TYPEA_PINS)
    assert {re.search(r"-(f\d+)-", n)[1] for n in names} == {"f5", "f7", "f101", "f10007"}
    assert set(_REJECTIONS.values()) >= {
        "rejected: excluded locus S: a^2 = b^2 = c^2",
        "rejected: excluded locus S: point (0:0:1)",
        "rejected: excluded locus S: point (0:1:0)"}
    assert {p.name for p in _DATA.glob("*typea-f*.json")} == {n + ".json" for n in names}
