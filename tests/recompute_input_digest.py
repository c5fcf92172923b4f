"""Check the input digest of a certificate against its input file, without ncquad.

    python3 tests/recompute_input_digest.py INPUT.json CERT.json

INPUT.json is a quintuple file: {"w": ...}, {"family": "type-a", "a", "b",
"c"} or {"family": "linear"}, with an optional "field"; CERT.json is what
``ncquad certify INPUT.json --json CERT.json`` wrote.  The digest is
recomputed from the file with the standard library alone: each scalar is
the ``Fraction`` of ``str`` of its JSON value, reduced to num * den^-1 mod
p over F_p.  A w-file keeps its 2x2x2x2 nesting; a family file's w is
written from the monomials of its family, as the docstrings of
``build_type_a`` and ``build_linear_quadric`` state them.  The document
{"field": <spec>, "w": <entries as strings>} is hashed as sha256 of its
JSON with sorted keys, no whitespace and ASCII only.  Exits 0 when
``input.digest`` and ``input.field`` of the certificate match, 1 when they
do not.
"""

import hashlib
import json
import sys
from fractions import Fraction

# w of each family as a sum of signed monomials c v0v1v2v3, v_i = x_i or y_i
# (basis index 0 or 1 of slot i), c a coefficient key or 1
FAMILIES = {
    "type-a": "+a y0y1x2x3 +b y0x1y2x3 +a x0y1y2x3 +c x0x1x2x3 "
              "+a x0x1y2y3 +b x0y1x2y3 +a y0x1x2y3 +c y0y1y2y3",
    "linear": "+1 x0x1y2y3 -1 y0x1x2y3 -1 x0y1y2x3 +1 y0y1x2x3",
}


def family_w(doc: dict) -> list:
    """w of a family file, nested 2x2x2x2, its entries ``Fraction``s."""
    w = [[[[Fraction(0)] * 2 for _ in range(2)] for _ in range(2)] for _ in range(2)]
    terms = FAMILIES[doc["family"]].split()
    for coefficient, monomial in zip(terms[::2], terms[1::2]):
        sign, key = coefficient[0], coefficient[1:]
        value = Fraction(1) if key == "1" else Fraction(str(doc[key]))
        i0, i1, i2, i3 = ("xy".index(monomial[k]) for k in range(0, 8, 2))
        w[i0][i1][i2][i3] += value if sign == "+" else -value
    return w


def recompute(doc: dict) -> str:
    """The sha256 of the canonical input document of a quintuple file."""
    spec = doc.get("field", "Q")
    p = 0 if spec == "Q" else int(spec[len("Fp:"):])

    def entry(value):
        x = value if isinstance(value, Fraction) else Fraction(str(value))
        if p:
            return str(x.numerator * pow(x.denominator, -1, p) % p)
        return str(x)

    def nest(node, depth):
        return entry(node) if depth == 4 else [nest(child, depth + 1) for child in node]

    w = family_w(doc) if "family" in doc else doc["w"]
    canonical = {"field": spec, "w": nest(w, 0)}
    text = json.dumps(canonical, sort_keys=True, separators=(",", ":"), ensure_ascii=True)
    return hashlib.sha256(text.encode("ascii")).hexdigest()


def main(argv) -> int:
    input_path, cert_path = argv
    with open(input_path, encoding="utf-8") as fh:
        doc = json.load(fh)
    with open(cert_path, encoding="utf-8") as fh:
        stated = json.load(fh)["input"]
    expected = {"digest": recompute(doc), "field": doc.get("field", "Q")}
    got = {key: stated.get(key) for key in expected}
    if got != expected:
        print(f"{input_path}: certificate states {got}, the file gives {expected}")
        return 1
    print(f"{input_path}: digest {expected['digest']}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
