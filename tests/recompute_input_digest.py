"""Check the input digest of a certificate against its w-file, without ncquad.

    python3 tests/recompute_input_digest.py INPUT.json CERT.json

INPUT.json is a quintuple file {"w": ..., "field": ...}; CERT.json is what
``ncquad certify INPUT.json --json CERT.json`` wrote.  The digest is
recomputed from the file with the standard library alone: each entry is
the ``Fraction`` of ``str`` of its JSON value, reduced to num * den^-1
mod p over F_p; w keeps its 2x2x2x2 nesting; and the document
{"field": <spec>, "w": <entries as strings>} is hashed as sha256 of its
JSON with sorted keys, no whitespace and ASCII only.  Exits 0 when
``input.digest`` and ``input.field`` of the certificate match, 1 when they
do not.
"""

import hashlib
import json
import sys
from fractions import Fraction


def recompute(doc: dict) -> str:
    """The sha256 of the canonical input document of a w-file."""
    spec = doc.get("field", "Q")
    p = 0 if spec == "Q" else int(spec[len("Fp:"):])

    def entry(value):
        x = Fraction(str(value))
        if p:
            return str(x.numerator * pow(x.denominator, -1, p) % p)
        return str(x)

    def nest(node, depth):
        return entry(node) if depth == 4 else [nest(child, depth + 1) for child in node]

    canonical = {"field": spec, "w": nest(doc["w"], 0)}
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
