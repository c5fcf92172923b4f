r"""Input files, canonical serialization, and digests.

A quintuple file is JSON with exactly one of:

    {"family": "linear"}
    {"family": "type-a", "a": "1", "b": "2", "c": "3"}
    {"w": [[[[...]]]]}            (2x2x2x2 nested exact-rational strings)

plus an optional {"field": "Q" | "Fp:<prime>"} (default "Q"), the prime
in its canonical decimal spelling (no sign, space, underscore, leading
zero or non-ASCII digit), and no other key.  A scalar is ``str`` of its
JSON value (so ``0.1`` is 1/10) in one ASCII grammar, an integer, a
fraction or a decimal whose exponent is at most 10000 in absolute value,
which ``_scalar`` checks before ``fractions.Fraction`` reads the text;
the one coercion of w's row, ``linalg._integers``, reduces it mod p over
F_p:

    [-+]?[0-9]+  |  [-+]?[0-9]+/[0-9]+  |  [-+]?[0-9]+(\.[0-9]+)?([eE][-+]?[0-9]+)?

Any other text (".5", "5.", "1_000", whitespace, a non-ASCII digit) is
refused on every Python.  The tensor index order is slots 0..3 with basis
index 0 = x and 1 = y.  Digests are over the canonical full-tensor form,
so equivalent spellings of the same input agree.

``input_digest`` hashes the canonical bytes of the file
{"field": <field spec>, "w": <nested exact strings>}, as
``canonical_json_bytes`` would write it, but without building that
document: one %-format of the module constant ``_DIGEST_TEXT`` fills in
the field spec and the 16 entries of w's integer row, row-major.  Over
F_p the entries are the residues; over QQ each is its numerator over the
common denominator after one gcd, as ``tensor_nested_strings`` spells
it.  An integer past the interpreter's int-to-decimal digit limit is
written by ``fields._exact_str``.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from fractions import Fraction

from .fields import GF, QQ, PrimeField, RationalField, _exact_str
from .quintuples import SLOT_LABELS, Quintuple, build_linear_quadric, build_type_a
from .tensors import Tensor


# the keys each kind of quintuple file may hold
_KEYS = {
    "linear": {"family", "field"},
    "type-a": {"family", "a", "b", "c", "field"},
    "w": {"w", "field"},
}


class InputError(ValueError):
    """Malformed or unsupported input file contents."""


class ExcludedInput(ValueError):
    """A well-formed file naming no admissible quintuple: a type-A point
    on the excluded locus S, or w = 0.  A mathematical rejection, not an
    input error."""


def field_to_str(field) -> str:
    if isinstance(field, RationalField):
        return "Q"
    if isinstance(field, PrimeField):
        return f"Fp:{field.p}"
    raise InputError(f"no file spelling for field {field!r}")


def field_from_str(s: str):
    if not isinstance(s, str):
        raise InputError(f"field spec must be a string, not {s!r}")
    if s == "Q":
        return QQ
    if s.startswith("Fp:"):
        try:
            p = int(s[3:])
        except ValueError:
            raise InputError(f"bad prime in field spec {s!r}") from None
        if s != f"Fp:{p}":
            raise InputError(f"field spec {s!r} is not spelled Fp:{p}")
        try:
            return GF(p)
        except ValueError as exc:
            raise InputError(str(exc)) from None
    raise InputError(f"unknown field spec {s!r}")


def scalar_json(x):
    """JSON value for one scalar: a ``Fraction`` or an int (a residue mod p)
    as its ``_exact_str``, and an (x, y) pair for x + y theta as [x, y]."""
    if isinstance(x, (int, Fraction)):
        return _exact_str(x)
    if isinstance(x, tuple):
        return [scalar_json(x[0]), scalar_json(x[1])]
    raise TypeError(f"not a scalar: {x!r}")


# the largest |e| of a scalar's decimal exponent: Fraction builds 10**e
# before anything reduces it, and every stage then computes on its digits
_MAX_EXPONENT = 10_000

# the grammar of a scalar's text, an integer, a fraction or a decimal, in
# ASCII digits only: the module docstring states it, and _RULE in messages
_SCALAR = re.compile(r"[-+]?[0-9]+(?:/[0-9]+|(?:\.[0-9]+)?(?:[eE](?P<exp>[-+]?[0-9]+))?)")
_RULE = ("a scalar is an integer [-+]?[0-9]+, a fraction [-+]?[0-9]+/[0-9]+ or a decimal "
         r"[-+]?[0-9]+(\.[0-9]+)?([eE][-+]?[0-9]+)?, and no scalar holds an underscore or "
         "whitespace")


def _scalar(value) -> Fraction:
    """``Fraction`` of ``str(value)``, once the text is in the grammar
    ``_SCALAR``.  ``ValueError``, naming the rule, for any other text."""
    match = _SCALAR.fullmatch(text := str(value))
    if not match:
        raise ValueError(f"{ascii(text)} is outside the grammar: {_RULE}")
    exp = (match["exp"] or "").lstrip("+-0")
    # digit counts first: int() of a long exponent is slow, or refused
    if len(exp) > len(str(_MAX_EXPONENT)) or exp and int(exp) > _MAX_EXPONENT:
        raise ValueError(f"{ascii(text)} has a decimal exponent past ±{_MAX_EXPONENT}, "
                         f"which no scalar may: {_RULE}")
    return Fraction(text)


def parse_quintuple_file(doc: dict) -> tuple[Quintuple, dict]:
    """Parse a quintuple file dict into (Quintuple, meta).

    meta keeps the family spelling and the field tag, enough to
    serialize back to an identical canonical file.
    """
    if not isinstance(doc, dict):
        raise InputError("input must be a JSON object")
    has_family = "family" in doc
    if has_family == ("w" in doc):
        raise InputError('provide exactly one of "family" or "w"')
    kind = doc["family"] if has_family else "w"
    if has_family and kind not in ("linear", "type-a"):   # before indexing: it may be unhashable
        raise InputError(f"unknown family {kind!r}")
    unknown = sorted(map(repr, doc.keys() - _KEYS[kind]))
    if unknown:
        raise InputError(f"unknown keys for a {kind} input: {', '.join(unknown)}")
    field = field_from_str(doc.get("field", "Q"))
    if kind == "linear":
        return build_linear_quadric(field), {"family": "linear", "field": field_to_str(field)}
    if kind == "type-a":
        try:
            a, b, c = (_scalar(doc[k]) for k in ("a", "b", "c"))
        except KeyError as exc:
            raise InputError(f"type-a input needs coefficient {exc}") from None
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"bad coefficient: {exc}") from None
        try:
            q = build_type_a(a, b, c, field)
        except ZeroDivisionError as exc:     # a denominator that vanishes mod p
            raise InputError(f"bad coefficient: {exc}") from None
        except ValueError as exc:
            raise ExcludedInput(str(exc)) from None
        # a, b and c are entries 3, 5 and 0 of w's row
        num = q.w._row._num
        a, b, c = _entry_strings((num[3], num[5], num[0]), q.w._row._den, _exact_str)
        return q, {"family": "type-a", "a": a, "b": b, "c": c, "field": field_to_str(field)}
    nested = doc["w"]
    flat, texts = [], []

    def walk(node, depth):
        if depth == 4:
            if isinstance(node, (list, dict, bool)) or node is None:
                raise InputError("tensor entries must be rational strings or ints")
            try:
                flat.append(_scalar(node))
            except (ValueError, ZeroDivisionError) as exc:
                raise InputError(f"bad tensor entry {node!r}: {exc}") from None
            texts.append(node)
            return
        if not isinstance(node, list) or len(node) != 2:
            raise InputError("w must be a 2x2x2x2 nested array")
        for child in node:
            walk(child, depth + 1)

    walk(nested, 0)
    try:
        q = Quintuple(Tensor(field, (2, 2, 2, 2), flat, SLOT_LABELS))
    except ZeroDivisionError as exc:     # the first entry whose denominator vanishes mod p
        node = next(t for t, x in zip(texts, flat) if x.denominator % field.characteristic == 0)
        raise InputError(f"bad tensor entry {node!r}: {exc}") from None
    except ValueError as exc:
        raise ExcludedInput(str(exc)) from None
    meta = {"w": tensor_nested_strings(q), "field": field_to_str(field)}
    return q, meta


def tensor_nested_strings(q: Quintuple):
    """The entries of w as exact strings, nested slot by slot, written
    from the integer row of w as ``str`` writes its field elements: each
    numerator over the common denominator (1 mod p) after one gcd."""
    nested = _entry_strings(q.w._row._num, q.w._row._den, _exact_str)
    for n in reversed(q.w.shape[1:]):
        nested = [nested[i:i + n] for i in range(0, len(nested), n)]
    return nested


def _entry_strings(num, den: int, spell) -> list:
    """The entries num / den in row order, each written by ``spell`` as
    its numerator over the denominator after one gcd with den."""
    return [spell(x // g) if (g := math.gcd(x, den)) == den else f"{spell(x // g)}/{spell(den // g)}"
            for x in num]


class FrozenJSON:
    """A read-only JSON object held as its canonical text, for a value
    derived once and shared by many documents.  ``canonical_json_bytes``
    writes the text as is, and nothing else reads it: a caller reads a
    certificate through its bytes."""

    __slots__ = ("text",)

    def __init__(self, doc: dict):
        object.__setattr__(self, "text", canonical_json_bytes(doc).decode())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r} of a read-only {type(self).__name__}")


# what the encoder writes for a FrozenJSON before its text is spliced in;
# the NUL bytes keep it apart from every string ncquad puts in a document
_SPLICE = "\x00frozen\x00"
_SPLICED = json.dumps(_SPLICE)


def canonical_json_bytes(obj) -> bytes:
    """The canonical serialization of a certificate's ``to_dict()``, of an
    input file and of everything else ncquad hashes or writes: sorted
    keys, no whitespace, ASCII only.  A ``FrozenJSON`` inside ``obj`` is
    written as its stored text; a document without one is encoded in a
    single pass with no further work."""
    texts = []

    def splice(value):
        if not isinstance(value, FrozenJSON):
            raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
        texts.append(value.text)
        return _SPLICE

    out = json.JSONEncoder(sort_keys=True, separators=(",", ":"), ensure_ascii=True,
                           default=splice).encode(obj)
    if texts:
        parts = out.split(_SPLICED)
        if len(parts) != len(texts) + 1:
            raise ValueError(f"{len(parts) - 1} splice markers for {len(texts)} frozen values")
        out = parts[0] + "".join(text + part for text, part in zip(texts, parts[1:]))
    return out.encode()


# the canonical bytes of {"field": f, "w": w} with the 16 entries of w
# filled in row-major order, as canonical_json_bytes writes that document
_DIGEST_TEXT = ('{"field":"%s","w":[[[["%s","%s"],["%s","%s"]],[["%s","%s"],["%s","%s"]]],'
                '[[["%s","%s"],["%s","%s"]],[["%s","%s"],["%s","%s"]]]]}')


def input_digest(q: Quintuple) -> str:
    """The sha256 of the canonical input file {"field", "w"} of q, with w
    as ``tensor_nested_strings`` writes it, formatted straight from the
    integer row of w."""
    num, den = q.w._row._num, q.w._row._den
    field = field_to_str(q.field)
    try:
        # den is 1 over F_p and for integral w over QQ: the integers as is
        text = _DIGEST_TEXT % (field, *(num if den == 1 else _entry_strings(num, den, str)))
    except ValueError:      # an integer past the int-to-decimal digit limit
        text = _DIGEST_TEXT % (field, *_entry_strings(num, den, _exact_str))
    return hashlib.sha256(text.encode()).hexdigest()


def load_quintuple(path: str) -> tuple[Quintuple, dict]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise InputError(f"malformed JSON in {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise InputError(f"{path} is not UTF-8: {exc}") from None
    except RecursionError:
        raise InputError(f"{path} nests too deeply to parse") from None
    except ValueError as exc:    # a bare integer past the int-from-decimal digit limit
        raise InputError(f"cannot parse {path}: {exc}") from None
    return parse_quintuple_file(doc)
