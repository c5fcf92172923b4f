"""Ext tables and embedding certificates.

For a square with disjoint lines, the 4x4 Ext table of the collection
(p*R, C0, C1, O) on the blow-up is derived from a finite rule set; no
general sheaf cohomology is ever invoked.  Leaves are Kuenneth tables on
P^1 x P^2, the two Hom dimensions from the Grassmannian module, and
disjoint-support vanishing; rules are long-exact-sequence splicing for
the defining sequences 0 -> C_i -> O^2 -> O_{E_i}(1,0) -> 0, Serre
duality against the restricted canonical bundle, and pushforward
adjunction.  Fully-faithfulness of the pullback and of the blow-up
functors enters as tagged axioms, never as computation.

Every derivation is a tree of JSON-ready nodes carrying their rule, the
fields that rule reads and their dims, which ``_ext`` writes as README's
rule table gives them in the branch that builds the node.  ``_cell``'s
``EXPECTED_HOM`` comparison is the one check a derived cell meets.

A table is a function of its Hom(R, K_i) pair alone, and ``_cell``
admits only (2, 2).  ``_derived(hom)`` derives the 16 cells once per
process for each pair (and keeps None for a pair with no valid table);
``_ext_table_stage`` encodes them, and ``replay_table`` accepts a table
only if it equals them cell for cell.  Each input that reaches the table
still ranks both leaves and derives the two cells (p*R, C_i), which
``_cell`` checks against ``EXPECTED_HOM``; the other 14 cells are
``_shared_cells``, read-only views of their dims.

Every stage document that holds no witness is a function of records of
small integers, flags and fixed strings, so it is built and encoded once
per process for each distinct value: the relations, quiver, ext_table
and gram documents always, the geometricity document when no pair of
the report carries a ``PureWitness`` (every pair passed, so its four
kernel dims, each 0 or 1, fix the report and key the cache), the lines
document when the ``LineRelation`` carries no ``MeetWitness`` (disjoint,
or coincide).  A document that holds a witness stays an inline dict: its
coordinates are field values, which would make the cache keys unbounded.
The quiver document's key is the three records that ``squares`` builds
once per process, so its lookup hits by identity on their kept hashes.
So a certified certificate encodes only its input digest, ``det`` and
verdict per input.  ``canonical_json_bytes`` alone reads the text of
each shared document, which it splices into the certificate's bytes.

``full_pipeline`` decides: it runs geometricity, the square (the
determinant) and the lines, the only stages that can fail, and returns a
``Certificate`` holding their artifacts; it builds no document and
computes no digest.  ``Certificate.to_dict`` explains: it renders
schema/1 for ``canonical_json_bytes`` and computes from w the stages those
three force (the relations past geometricity; the quivers, the mutation,
the Ext table and the gram once certified).  A failure there raises, so
it surfaces only where a certificate is rendered.
"""

from __future__ import annotations

from functools import cache
from types import MappingProxyType

from . import __version__ as _toolkit_version
from .blowup import canonical_class, coh_p1xp2, restrict_to_E
from .fields import _field_str
from .fileformat import FrozenJSON, field_to_str, input_digest, scalar_json
from .grassmann import LineRelation, hom_R_K_dim, hom_R_O_dim, line_relation
from .quintuples import (GeometricityReport, Quintuple, RelationData, _passed, is_geometric,
                         relations, truncated_dims)
from .records import Record, kept
from .squares import (
    BLOCK_GRAM,
    CONVENTIONS,
    GeometricSquare,
    MutationReport,
    NotGeneric,
    QuiverAlgebra,
    block_quiver,
    gram_base_change,
    linear_quiver,
    mutate_linear_to_block,
    square_from_quintuple,
)

OBJECTS = ("p*R", "C0", "C1", "O")
_CELLS = tuple((i, j) for i in range(4) for j in range(4))   # row by row

EXPECTED_HOM = {
    (0, 0): 1, (0, 1): 2, (0, 2): 2, (0, 3): 4,
    (1, 1): 1, (1, 3): 2,
    (2, 2): 1, (2, 3): 2,
    (3, 3): 1,
}


class ExtTableError(Exception):
    """A derived cell is not the one ``EXPECTED_HOM`` fixes, or a table is
    not the one the rules derive."""


# the tagged categorical inputs and the dimension vectors they assert
AXIOM_DIMS = {
    "pullback-exceptional:p*R": (1, 0, 0, 0, 0),
    "exceptional:O": (1, 0, 0, 0, 0),
    "pair-backward:O,p*R": (0, 0, 0, 0, 0),
    "orlov-exceptional:O_E0(1,0)": (1, 0, 0, 0, 0),
    "orlov-exceptional:O_E1(1,0)": (1, 0, 0, 0, 0),
}


# -- the cells of the table ----------------------------------------------------


def _twists():
    """Restriction bookkeeping used by the Serre leaves: omega restricted to
    an exceptional divisor, and the pulled-back rank-2 bundle restricted as
    O(-1,0)^2 (subbundle splitting type of the line)."""
    om = restrict_to_E(canonical_class(), 0)          # (-4, -2)
    oe = (1, 0)
    serre_o = (oe[0] + om.m, oe[1] + om.n)            # (-3, -2)
    serre_r = (serre_o[0] + 1, serre_o[1])            # (-2, -2): extra O(1,0) from R*
    return serre_o, serre_r


_C = ("C0", "C1")
_E = ("O_E0(1,0)", "O_E1(1,0)")     # the twisted structure sheaf of each divisor

# the pairs among p*R and O that are tagged axioms: name and note
_AXIOM_CELLS = {
    ("p*R", "p*R"): ("pullback-exceptional:p*R",
                     "Lp* is fully faithful and R is exceptional downstairs (tagged axiom)"),
    ("O", "O"): ("exceptional:O", "the structure sheaf is exceptional"),
    ("O", "p*R"): ("pair-backward:O,p*R",
                   "no backward maps in the pulled-back exceptional pair"),
}


def _coh_leaf(m: int, n: int, copies: int, note: str) -> dict:
    dims = [copies * h for h in coh_p1xp2(m, n).dims] + [0]
    return {"rule": "coh-leaf", "m": m, "n": n, "copies": copies, "note": note, "dims": dims}


def _twice(child: dict) -> dict:
    return {"rule": "scale", "copies": 2, "child": child, "dims": [2 * d for d in child["dims"]]}


def _axiom(name: str, note: str) -> dict:
    return {"rule": "axiom", "name": name, "note": note, "dims": list(AXIOM_DIMS[name])}


def _ext(hom, x: str, y: str) -> dict:
    """The derivation of Ext^*(x, y) for x, y among p*R, O, the C_i and the
    O_Ei(1,0), each node with the dims README's rule table gives it;
    ``hom[i]`` is dim Hom(R, K_i).  A C_i is resolved by its defining
    sequence 0 -> C_i -> O^2 -> O_Ei(1,0) -> 0, in the first slot before
    the second; every other pair is a leaf, a Serre dual or a tagged axiom."""
    if x in _C:
        i = _C.index(x)
        sub, middle = _ext(hom, _E[i], y), _twice(_ext(hom, "O", y))
        if y in _C:     # Ext^*(O^2, y) = 0, so Ext^k(C_i, y) = Ext^(k+1)(O_Ei(1,0), y)
            mode, dims = "middle-vanishes", sub["dims"][1:] + [0]
        else:           # Ext^*(O_Ei(1,0), y) = 0, so Ext^*(C_i, y) = Ext^*(O^2, y)
            mode, dims = "sub-vanishes", list(middle["dims"])
        return {"rule": "les-contravariant", "Y": y, "i": i, "mode": mode,
                "sub": sub, "middle": middle, "dims": dims}
    if y in _C:
        i = _C.index(y)
        middle, quotient = _twice(_ext(hom, x, "O")), _ext(hom, x, _E[i])
        if x == "p*R":
            mode, leaf, h = "leaf", {"rule": "hom-R-K-leaf", "line": i, "value": hom[i]}, hom[i]
        else:   # Hom(x, O^2) -> Hom(x, O_Ei(1,0)) is bijective, or Hom(x, O^2) = 0
            mode, leaf, h = ("eval-iso" if x == "O" else "forced-zero"), None, 0
        mid, quo = middle["dims"], quotient["dims"]
        return {"rule": "les-covariant", "X": x, "i": i, "hom_mode": mode, "hom": leaf,
                "middle": middle, "quotient": quotient,
                "dims": [h, quo[0] - mid[0] + h, quo[1], quo[2], quo[3]]}
    if x in _E and y in _E:
        if x != y:
            return {"rule": "disjoint-support", "objects": [x, y], "dims": [0, 0, 0, 0, 0]}
        return _axiom(f"orlov-exceptional:{x}",
                      "the blow-up functor is fully faithful on the center (tagged axiom)")
    if x in _E:
        serre_o, serre_r = _twists()
        if y == "O":
            m, n = serre_o
            leaf = _coh_leaf(m, n, 1, f"{x} twisted by omega restricted = O({m},{n})")
            note = "Ext^k(O_E(1,0), O) = H^(4-k)(E, O(-3,-2))* by Serre duality"
        else:
            m, n = serre_r
            leaf = _coh_leaf(m, n, 2,
                             "as above plus O(1,0) from the dual of the restricted subbundle")
            note = "Ext^k(O_E(1,0), p*R) = H^(4-k)(E, O(-2,-2)^2)* by Serre duality"
        return {"rule": "serre-dual", "child": leaf, "note": note, "dims": leaf["dims"][::-1]}
    if y in _E:
        if x == "O":
            return _coh_leaf(1, 0, 1, f"Hom(O, {y}[k]) = H^k(E, O(1,0))")
        return _coh_leaf(2, 0, 2, f"Hom(p*R, {y}[k]) = H^k(E, O(2,0)^2): "
                                  "restricted subbundle O(-1,0)^2 dualized and twisted")
    if (x, y) == ("p*R", "O"):
        # two hom_R_O_dim calls, as one per coh leaf: the perfbench self-test counts their spans
        return {"rule": "strong-pair", "hom": {"rule": "hom-R-O-leaf", "value": hom_R_O_dim()},
                "note": "pullback of the strong exceptional pair (R, O); forward Hom is V*",
                "dims": [hom_R_O_dim(), 0, 0, 0, 0]}
    return _axiom(*_AXIOM_CELLS[(x, y)])


class ExtTable(Record):
    """Degree-indexed Ext dimensions for (p*R, C0, C1, O), each cell with
    its derivation unless it is shared (see ``ext_table``)."""

    objects: tuple
    cells: dict   # (i, j) -> {"dims": [...], "derivation": node}, or {"dims": (...)} if shared
    hom: tuple | None = None   # the Hom(R, K_i) dims it is derived from; None if parsed

    def dims(self, i: int, j: int) -> tuple:
        return tuple(self.cells[(i, j)]["dims"])


# the cells (p*R, C_i), the only ones whose derivation reads Hom(R, K_i)
_INPUT_CELLS = ((0, 1), (0, 2))


def _cell(hom, i: int, j: int) -> dict:
    x, y = OBJECTS[i], OBJECTS[j]
    node = _ext(hom, x, y)
    dims = list(node["dims"])
    expected = [EXPECTED_HOM.get((i, j), 0), 0, 0, 0, 0]
    if dims != expected:
        raise ExtTableError(f"cell ({x}, {y}) has dims {dims}, expected {expected}")
    return {"dims": dims, "derivation": node}


@cache
def _derived(hom: tuple) -> dict | None:
    """(i, j) -> the cell the rules derive from the Hom(R, K_i) dims
    ``hom``, or None, kept as well, for a pair with no valid table, where
    ``_cell`` raises ExtTableError.  It is the one table ``replay_table``
    accepts for a square with those dims."""
    try:
        return {key: _cell(hom, *key) for key in _CELLS}
    except ExtTableError:
        return None


@cache
def _shared_cells(hom: tuple) -> dict:
    """(i, j) -> a read-only view of the dims of each cell of ``_derived(hom)``
    that reads no Hom(R, K_i) leaf, shared by every table derived from ``hom``.
    ``ext_table`` asks only once ``_cell`` has passed the input cells, so
    ``hom`` has a valid table."""
    derived = _derived(hom)
    return {key: MappingProxyType({"dims": tuple(derived[key]["dims"])})
            for key in _CELLS if key not in _INPUT_CELLS}


def ext_table(square: GeometricSquare) -> ExtTable:
    """The table of a square whose lines are disjoint, as the ``lines``
    stage has decided.

    Both Hom(R, K_i) leaves are ranked for every square, and the two cells
    that read them are derived from them; the other 14 are the dims alone
    of that pair's ``_shared_cells``.  ``_cell`` checks each derived cell
    against ``EXPECTED_HOM``, so a leaf other than 2 raises ExtTableError
    naming the cell, its dims and the dims expected."""
    hom = (hom_R_K_dim(square.line(0)), hom_R_K_dim(square.line(1)))
    inputs = {key: _cell(hom, *key) for key in _INPUT_CELLS}
    shared = _shared_cells(hom)
    return ExtTable(OBJECTS, {key: inputs.get(key) or shared[key] for key in _CELLS}, hom)


def gram_of(table: ExtTable) -> tuple:
    """Euler pairing of the table: alternating sums per cell."""
    rows = []
    for i in range(4):
        row = []
        for j in range(4):
            dims = table.dims(i, j)
            row.append(sum(dims[0::2]) - sum(dims[1::2]))
        rows.append(tuple(row))
    return tuple(rows)


# -- replay ----------------------------------------------------------------


def replay_table(table: ExtTable, square: GeometricSquare) -> bool:
    """Check ``table`` against the rule set: each of its 16 cells, in table
    order, must equal the cell ``_derived`` holds for the square's two
    Hom(R, K_i) dims, which the rules built node by node and ``_cell``
    checked against ``EXPECTED_HOM``.  Raises ExtTableError when the rules
    derive no table from those dims, and at the first cell that is missing
    or differs."""
    hom = (hom_R_K_dim(square.line(0)), hom_R_K_dim(square.line(1)))
    derived = _derived(hom)
    if derived is None:
        raise ExtTableError(f"the rules derive no table from Hom(R, K_i) = {hom}")
    for i, j in _CELLS:
        cell = table.cells.get((i, j))
        if cell is None:
            raise ExtTableError(f"cell ({i},{j}) is missing")
        # ``==`` takes 1.0 for 1; a top node's i is the one index the rules read
        if cell != derived[(i, j)] or not isinstance(cell["derivation"].get("i", 0), int):
            raise ExtTableError(f"cell ({i},{j}) is not the cell the rules derive")
    return True


# -- schema/1 rendering -------------------------------------------------------


def _json_vec(vec) -> list:
    return [scalar_json(x) for x in vec]


def _geometricity_json(report, p: int) -> dict:
    pairs = []
    for r in report.pairs:
        entry = {
            "pair": [r.j, (r.j + 1) % 4],
            "passed": r.passed,
            "kernel_dim": r.kernel_dim,
            "certificate": r.certificate,
        }
        if r.witness is not None:
            w = {"phi": _json_vec(r.witness.phi), "chi": _json_vec(r.witness.chi)}
            if r.witness.extension_disc is not None:
                w["extension_minpoly"] = f"theta^2-({_field_str(r.witness.extension_disc, p)})"
            entry["witness"] = w
        pairs.append(entry)
    return {"passed": report.passed, "pairs": pairs}


def _line_relation_json(lr, p: int) -> dict:
    out = {
        "verdict": lr.verdict.capitalize(),
        "count": lr.count,
        "flag": lr.flag,
        "psi_reshuffle_rank": lr.psi_reshuffle_rank,
        "orientations": list(lr.orientations),
        "witnesses": [],
    }
    for w in lr.witnesses:
        entry = {
            "param_line1": _json_vec(w.param_l1),
            "param_line0": _json_vec(w.param_l0),
        }
        if w.extension_disc is not None:
            entry["extension_minpoly"] = f"theta^2-({_field_str(w.extension_disc, p)})"
        out["witnesses"].append(entry)
    return out


def _quiver_json(qa: QuiverAlgebra) -> dict:
    return {
        "vertices": list(qa.vertices),
        "arrows": [
            {"from": a.source, "to": a.target, "labels": list(a.labels), "space": a.space}
            for a in qa.arrows
        ],
        "arrow_dim_total": sum(len(a.labels) for a in qa.arrows),
        "relation_dim": qa.relation_dim,
        "total_dim": qa.total_dim,
        "gram": [list(r) for r in qa.gram],
    }


# the stage documents shared between inputs (see the module docstring);
# their keys hold dims at most 8, ranks at most 4, flags and fixed strings


@cache
def _geometricity_stage(kernel_dims: tuple) -> FrozenJSON:
    """The geometricity stage document of a report with no witness, which
    reads no field: every pair passed, and its kernel dimension, 0 or a
    nonsingular kernel line, fixes its report."""
    report = GeometricityReport(tuple(_passed(j, kd) for j, kd in enumerate(kernel_dims)))
    return FrozenJSON({"stage": "geometricity", "passed": True,
                       "report": _geometricity_json(report, 0)})


@cache
def _relations_stage(rel: RelationData) -> FrozenJSON:
    """The relations stage document: dims, issues and the window."""
    table = truncated_dims(rel)
    return FrozenJSON({
        "stage": "relations",
        "passed": rel.valid,
        "dims": dict(zip(("R0", "R1", "W"), rel.dims)),
        "issues": list(rel.issues),
        "window": {f"{i},{j}": list(table.cells[(i, j)])
                   for (i, j) in sorted(table.cells)},
        "window_mismatches": [list(c) for c in table.mismatches],
    })


@cache
def _quiver_stage(bq: QuiverAlgebra, lq: QuiverAlgebra, mreport: MutationReport) -> FrozenJSON:
    """The quiver stage document: both quiver dumps, the mutation report
    and the base-changed linear Gram."""
    return FrozenJSON({
        "stage": "quiver",
        "passed": bq.relation_dim == 4 and mreport.structural_match,
        "block": _quiver_json(bq),
        "linear": _quiver_json(lq),
        "mutation": {
            "orthogonality_bijective": mreport.orthogonality_bijective,
            "a13_dim": mreport.a13_dim,
            "new_hom_dim": mreport.new_hom_dim,
            "structural_match": mreport.structural_match,
            "notes": list(mreport.notes),
            "base_changed_linear_gram": [list(r) for r in gram_base_change(lq)],
        },
    })


@cache
def _lines_stage(relation: LineRelation, passed: bool) -> FrozenJSON:
    """The lines stage document of a relation with no meet witness, which
    reads no field: disjoint with its flag, or coincide."""
    return FrozenJSON({"stage": "lines", "passed": passed,
                       "relation": _line_relation_json(relation, 0)})


@cache
def _ext_table_stage(hom: tuple) -> FrozenJSON:
    """The ext_table stage document of every table derived from ``hom``:
    the 16 cells of ``_derived(hom)``."""
    cells = {f"{i},{j}": cell for (i, j), cell in _derived(hom).items()}
    table = {"objects": list(OBJECTS), "cells": cells}
    return FrozenJSON({"stage": "ext_table", "passed": True, "table": table,
                       "axioms_tagged": ["pullback fully faithful",
                                         "blow-up functors fully faithful"]})


@cache
def _gram_stage(euler: tuple) -> FrozenJSON:
    """The gram stage document of the Euler pairing ``euler``."""
    return FrozenJSON({"stage": "gram", "passed": euler == BLOCK_GRAM,
                       "euler": [list(r) for r in euler]})


class Certificate(Record):
    """What ``full_pipeline`` decided for one input: the artifacts of the
    deciding stages that ran, and the stage that fixed the verdict with its
    reason ("" when certified).  ``to_dict`` renders schema/1 from them and w."""

    q: Quintuple
    convention: str
    geometricity: GeometricityReport
    stage: str = ""
    reason: str = ""
    square: GeometricSquare | None = None
    lines: LineRelation | None = None

    @property
    def certified(self) -> bool:
        return not self.stage

    @kept
    def digest(self) -> str:
        return input_digest(self.q)

    @property
    def field(self) -> str:
        return field_to_str(self.q.field)

    @property
    def verdict(self) -> dict:
        if self.certified:
            return {"certified": True}
        return {"certified": False, "stage": self.stage, "reason": self.reason}

    @property
    def stages(self) -> list:
        q, p = self.q, self.q.field.characteristic
        geo, square, lr = self.geometricity, self.square, self.lines
        if any(r.witness for r in geo.pairs):
            out = [{"stage": "geometricity", "passed": geo.passed,
                    "report": _geometricity_json(geo, p)}]
        else:
            out = [_geometricity_stage(tuple(r.kernel_dim for r in geo.pairs))]
        if not geo.passed:
            return out
        rel = relations(q)
        out.append(_relations_stage(rel))
        if square is None:
            out.append({"stage": "determinant", "passed": False, "det": "0"})
            return out
        out.append({"stage": "determinant", "passed": True,
                    "det": scalar_json(square.contraction_det)})
        if lr.witnesses:
            out.append({"stage": "lines", "passed": self.certified,
                        "relation": _line_relation_json(lr, p)})
        else:
            out.append(_lines_stage(lr, self.certified))
        if not self.certified:
            return out
        bq = block_quiver(square)
        lq = linear_quiver(rel)
        _, mreport = mutate_linear_to_block(q, rel, bq)
        table = ext_table(square)
        out += [_quiver_stage(bq, lq, mreport), _ext_table_stage(table.hom),
                _gram_stage(gram_of(table))]
        return out

    def to_dict(self) -> dict:
        return {"schema": "ncquad.certificate/1", "version": _toolkit_version,
                "input": {"digest": self.digest, "field": self.field},
                "convention": self.convention, "stages": self.stages, "verdict": self.verdict}


# -- full pipeline -----------------------------------------------------------


def full_pipeline(q: Quintuple, convention: str = "ruling") -> Certificate:
    """Decide the verdict of ``q``: geometricity, then the determinant
    (the square), then the lines; the first that fails fixes it.

    The stages that follow from those three (relations, quiver, ext_table,
    gram) do not run here: ``Certificate.to_dict`` computes them when it
    renders.  An unknown convention raises ValueError before any stage runs.
    """
    if convention not in CONVENTIONS:
        raise ValueError(f"unknown convention {convention!r}")
    geo = is_geometric(q)
    if not geo.passed:
        return Certificate(q, convention, geo, "geometricity",
                           f"pure witness at slot pairs {geo.failing_pairs()}")
    try:
        square = square_from_quintuple(q, convention)
    except NotGeneric as exc:
        return Certificate(q, convention, geo, "determinant", exc.reason)
    lr = line_relation(square.line(1))   # line 0 is the standard line
    if lr.verdict != "disjoint":
        return Certificate(q, convention, geo, "lines", lr.verdict.capitalize(), square, lr)
    return Certificate(q, convention, geo, "", "", square, lr)
