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

Every derivation is stored as a tree whose nodes carry their rule and
their inputs; ``replay_node`` re-derives every dimension from leaves and
rules alone, so a certificate can be re-validated without trusting any
cached conclusion.

``Analysis`` holds the artifacts of one input quintuple, each computed
once on first use; ``full_pipeline`` reads them stage by stage and
produces a deterministic, canonically serialized certificate.
"""

from __future__ import annotations

from functools import cache, cached_property

from . import __version__ as _toolkit_version
from .blowup import canonical_class, coh_p1xp2, restrict_to_E
from .fileformat import field_to_str, input_digest, scalar_json
from .grassmann import LineRelation, hom_R_K_dim, hom_R_O_dim, line_relation
from .quintuples import (
    DimTable,
    GeometricityReport,
    Quintuple,
    RelationData,
    is_geometric,
    relations,
    truncated_dims,
)
from .records import Record
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

EXPECTED_HOM = {
    (0, 0): 1, (0, 1): 2, (0, 2): 2, (0, 3): 4,
    (1, 1): 1, (1, 3): 2,
    (2, 2): 1, (2, 3): 2,
    (3, 3): 1,
}


class ExtTableError(Exception):
    """A leaf or exactness constraint failed; carries the offending node."""

    def __init__(self, message: str, node=None):
        self.node = node
        super().__init__(message)


# the tagged categorical inputs and the dimension vectors they assert;
# replay validates stored axiom nodes against this registry
AXIOM_DIMS = {
    "pullback-exceptional:p*R": (1, 0, 0, 0, 0),
    "exceptional:O": (1, 0, 0, 0, 0),
    "pair-backward:O,p*R": (0, 0, 0, 0, 0),
    "orlov-exceptional:O_E0(1,0)": (1, 0, 0, 0, 0),
    "orlov-exceptional:O_E1(1,0)": (1, 0, 0, 0, 0),
}


# -- derivation nodes (plain dicts, JSON-ready) ---------------------------


def _coh_leaf(m: int, n: int, copies: int, note: str) -> dict:
    t = coh_p1xp2(m, n)
    dims = [copies * t.h(k) for k in range(4)] + [0]
    return {"rule": "coh-leaf", "m": m, "n": n, "copies": copies,
            "note": note, "dims": dims}


def _serre_node(child: dict, note: str) -> dict:
    dims = [child["dims"][4 - k] for k in range(5)]
    return {"rule": "serre-dual", "child": child, "note": note, "dims": dims}


def _axiom_node(name: str, note: str) -> dict:
    return {"rule": "axiom", "name": name, "dims": list(AXIOM_DIMS[name]), "note": note}


def _disjoint_node(i: int, j: int) -> dict:
    return {"rule": "disjoint-support",
            "objects": [f"O_E{i}(1,0)", f"O_E{j}(1,0)"],
            "dims": [0, 0, 0, 0, 0]}


def _scale_node(copies: int, child: dict) -> dict:
    return {"rule": "scale", "copies": copies, "child": child,
            "dims": [copies * d for d in child["dims"]]}


def _hom_r_o_leaf(value: int) -> dict:
    return {"rule": "hom-R-O-leaf", "value": value}


def _hom_r_k_leaf(line: int, value: int) -> dict:
    return {"rule": "hom-R-K-leaf", "line": line, "value": value}


def _strong_pair_node(hom_leaf: dict, note: str) -> dict:
    dims = [hom_leaf["value"], 0, 0, 0, 0]
    return {"rule": "strong-pair", "hom": hom_leaf, "note": note, "dims": dims}


def _covariant_node(x: str, i: int, hom_mode: str, hom_leaf, middle: dict,
                    quotient: dict) -> dict:
    node = {"rule": "les-covariant", "X": x, "i": i, "hom_mode": hom_mode,
            "hom": hom_leaf, "middle": middle, "quotient": quotient}
    node["dims"] = _solve_covariant(node)
    return node


def _solve_covariant(node: dict) -> list:
    mid, quo = node["middle"]["dims"], node["quotient"]["dims"]
    if any(mid[k] for k in range(1, 5)):
        raise ExtTableError("covariant rule needs vanishing higher Ext against the middle", node)
    mode = node["hom_mode"]
    if mode == "leaf":
        h = node["hom"]["value"]
    elif mode == "eval-iso":
        if mid[0] != quo[0]:
            raise ExtTableError("evaluation map cannot be bijective: H^0 dims differ", node)
        h = 0
    elif mode == "forced-zero":
        if mid[0] != 0:
            raise ExtTableError("forced-zero mode needs Hom into the middle to vanish", node)
        h = 0
    else:
        raise ExtTableError(f"unknown covariant mode {mode!r}", node)
    if h > mid[0]:
        raise ExtTableError("Hom(X, C) cannot exceed Hom(X, O^2)", node)
    ext1 = quo[0] - mid[0] + h
    if mode == "eval-iso":
        ext1 = 0
    if ext1 < 0:
        raise ExtTableError("negative Ext^1 from exactness; leaf values inconsistent", node)
    return [h, ext1, quo[1], quo[2], quo[3]]


def _contravariant_node(y: str, i: int, mode: str, sub: dict, middle: dict) -> dict:
    node = {"rule": "les-contravariant", "Y": y, "i": i, "mode": mode,
            "sub": sub, "middle": middle}
    node["dims"] = _solve_contravariant(node)
    return node


def _solve_contravariant(node: dict) -> list:
    sub, mid = node["sub"]["dims"], node["middle"]["dims"]
    mode = node["mode"]
    if mode == "sub-vanishes":
        if any(sub):
            raise ExtTableError("sub-vanishes mode needs Ext^*(O_E(1,0), Y) = 0", node)
        return list(mid)
    if mode == "middle-vanishes":
        if any(mid):
            raise ExtTableError("middle-vanishes mode needs Ext^*(O^2, Y) = 0", node)
        if sub[0] != 0:
            raise ExtTableError("Hom(O_E(1,0), Y) embeds in Hom(O^2, Y) = 0", node)
        return [sub[1], sub[2], sub[3], sub[4], 0]
    raise ExtTableError(f"unknown contravariant mode {mode!r}", node)


# -- shared subtrees -------------------------------------------------------


@cache
def _twists():
    """Restriction bookkeeping used by the Serre leaves: omega restricted to
    an exceptional divisor, and the pulled-back rank-2 bundle restricted as
    O(-1,0)^2 (subbundle splitting type of the line).  A constant of the
    rule set, so it is computed once per process."""
    om = restrict_to_E(canonical_class(), 0)          # (-4, -2)
    oe = (1, 0)
    serre_o = (oe[0] + om.m, oe[1] + om.n)            # (-3, -2)
    serre_r = (serre_o[0] + 1, serre_o[1])            # (-2, -2): extra O(1,0) from R*
    return serre_o, serre_r


def _cell_pr_pr() -> dict:
    return _axiom_node(
        "pullback-exceptional:p*R",
        "Lp* is fully faithful and R is exceptional downstairs (tagged axiom)")


def _cell_o_o() -> dict:
    return _axiom_node("exceptional:O", "the structure sheaf is exceptional")


def _cell_pr_o(square: GeometricSquare) -> dict:
    value = hom_R_O_dim()
    node = _strong_pair_node(
        _hom_r_o_leaf(value),
        "pullback of the strong exceptional pair (R, O); forward Hom is V*")
    if value != 4:
        raise ExtTableError("Hom(R, O) leaf is not 4", node)
    return node


def _cell_o_pr() -> dict:
    return _axiom_node("pair-backward:O,p*R",
                       "no backward maps in the pulled-back exceptional pair")


def _cell_oe_o(i: int) -> dict:
    serre_o, _ = _twists()
    return _serre_node(
        _coh_leaf(serre_o[0], serre_o[1], 1,
                  f"O_E{i}(1,0) twisted by omega restricted = O({serre_o[0]},{serre_o[1]})"),
        "Ext^k(O_E(1,0), O) = H^(4-k)(E, O(-3,-2))* by Serre duality")


def _cell_oe_pr(i: int) -> dict:
    _, serre_r = _twists()
    return _serre_node(
        _coh_leaf(serre_r[0], serre_r[1], 2,
                  "as above plus O(1,0) from the dual of the restricted subbundle"),
        "Ext^k(O_E(1,0), p*R) = H^(4-k)(E, O(-2,-2)^2)* by Serre duality")


def _cell_pr_oe(i: int) -> dict:
    return _coh_leaf(2, 0, 2,
                     f"Hom(p*R, O_E{i}(1,0)[k]) = H^k(E, O(2,0)^2): "
                     "restricted subbundle O(-1,0)^2 dualized and twisted")


def _cell_o_oe(i: int) -> dict:
    return _coh_leaf(1, 0, 1, f"Hom(O, O_E{i}(1,0)[k]) = H^k(E, O(1,0))")


def _cell_oe_oe(i: int, j: int) -> dict:
    if i == j:
        return _axiom_node(
            f"orlov-exceptional:O_E{i}(1,0)",
            "the blow-up functor is fully faithful on the center (tagged axiom)")
    return _disjoint_node(i, j)


def _cell_o_c(i: int) -> dict:
    return _covariant_node(
        "O", i, "eval-iso", None,
        _scale_node(2, _cell_o_o()),
        _cell_o_oe(i))


def _cell_pr_c(square: GeometricSquare, i: int) -> dict:
    value = hom_R_K_dim(square.line(i))
    hom_leaf = _hom_r_k_leaf(i, value)
    if value != 2:
        raise ExtTableError(f"Hom(R, K_{i}) leaf is {value}, not 2", hom_leaf)
    return _covariant_node(
        "p*R", i, "leaf", hom_leaf,
        _scale_node(2, _cell_pr_o(square)),
        _cell_pr_oe(i))


def _cell_oe_c(j: int, i: int) -> dict:
    return _covariant_node(
        f"O_E{j}(1,0)", i, "forced-zero", None,
        _scale_node(2, _cell_oe_o(j)),
        _cell_oe_oe(j, i))


def _cell_c_pr(i: int) -> dict:
    return _contravariant_node(
        "p*R", i, "sub-vanishes",
        _cell_oe_pr(i),
        _scale_node(2, _cell_o_pr()))


def _cell_c_o(i: int) -> dict:
    return _contravariant_node(
        "O", i, "sub-vanishes",
        _cell_oe_o(i),
        _scale_node(2, _cell_o_o()))


def _cell_c_c(i: int, j: int) -> dict:
    # Hom(-, C_j) applied to the sequence defining C_i
    return _contravariant_node(
        f"C{j}", i, "middle-vanishes",
        _cell_oe_c(i, j),
        _scale_node(2, _cell_o_c(j)))


class ExtTable(Record):
    """Degree-indexed Ext dimensions for (p*R, C0, C1, O) with derivations."""

    objects: tuple
    cells: dict   # (i, j) -> {"dims": [...], "derivation": node}

    def dims(self, i: int, j: int) -> tuple:
        return tuple(self.cells[(i, j)]["dims"])

    def as_dict(self) -> dict:
        return {
            "objects": list(self.objects),
            "cells": {
                f"{i},{j}": self.cells[(i, j)] for i in range(4) for j in range(4)
            },
        }


def ext_table(square: GeometricSquare, lines: LineRelation) -> ExtTable:
    """The complete table of a square; ``lines``, the relation of its two
    lines, must be disjoint.

    Any leaf or exactness failure raises ExtTableError carrying the
    failing derivation node.
    """
    if lines.verdict != "disjoint":
        raise ExtTableError(
            f"lines are not disjoint (verdict {lines.verdict}); "
            "disjoint-support leaves are unavailable")

    cells = {}
    cells[(0, 0)] = _cell_pr_pr()
    cells[(0, 3)] = _cell_pr_o(square)
    cells[(3, 0)] = _cell_o_pr()
    cells[(3, 3)] = _cell_o_o()
    for i in (0, 1):
        cells[(0, i + 1)] = _cell_pr_c(square, i)
        cells[(i + 1, 0)] = _cell_c_pr(i)
        cells[(3, i + 1)] = _cell_o_c(i)
        cells[(i + 1, 3)] = _cell_c_o(i)
        for j in (0, 1):
            cells[(i + 1, j + 1)] = _cell_c_c(i, j)

    table = {}
    for (i, j), node in cells.items():
        dims = list(node["dims"])
        expected_hom = EXPECTED_HOM.get((i, j), 0)
        expected = [expected_hom, 0, 0, 0, 0]
        if dims != expected:
            raise ExtTableError(
                f"cell ({OBJECTS[i]}, {OBJECTS[j]}) has dims {dims}, expected {expected}",
                node)
        table[(i, j)] = {"dims": dims, "derivation": node}
    return ExtTable(OBJECTS, table)


def gram_of(table: ExtTable) -> tuple:
    """Euler pairing of the table: alternating sums per cell."""
    return tuple(
        tuple(
            sum((-1) ** k * d for k, d in enumerate(table.dims(i, j)))
            for j in range(4)
        )
        for i in range(4)
    )


# -- replay ----------------------------------------------------------------


def replay_node(node: dict, square: GeometricSquare) -> list:
    """Recompute a derivation node bottom-up from leaves and rules only,
    verifying the stored dimensions along the way."""
    rule = node["rule"]
    if rule == "coh-leaf":
        t = coh_p1xp2(node["m"], node["n"])
        dims = [node["copies"] * t.h(k) for k in range(4)] + [0]
    elif rule == "serre-dual":
        child = replay_node(node["child"], square)
        dims = [child[4 - k] for k in range(5)]
    elif rule == "axiom":
        known = AXIOM_DIMS.get(node["name"])
        if known is None:
            raise ExtTableError(f"unknown axiom {node['name']!r}", node)
        dims = list(known)          # axioms are tagged inputs, pinned by name
    elif rule == "disjoint-support":
        dims = [0, 0, 0, 0, 0]
    elif rule == "scale":
        child = replay_node(node["child"], square)
        dims = [node["copies"] * d for d in child]
    elif rule == "strong-pair":
        value = hom_R_O_dim()
        if value != node["hom"]["value"]:
            raise ExtTableError("hom-R-O leaf changed under replay", node)
        dims = [value, 0, 0, 0, 0]
    elif rule == "les-covariant":
        mid = replay_node(node["middle"], square)
        quo = replay_node(node["quotient"], square)
        probe = dict(node)
        probe["middle"] = {"dims": mid, "rule": "replayed"}
        probe["quotient"] = {"dims": quo, "rule": "replayed"}
        if node["hom_mode"] == "leaf":
            fresh = hom_R_K_dim(square.line(node["hom"]["line"]))
            if fresh != node["hom"]["value"]:
                raise ExtTableError("hom-R-K leaf changed under replay", node)
            probe["hom"] = {"value": fresh}
        dims = _solve_covariant(probe)
    elif rule == "les-contravariant":
        sub = replay_node(node["sub"], square)
        mid = replay_node(node["middle"], square)
        probe = dict(node)
        probe["sub"] = {"dims": sub, "rule": "replayed"}
        probe["middle"] = {"dims": mid, "rule": "replayed"}
        dims = _solve_contravariant(probe)
    else:
        raise ExtTableError(f"unknown rule {rule!r}", node)
    if dims != list(node["dims"]):
        raise ExtTableError(
            f"replayed dims {dims} disagree with stored {node['dims']}", node)
    return dims


def replay_table(table: ExtTable, square: GeometricSquare) -> bool:
    for (i, j), cell in table.cells.items():
        dims = replay_node(cell["derivation"], square)
        if dims != list(cell["dims"]):
            raise ExtTableError(f"cell ({i},{j}) replay mismatch", cell["derivation"])
    return True


# -- full pipeline -----------------------------------------------------------


class Certificate(Record):
    """Machine-checkable record of the whole embedding pipeline for one
    input: every stage's exact data plus a single verdict."""

    schema: str
    version: str
    digest: str
    field: str
    convention: str
    stages: tuple
    verdict: dict

    @property
    def certified(self) -> bool:
        return bool(self.verdict.get("certified"))

    def to_dict(self) -> dict:
        return {
            "schema": self.schema,
            "version": self.version,
            "input": {"digest": self.digest, "field": self.field},
            "convention": self.convention,
            "stages": list(self.stages),
            "verdict": dict(self.verdict),
        }


def _json_vec(field, vec) -> list:
    return [scalar_json(x) for x in vec]


def _geometricity_json(report, field) -> dict:
    pairs = []
    for p in report.pairs:
        entry = {
            "pair": [p.j, (p.j + 1) % 4],
            "passed": p.passed,
            "kernel_dim": p.kernel_dim,
            "certificate": p.certificate,
        }
        if p.witness is not None:
            w = {"phi": _json_vec(field, p.witness.phi),
                 "chi": _json_vec(field, p.witness.chi)}
            if p.witness.extension_disc is not None:
                w["extension_minpoly"] = f"theta^2-({p.witness.extension_disc})"
            entry["witness"] = w
        pairs.append(entry)
    return {"passed": report.passed, "pairs": pairs}


def _line_relation_json(lr, field) -> dict:
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
            "param_line1": _json_vec(field, w.param_l1),
            "param_line0": _json_vec(field, w.param_l0),
        }
        if w.extension_disc is not None:
            entry["extension_minpoly"] = f"theta^2-({w.extension_disc})"
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


class Analysis:
    """The artifacts of one input under one line convention, each computed
    on first use and then kept: geometricity report, relation data,
    window table, square, line relation, block and linear quivers,
    mutation and Ext table.  Each stage function is handed the artifacts
    it needs, never the quintuple, so no stage rebuilds another's result.

    An artifact whose construction fails raises on access and is not
    kept: ``square`` (and everything built on it) raises NotGeneric off
    the open locus U', ``linear_quiver`` and ``mutation`` raise
    ValueError on an invalid window, ``ext_table`` raises ExtTableError.
    An unknown convention raises ValueError here, before any stage runs.
    """

    def __init__(self, q: Quintuple, convention: str = "ruling"):
        if convention not in CONVENTIONS:
            raise ValueError(f"unknown convention {convention!r}")
        self.q = q
        self.convention = convention

    @cached_property
    def geometricity(self) -> GeometricityReport:
        return is_geometric(self.q)

    @cached_property
    def relations(self) -> RelationData:
        return relations(self.q)

    @cached_property
    def window(self) -> DimTable:
        return truncated_dims(self.relations)

    @cached_property
    def square(self) -> GeometricSquare:
        return square_from_quintuple(self.q, self.convention)

    @cached_property
    def lines(self) -> LineRelation:
        return line_relation(self.square.line(0), self.square.line(1))

    @cached_property
    def block_quiver(self) -> QuiverAlgebra:
        return block_quiver(self.square)

    @cached_property
    def linear_quiver(self) -> QuiverAlgebra:
        return linear_quiver(self.relations, self.window)

    @cached_property
    def mutation(self) -> tuple[QuiverAlgebra, MutationReport]:
        try:
            block = self.block_quiver
        except NotGeneric:
            block = None
        return mutate_linear_to_block(self.relations, block)

    @cached_property
    def ext_table(self) -> ExtTable:
        return ext_table(self.square, self.lines)


def full_pipeline(q: Quintuple, convention: str = "ruling") -> Certificate:
    """Run every stage in order; the first failure fixes the verdict.

    Stages: geometricity, relations (with the window table), determinant,
    lines, quiver (block + linear + mutation cross-check), ext_table,
    gram.
    """
    field = q.field
    analysis = Analysis(q, convention)
    stages = []

    def degenerate(stage, reason):
        return Certificate(
            schema="ncquad.certificate/1",
            version=_toolkit_version,
            digest=input_digest(q),
            field=field_to_str(field),
            convention=convention,
            stages=tuple(stages),
            verdict={"certified": False, "stage": stage, "reason": reason},
        )

    geo = analysis.geometricity
    stages.append({"stage": "geometricity", "passed": geo.passed,
                   "report": _geometricity_json(geo, field)})
    if not geo.passed:
        return degenerate("geometricity",
                          f"pure witness at slot pairs {geo.failing_pairs()}")

    rel = analysis.relations
    table = analysis.window
    rel_ok = rel.valid and table.valid
    stages.append({
        "stage": "relations",
        "passed": rel_ok,
        "dims": {"R0": rel.r0.ncols, "R1": rel.r1.ncols, "W": rel.w_line.ncols},
        "issues": list(rel.issues),
        "window": {f"{i},{j}": list(table.cells[(i, j)])
                   for (i, j) in sorted(table.cells)},
        "window_mismatches": [list(c) for c in table.mismatches],
    })
    if not rel_ok:
        return degenerate("relations", "; ".join(rel.issues) or
                          f"window mismatches {table.mismatches}")

    try:
        square = analysis.square
    except NotGeneric as exc:
        stages.append({"stage": "determinant", "passed": False, "det": "0"})
        return degenerate("determinant", exc.reason)
    stages.append({"stage": "determinant", "passed": True,
                   "det": scalar_json(square.contraction_det)})

    lr = analysis.lines
    lines_ok = lr.verdict == "disjoint"
    stages.append({"stage": "lines", "passed": lines_ok,
                   "relation": _line_relation_json(lr, field)})
    if not lines_ok:
        return degenerate("lines", lr.verdict.capitalize())

    bq = analysis.block_quiver
    lq = analysis.linear_quiver
    _, mreport = analysis.mutation
    base_changed = gram_base_change(lq)
    quiver_ok = (
        bq.relation_dim == 4
        and bq.total_dim == 16
        and lq.total_dim == 24
        and lq.relation_dim == 2
        and base_changed == bq.gram
        and mreport.orthogonality_bijective
        and mreport.structural_match
    )
    stages.append({
        "stage": "quiver",
        "passed": quiver_ok,
        "block": _quiver_json(bq),
        "linear": _quiver_json(lq),
        "mutation": {
            "orthogonality_bijective": mreport.orthogonality_bijective,
            "a13_dim": mreport.a13_dim,
            "new_hom_dim": mreport.new_hom_dim,
            "structural_match": mreport.structural_match,
            "notes": list(mreport.notes),
            "base_changed_linear_gram": [list(r) for r in base_changed],
        },
    })
    if not quiver_ok:
        return degenerate("quiver", "; ".join(mreport.notes) or "dimension mismatch")

    try:
        etable = analysis.ext_table
    except ExtTableError as exc:
        stages.append({"stage": "ext_table", "passed": False, "error": str(exc)})
        return degenerate("ext_table", str(exc))
    stages.append({"stage": "ext_table", "passed": True,
                   "table": etable.as_dict(),
                   "axioms_tagged": ["pullback fully faithful",
                                     "blow-up functors fully faithful"]})

    euler = gram_of(etable)
    gram_ok = euler == BLOCK_GRAM == base_changed
    stages.append({"stage": "gram", "passed": gram_ok,
                   "euler": [list(r) for r in euler]})
    if not gram_ok:
        return degenerate("gram", "Euler pairing disagrees with the block Gram")

    return Certificate(
        schema="ncquad.certificate/1",
        version=_toolkit_version,
        digest=input_digest(q),
        field=field_to_str(field),
        convention=convention,
        stages=tuple(stages),
        verdict={"certified": True},
    )
