"""Command-line interface.

Exit codes are uniform across commands: 0 success/certified, 1
mathematical failure (``certify`` names geometricity, determinant or
lines), 2 input error, 3 internal error (a bug in ncquad or a forced
fact that fails, reported with its exception type and the innermost
ncquad function and module on its traceback).  The only
mathematical failures raised rather than reported are the inputs that
name no quintuple (``ExcludedInput``).  ``--convention`` defaults to
"ruling".

``certify`` runs ``full_pipeline`` and renders the certificate only for
``--json``; ``sweep`` reads the stage that fixed each verdict; ``check``,
``quiver`` and ``mutate`` call the stage functions they print directly.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import __version__
from .blowup import coh_p1, coh_p1xp2, coh_p2
from .certify import full_pipeline
from .fileformat import (
    ExcludedInput,
    InputError,
    canonical_json_bytes,
    load_quintuple,
)
from .fields import QQ, _exact_str, _field_str
from .quintuples import build_type_a, is_geometric, relations, truncated_dims
from .squares import (
    CONVENTIONS,
    NotGeneric,
    block_quiver,
    gram_base_change,
    linear_quiver,
    mutate_linear_to_block,
    square_from_quintuple,
)

EXIT_OK = 0
EXIT_MATH = 1
EXIT_INPUT = 2
EXIT_INTERNAL = 3


def _print_gram(name, gram):
    print(f"{name}:")
    for row in gram:
        print("   " + "  ".join(f"{x:2d}" for x in row))


def _exact_repr(x, p: int) -> str:
    """A witness coordinate over QQ (p = 0) or F_p as ``check`` prints it:
    ``Fraction(n, d)``, ``_field_str``'s residue, or ``(x) + (y)*theta``
    for an (x, y) pair, its integers written by ``_exact_str``."""
    if isinstance(x, tuple):
        return f"({_exact_repr(x[0], p)}) + ({_exact_repr(x[1], p)})*theta"
    if p:
        return _field_str(x, p)
    return f"Fraction({_exact_str(x.numerator)}, {_exact_str(x.denominator)})"


def cmd_check(args) -> int:
    q, meta = load_quintuple(args.path)
    geo = is_geometric(q)
    rel = relations(q)
    table = truncated_dims(rel)
    ok = geo.passed and rel.valid
    report = {
        "input": dict(meta),
        "geometric": geo.passed,
        "failing_pairs": geo.failing_pairs(),
        "relation_dims": list(rel.dims),
        "relation_issues": list(rel.issues),
        "window_mismatches": [list(c) for c in table.mismatches],
        "valid": ok,
    }
    if args.json:
        print(json.dumps(report, sort_keys=True, indent=2))
    else:
        print(f"geometric: {geo.passed}")
        for p in geo.pairs:
            line = f"  pair ({p.j},{(p.j + 1) % 4}): {'pass' if p.passed else 'FAIL'} ({p.certificate})"
            if p.witness is not None:
                phi, chi = (", ".join(_exact_repr(x, q.field.characteristic) for x in v)
                            for v in (p.witness.phi, p.witness.chi))
                line += f"  witness phi=({phi}) chi=({chi})"
            print(line)
        print(f"relation dims (R0, R1, W): {rel.dims}  issues: {list(rel.issues)}")
        print(f"window table valid: {table.valid}")
    return EXIT_OK if ok else EXIT_MATH


def cmd_certify(args) -> int:
    q, _ = load_quintuple(args.path)
    cert = full_pipeline(q, args.convention)
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            fh.write(canonical_json_bytes(cert.to_dict()).decode())
            fh.write("\n")
    if cert.certified:
        print(f"Certified (convention: {cert.convention}, digest: {cert.digest[:16]}...)")
        return EXIT_OK
    print(f"Degenerate at stage {cert.stage!r}: {cert.reason}")
    return EXIT_MATH


def cmd_sweep(args) -> int:
    import random  # only sweep draws samples; keeps it out of every other command's start

    if args.samples < 1:
        print("need at least one sample", file=sys.stderr)
        return EXIT_INPUT
    if args.height < 1:
        print("the height must be at least 1", file=sys.stderr)
        return EXIT_INPUT
    rng = random.Random(args.seed)
    height = args.height
    counts = {}
    for _ in range(args.samples):
        triple = tuple(
            Fraction(rng.randint(-height, height), rng.randint(1, height))
            for _ in range(3)
        )
        try:
            q = build_type_a(*triple, QQ)
        except ValueError:
            counts["excluded"] = counts.get("excluded", 0) + 1
            continue
        stage = full_pipeline(q, args.convention).stage or "certified"
        counts[stage] = counts.get(stage, 0) + 1
    report = {
        "family": args.family,
        "samples": args.samples,
        "seed": args.seed,
        "height": height,
        "convention": args.convention,
        "counts": dict(sorted(counts.items())),
        "certified_fraction": counts.get("certified", 0) / args.samples,
    }
    print(json.dumps(report, sort_keys=True, indent=2))
    return EXIT_OK


def cmd_cohomology(args) -> int:
    if args.space == "p1":
        table = coh_p1(args.m)
    elif args.space == "p2":
        table = coh_p2(args.m)
    else:   # --space has its choices, so this is p1xp2
        if args.n is None:
            print("p1xp2 needs both -m and -n", file=sys.stderr)
            return EXIT_INPUT
        table = coh_p1xp2(args.m, args.n)
    print(f"space {table.space}, twist {table.twist}")
    for k, d in table.pairs:
        print(f"  h^{k} = {d}")
    print(f"  chi = {table.euler()}")
    return EXIT_OK


def cmd_quiver(args) -> int:
    q, _ = load_quintuple(args.path)
    try:
        lq = linear_quiver(relations(q))
    except ValueError as exc:   # its text starts "invalid window:"
        print(exc)
        return EXIT_MATH
    print(f"linear collection: vertices 4, arrows "
          f"{sum(len(a.labels) for a in lq.arrows)}, relations {lq.relation_dim}, "
          f"total dim {lq.total_dim}")
    _print_gram("linear Gram", lq.gram)
    try:
        bq = block_quiver(square_from_quintuple(q, args.convention))
    except NotGeneric as exc:
        print(f"no block quiver: {exc}")
        return EXIT_MATH
    print(f"block collection: vertices 4, arrows "
          f"{sum(len(a.labels) for a in bq.arrows)}, relations {bq.relation_dim}, "
          f"total dim {bq.total_dim}")
    _print_gram("block Gram", bq.gram)
    return EXIT_OK


def cmd_mutate(args) -> int:
    q, _ = load_quintuple(args.path)
    rel = relations(q)
    try:
        lq = linear_quiver(rel)
    except ValueError as exc:   # its text starts "invalid window:"
        print(exc)
        return EXIT_MATH
    try:
        bq = block_quiver(square_from_quintuple(q))
    except NotGeneric:
        bq = None
    mutated, report = mutate_linear_to_block(q, rel, bq)
    _print_gram("linear Gram (before)", lq.gram)
    _print_gram("mutated Gram (after)", mutated.gram)
    changed = gram_base_change(lq)
    _print_gram("K-theory base change of the linear Gram", changed)
    print(f"base change matches mutated Gram: {changed == mutated.gram}")
    print(f"orthogonality (V1 x V2 -> A_13 bijective): {report.orthogonality_bijective}")
    print(f"structural match with block quiver: {report.structural_match}")
    return EXIT_OK if report.structural_match else EXIT_MATH


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ncquad",
        description="exact certificates for noncommutative quadric embeddings",
    )
    parser.add_argument("--version", action="version", version=f"ncquad {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="geometricity and window validation")
    p.add_argument("path")
    p.add_argument("--json", action="store_true", help="emit a JSON report")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("certify", help="run the full embedding pipeline")
    p.add_argument("path")
    p.add_argument("--convention", choices=CONVENTIONS, default="ruling")
    p.add_argument("--json", metavar="OUT", help="write the certificate JSON here")
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("sweep", help="sample a family and count verdict stages")
    p.add_argument("--family", choices=("type-a",), default="type-a")
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--height", type=int, default=20)
    p.add_argument("--convention", choices=CONVENTIONS, default="ruling")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("cohomology", help="line-bundle cohomology tables")
    p.add_argument("--space", choices=("p1", "p2", "p1xp2"), required=True)
    p.add_argument("-m", type=int, required=True)
    p.add_argument("-n", type=int, default=None)
    p.set_defaults(func=cmd_cohomology)

    p = sub.add_parser("quiver", help="linear and block quiver dimensions")
    p.add_argument("path")
    p.add_argument("--convention", choices=CONVENTIONS, default="ruling")
    p.set_defaults(func=cmd_quiver)

    p = sub.add_parser("mutate", help="mutation and Gram base-change check")
    p.add_argument("path")
    p.set_defaults(func=cmd_mutate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ExcludedInput as exc:
        print(f"rejected: {exc}", file=sys.stderr)
        return EXIT_MATH
    except Exception as exc:  # never panic; anything else is a bug in ncquad
        import traceback  # this path alone reads frames; cold start skips it

        # modules by their import names: ``python -m ncquad.cli`` runs this
        # one as __main__; main's own frame comes first, so one matches
        frame = [f for f, _ in traceback.walk_tb(exc.__traceback__)
                 if getattr(f.f_globals.get("__spec__"), "name", "").startswith("ncquad.")][-1]
        module = frame.f_globals["__spec__"].name
        code = frame.f_code
        print(f"internal error: {type(exc).__name__}: {exc} (raised in "
              f"{getattr(code, 'co_qualname', code.co_name)}, module {module})",
              file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    raise SystemExit(main())
