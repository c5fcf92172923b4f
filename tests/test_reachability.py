"""The call ledger: every function under src/ncquad is reached by the real
traffic, or named in tests/reachability.json with a class and a reason.

The real traffic is what ncquad's users and its benchmark run, never the
tests: the CLI, in-process through ``cli.main``, on every bundled corpus
file and every tests/data file, and the calls perfbench/run.py makes on
the first inputs of each perfbench/workloads.py stream.  It runs in a
fresh interpreter under ``sys.setprofile``, since by the time this test
runs earlier tests have warmed the ``functools.cache`` functions and may
have patched attributes, and either would hide a caller.

Functions are keyed by module and qualified name, read from the AST, and
a called code object is matched to its ``def`` by file and line (the
``def`` line or the first decorator line), so the ledger holds no line
numbers.  The test fails when a function is neither reached nor in the
ledger, when a ledger entry is reached, and when a ledger entry names no
function.

Run as a script, ``python tests/test_reachability.py WORK_DIR`` runs the
traffic (with ``src`` importable) and prints the reached functions as
JSON, writing certificates only under WORK_DIR.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "ncquad"
LEDGER = Path(__file__).with_name("reachability.json")
CLASSES = ("guard", "debug", "deferred")
WORKLOAD_INPUTS = 200


def defined_functions() -> dict:
    """(path, line) -> "module:qualname" for every def under src/ncquad,
    nested ones included, at its def line and its first decorator line."""
    keys = {}
    for path in sorted(PACKAGE.glob("*.py")):
        module = "ncquad" if path.stem == "__init__" else f"ncquad.{path.stem}"

        def visit(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    qualname = prefix + child.name
                    key = f"{module}:{qualname}"
                    for line in {child.lineno, *(d.lineno for d in child.decorator_list[:1])}:
                        keys[(str(path), line)] = key
                    visit(child, qualname + ".<locals>.")
                elif isinstance(child, ast.ClassDef):
                    visit(child, prefix + child.name + ".")
                else:
                    visit(child, prefix)

        visit(ast.parse(path.read_text(encoding="utf-8")), "")
    return keys


def _traffic(work: Path) -> None:
    """The CLI on every input file, and the benchmark's own calls."""
    import contextlib
    import io

    from ncquad import certify, cli, corpus, fileformat, squares
    from ncquad.certify import ExtTable

    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    # a w entry of 5001 digits, as in CI's large-scalar step: its text is
    # past the interpreter's int-to-decimal limit
    big = work / "entry-1e5000.json"
    flat = ["1e5000", "2", "0", "-1", "3", "0", "1", "1", "0", "2", "-1", "0", "1", "0", "2", "5"]
    big.write_text(json.dumps({"w": [[[[flat[8 * a + 4 * b + 2 * c + e] for e in range(2)]
                                        for c in range(2)] for b in range(2)] for a in range(2)]}))
    files = [corpus.corpus_path(name) for name in corpus.corpus_names()]
    files += sorted((ROOT / "tests" / "data").glob("*.json")) + [big]

    runs = []
    for f in map(str, files):
        for conv in squares.CONVENTIONS:
            runs += [["certify", f, "--convention", conv],
                     ["certify", f, "--convention", conv, "--json", str(work / "cert.json")],
                     ["quiver", f, "--convention", conv]]
        runs += [["check", f], ["check", f, "--json"], ["mutate", f]]
    for conv in squares.CONVENTIONS:
        runs.append(["sweep", "--samples", "50", "--convention", conv])
    for space in ("p1", "p2", "p1xp2"):
        runs.append(["cohomology", "--space", space, "-m", "1", "-n", "0"])
    for argv in runs:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
        if code not in (0, 1, 2):
            raise SystemExit(f"ncquad {' '.join(argv)}: exit {code}")

    # perfbench/run.py: full_pipeline and its bytes, and the replay of a
    # certified input's Ext table parsed from them, as Checker.run does
    for stream, conv in workloads.FAMILIES.values():
        inputs = stream(0)
        for _ in range(WORKLOAD_INPUTS):
            q = next(inputs)
            payload = fileformat.canonical_json_bytes(certify.full_pipeline(q, conv).to_dict())
            doc = json.loads(payload)
            if doc["input"]["digest"] != fileformat.input_digest(q):
                raise SystemExit("input.digest is not input_digest(q)")
            if doc["verdict"]["certified"]:
                stage = next(s for s in doc["stages"] if s["stage"] == "ext_table")
                table = stage["table"]
                cells = {tuple(int(x) for x in key.split(",")): cell
                         for key, cell in table["cells"].items()}
                square = squares.square_from_quintuple(q, conv)
                if not certify.replay_table(ExtTable(tuple(table["objects"]), cells), square):
                    raise SystemExit("a certified table does not replay")


def _reached(work: Path) -> list:
    """The keys of the functions the traffic calls, run in this process."""
    codes = set()

    def profile(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    sys.setprofile(profile)
    try:
        _traffic(work)
    finally:
        sys.setprofile(None)
    keys = defined_functions()
    return sorted({keys[(c.co_filename, c.co_firstlineno)] for c in codes
                   if (c.co_filename, c.co_firstlineno) in keys})


def test_the_ledger_names_exactly_what_the_traffic_leaves_unreached(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, __file__, str(tmp_path)], env=env, cwd=tmp_path,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    reached = set(json.loads(out.stdout))
    defined = set(defined_functions().values())
    ledger = json.loads(LEDGER.read_text(encoding="utf-8"))
    named = {entry["function"] for entry in ledger}

    assert len(named) == len(ledger), "a function is named twice"
    for entry in ledger:
        assert entry["class"] in CLASSES and entry["reason"].strip(), entry
    assert sorted(named - defined) == [], "ledger entries that name no function"
    assert sorted(named & reached) == [], "ledger entries that the traffic reaches"
    assert sorted(defined - reached - named) == [], \
        "functions that no traffic reaches and that the ledger does not name"


def test_keys_cover_every_def_under_src():
    # one key per def (two lines for a decorated one), so no two functions
    # share a name and none is keyed twice at one line
    keys = defined_functions()
    defs = sum(isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
               for path in PACKAGE.glob("*.py")
               for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))))
    assert len(set(keys.values())) == defs


if __name__ == "__main__":
    print(json.dumps(_reached(Path(sys.argv[1]))))
