"""Self-tests of the benchmark: a smoke run of every workload in both modes,
and the tracer's two invariants (outputs unchanged, attributes restored).

    python3 perfbench/selftest.py

The file is not named ``test_*.py`` on purpose: these tests start
subprocesses and time things, so they stay out of the repository's pytest
suite.  They assert presence and correctness, never speed.
"""

from __future__ import annotations

import contextlib
import io
import json
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import spans  # noqa: E402
import workloads  # noqa: E402
from ncquad import certify, cli, fileformat  # noqa: E402
from ncquad.corpus import corpus_path  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "1",
         "--seconds", "0.5", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise AssertionError(f"{workload} trace={trace} exited {proc.returncode}: {proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


class Smoke(unittest.TestCase):
    def test_every_metric_present_with_its_unit(self):
        for workload in (w["name"] for w in SPEC["workloads"]):
            for trace, section in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    result = _run(workload, trace)
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    expected = {m["name"]: m["unit"] for m in SPEC[section]}
                    got = {name: m["unit"] for name, m in result["metrics"].items()}
                    self.assertEqual(got, expected)
                    for m in result["metrics"].values():
                        self.assertIsInstance(m["value"], (int, float))


def _certificates() -> list:
    out = []
    for gen, convention in workloads.FAMILIES.values():
        for q, _ in zip(gen(7), range(8)):
            out.append(fileformat.canonical_json_bytes(
                certify.full_pipeline(q, convention).to_dict()))
    with tempfile.TemporaryDirectory() as tmp:
        target = Path(tmp) / "cert.json"
        for name in ("linear", "typea-0-1-1"):
            for convention in ("ruling", "literal"):
                with contextlib.redirect_stdout(io.StringIO()):
                    cli.main(["certify", str(corpus_path(name)), "--convention", convention,
                              "--json", str(target)])
                out.append(target.read_bytes())
    return out


def _bindings() -> dict:
    """Every attribute of every ncquad module and of every class they define."""
    seen = {}
    for modname, mod in list(sys.modules.items()):
        if modname != "ncquad" and not modname.startswith("ncquad."):
            continue
        seen[modname] = dict(vars(mod))
        for obj in vars(mod).values():
            if isinstance(obj, type) and obj.__module__ == modname:
                seen[f"{modname}.{obj.__qualname__}"] = dict(vars(obj))
    return seen


class TracerInvariants(unittest.TestCase):
    def test_trace_does_not_change_certificate_bytes(self):
        plain = _certificates()
        tracer = spans.Tracer()
        with tracer:
            tracer.recording = True
            traced = _certificates()
            tracer.recording = False
            recorded = tracer.take()
        self.assertGreater(len(recorded), 1000)
        self.assertEqual({key.split(".")[0] for key, *_ in recorded}, set(spans.LAYERS))
        self.assertEqual(traced, plain)

    def test_uninstall_restores_every_attribute(self):
        before = _bindings()
        tracer = spans.Tracer()
        with tracer:
            during = _bindings()
        after = _bindings()
        self.assertNotEqual(during, before)
        self.assertEqual(set(after), set(before))
        for owner, attrs in before.items():
            self.assertEqual(set(after[owner]), set(attrs), owner)
            for name, obj in attrs.items():
                self.assertIs(after[owner][name], obj, f"{owner}.{name}")


if __name__ == "__main__":
    unittest.main()
