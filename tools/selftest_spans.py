"""Count the spans that the perfbench self-test records, by layer and function.

    python3 tools/selftest_spans.py

``perfbench/selftest.py`` traces a fixed set of certificates and requires
more than a floor of spans (its ``assertGreater(len(recorded), N)``) and
one span from every layer.  This script runs the same ``_certificates()``
untraced, then traced under ``spans.Tracer``, as that test does, and
prints one JSON line: the total span count, the floor read from the
self-test's source, and the count per layer and per traced function.  It
uses the standard library only and changes nothing under ``perfbench/``.
"""

from __future__ import annotations

import json
import re
import sys
from collections import Counter
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))
sys.dont_write_bytecode = True      # leave no __pycache__ beside the benchmark

import selftest  # noqa: E402  (puts src/ and perfbench/ on sys.path)
import spans  # noqa: E402


def _floor() -> int:
    found = re.search(r"assertGreater\(len\(recorded\), (\d+)\)",
                      (PERFBENCH / "selftest.py").read_text())
    if found is None:
        raise SystemExit("perfbench/selftest.py states no span floor")
    return int(found[1])


def main() -> int:
    selftest._certificates()
    tracer = spans.Tracer()
    with tracer:
        tracer.recording = True
        selftest._certificates()
        tracer.recording = False
        recorded = tracer.take()
    functions = Counter(key for key, *_ in recorded)
    layers = Counter()
    for key, count in functions.items():
        layers[key.split(".")[0]] += count
    print(json.dumps({
        "spans": len(recorded),
        "floor": _floor(),
        "layers": {layer: layers[layer] for layer in spans.LAYERS},
        "functions": dict(sorted(functions.items())),
    }, sort_keys=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
