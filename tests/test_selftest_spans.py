"""``tools/selftest_spans.py``: the span count of the perfbench self-test.

The tool prints one JSON line whose total, per-layer and per-function
counts agree, whose floor is the self-test's, and which, like the
self-test, has more spans than the floor and a span from every layer.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_the_span_report_adds_up_and_clears_the_self_test():
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "selftest_spans.py")],
                          cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 1
    report = json.loads(lines[0])
    assert set(report) == {"spans", "floor", "layers", "functions"}
    assert report["floor"] == 1000
    assert report["spans"] == sum(report["layers"].values()) == sum(report["functions"].values())
    assert report["spans"] > report["floor"]
    assert all(count > 0 for count in report["layers"].values()), report["layers"]
    for key in report["functions"]:
        assert key.split(".")[0] in report["layers"], key
