"""A/B runs of the benchmark: one command from two git revisions to a BENCH file.

    python3 tools/ab.py --parent REV --change REV --bench BENCH_NN \\
        --first-seed N [--claim WORKLOAD:METRIC] [--target TEXT] \\
        [--layers NAME,NAME] [--describe TEXT] [--kernel-us FILE] [--out PATH]

Each revision is written into its own temporary directory by
``git archive`` and ``perfbench/run.py`` runs there unchanged, one process
at a time, with ``PYTHONDONTWRITEBYTECODE=1``, for ``BENCHMARK.json``'s
``run_seconds``.  For every workload of ``BENCHMARK.json`` it runs 10
pairs, parent and change on the same seed, alternating which runs first
(parent first on even pair positions); workload i takes the seeds
first-seed + 10 i onward, and a seed that an earlier ``BENCH_*.json``
beside this script's checkout records is refused.  With
``--layers``, one traced seed-0 pair per in-process workload runs first
and gives the per-layer figures, per run and per calibration unit.

Repeating at the level where the variance lives, the process and the
host session, follows Kalibera and Jones, *Rigorous Benchmarking in
Reasonable Time* (ISMM 2013).  The rules are the benchmark's:
- every end-to-end metric of ``BENCHMARK.json`` is compared with its
  bound: the change median against the parent median, in the metric's
  bad direction;
- a claim holds only with at least 10 pairs, the change better in at
  least nine tenths of all pairs run (ties count for neither, and a pair
  with a failed side is no win), the medians apart by more than the
  parent's interquartile range, and no more failed runs of the change
  than of the parent.

Quartiles are ``statistics.quantiles(method="inclusive")``.  Beside each
calibrated figure the file keeps its raw milliseconds (``certify_ms_p50``
for ``certify_cal_p50``) from each run record.  The BENCH file has the
keys bench, change, parent_sha, change_tree, host, command, protocol,
claim, end_to_end, traced_seed0, layer_moved, kernel_us and runs.
Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
COMMAND = "python3 perfbench/run.py --workload {workload} --seed {seed} --seconds {seconds} --trace {trace}"
IN_PROCESS = ("typea_qq", "degenerate_f5")
PAIRS = 10
RULE = ("change better in at least 9 of 10 of all pairs run (ties count for neither, a pair "
        "with a failed side is no win), at least 10 pairs, the medians apart by more than "
        "the parent's IQR, and no more failed change runs than parent runs")


# -- the statistics -----------------------------------------------------------


def summary(values) -> dict:
    """Median, quartiles and count of one side's values."""
    values = sorted(values)
    if len(values) < 2:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def compare(pairs, better: str, bound: float) -> dict:
    """The parent/change comparison of one metric over the (parent,
    change) pairs of values of every pair run, under BENCHMARK.json's
    direction and bound.  The value of a side whose run failed is None:
    its pair is no win, and the side's figures leave it out."""
    lower = better == "lower"
    failed = {"parent": sum(p is None for p, _ in pairs),
              "change": sum(c is None for _, c in pairs)}
    wins = sum(p is not None and c is not None and ((c < p) if lower else (c > p))
               for p, c in pairs)
    parents = [p for p, _ in pairs if p is not None]
    changes = [c for _, c in pairs if c is not None]
    if not parents or not changes:
        return {"failed_runs": failed, "change_better_pairs": f"{wins}/{len(pairs)}",
                "within_bound": False, "resolved": False, "claimable": False}
    parent, change = summary(parents), summary(changes)
    relative = (change["median"] - parent["median"]) / parent["median"] if parent["median"] else 0.0
    worsening = relative if lower else -relative
    spread = (parent["q3"] - parent["q1"]) / parent["median"] if parent["median"] else 0.0
    every_run_better = (max(changes) < min(parents) if lower
                        else min(changes) > max(parents))
    gap = abs(change["median"] - parent["median"]) > parent["q3"] - parent["q1"]
    return {
        "parent": parent, "change": change,
        "failed_runs": failed,
        "change_better_pairs": f"{wins}/{len(pairs)}",
        "relative_change": relative,
        "relative_worsening": worsening,
        "bound": bound,
        "within_bound": worsening <= bound,
        # a spread wider than the bound leaves a worsening unresolved
        "resolved": spread <= bound or every_run_better,
        "median_gap_exceeds_parent_iqr": gap,
        "claimable": (len(pairs) >= PAIRS and 10 * wins >= 9 * len(pairs) and gap
                      and worsening < 0 and failed["change"] <= failed["parent"]),
    }


# -- the runs -------------------------------------------------------------------


def used_seeds(root: Path) -> set:
    """Every seed a committed BENCH file records anywhere: each int under a
    ``seed`` key and each int in a ``seeds`` list, inside or outside its
    ``runs``."""
    seeds = set()

    def walk(node):
        if isinstance(node, dict):
            if isinstance(node.get("seed"), int):
                seeds.add(node["seed"])
            if isinstance(node.get("seeds"), list):
                seeds.update(s for s in node["seeds"] if isinstance(s, int))
            for value in node.values():
                walk(value)
        elif isinstance(node, list):
            for value in node:
                walk(value)

    for path in root.glob("BENCH_*.json"):
        walk(json.loads(path.read_text()))
    return seeds


def checkout(rev: str, into: Path) -> str:
    """Write the tree of ``rev`` into ``into``; return its full sha."""
    sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--verify", f"{rev}^{{commit}}"],
                         capture_output=True, text=True, check=True).stdout.strip()
    with subprocess.Popen(["git", "-C", str(ROOT), "archive", "--format=tar", sha],
                          stdout=subprocess.PIPE) as proc:
        with tarfile.open(fileobj=proc.stdout, mode="r|") as tar:
            if hasattr(tarfile, "data_filter"):
                tar.extractall(into, filter="data")
            else:
                tar.extractall(into)
    if proc.returncode:
        raise SystemExit(f"git archive {rev} failed")
    return sha


def run_once(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One ``perfbench/run.py`` process: its exit code, wall time, result
    line and run record (None where the output has none)."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, env=env)
    wall = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    try:
        record, result = json.loads(lines[-2])["run"], json.loads(lines[-1])
    except (IndexError, KeyError, ValueError):
        record = result = None
    return {"rc": proc.returncode, "wall_s": wall, "result": result, "record": record,
            "stderr_tail": proc.stderr[-2000:] if proc.returncode else ""}


def ok(run: dict) -> bool:
    return run["rc"] == 0 and bool(run["result"]) and run["result"].get("correct") is True


def raw_name(metric: str) -> str | None:
    """The run record's raw-milliseconds figure beside a calibrated one."""
    return metric.replace("_cal_", "_ms_") if "_cal_" in metric else None


def end_to_end(runs: list, spec: dict) -> dict:
    """Per workload and end-to-end metric, the comparison over every pair
    run, a failed run giving None, with the raw figures beside."""
    out = {}
    for workload in dict.fromkeys(r["workload"] for r in runs if r["trace"] == 0):
        sides = {}
        for r in runs:
            if r["workload"] == workload and r["trace"] == 0:
                sides.setdefault(r["seed"], {})[r["side"]] = r if ok(r) else None
        pairs = [(s, p["parent"], p["change"]) for s, p in sides.items()]
        out[workload] = {}
        for metric in spec["end_to_end"]:
            name = metric["name"]

            def value(run):
                return run and run["result"]["metrics"][name]["value"]

            values = [(s, value(p), value(c)) for s, p, c in pairs]
            entry = compare([(p, c) for _, p, c in values], metric["better"], metric["bound"])
            entry["per_pair"] = [{"seed": s, "parent": p, "change": c} for s, p, c in values]
            raw = raw_name(name)
            if raw and "parent" in entry:
                entry["raw_ms"] = {"figure": raw} | {
                    side: summary(run["record"]["figures"][raw]["value"]
                                  for trio in pairs if (run := trio[k]))
                    for k, side in ((1, "parent"), (2, "change"))}
            out[workload][name] = entry
    return out


def traced(runs: list, layers: list) -> dict:
    """Per in-process workload, each named layer figure of the traced
    seed-0 pair, as run and per calibration unit."""
    out = {}
    for workload in IN_PROCESS:
        side = {r["side"]: r for r in runs if r["workload"] == workload and r["trace"] == 1 and ok(r)}
        if len(side) != 2:
            continue
        metric = {s: r["result"]["metrics"] for s, r in side.items()}
        cal = {s: metric[s]["cal.ms"]["value"] for s in side}
        entry = {}
        for name in layers:
            parent, change = metric["parent"][name]["value"], metric["change"][name]["value"]
            entry[name] = {"parent": parent, "change": change}
            if name.endswith("ms"):
                per = {s: metric[s][name]["value"] / cal[s] for s in side}
                entry[name].update(per_cal_parent=per["parent"], per_cal_change=per["change"],
                                   per_cal_relative_change=(per["change"] - per["parent"])
                                   / per["parent"] if per["parent"] else 0.0)
        entry["cal.ms"] = {"parent": cal["parent"], "change": cal["change"]}
        out[workload] = entry
    return out


def layer_moved(traced_figures: dict) -> str:
    parts = []
    for workload, entry in traced_figures.items():
        for name, fig in entry.items():
            if "per_cal_relative_change" in fig:
                parts.append(f"{workload} {name} {fig['parent']:.4f} -> {fig['change']:.4f} "
                             f"({100 * fig['per_cal_relative_change']:+.1f} % per cal)")
    return "traced seed-0 pair: " + "; ".join(parts) if parts else ""


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", required=True)
    parser.add_argument("--change", required=True)
    parser.add_argument("--bench", required=True, help="the BENCH name, e.g. BENCH_38")
    parser.add_argument("--first-seed", type=int, required=True)
    parser.add_argument("--claim", help="WORKLOAD:METRIC")
    parser.add_argument("--target", default="")
    parser.add_argument("--layers", default="", help="comma-separated per-layer metrics")
    parser.add_argument("--describe", default="", help="what the change does")
    parser.add_argument("--kernel-us", type=Path, help="a JSON file of microbenchmark figures")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    layers = [name for name in args.layers.split(",") if name]
    seeds = {w: list(range(args.first_seed + i * PAIRS, args.first_seed + (i + 1) * PAIRS))
             for i, w in enumerate(workloads)}
    if reused := sorted(used_seeds(ROOT) & {s for block in seeds.values() for s in block}):
        raise SystemExit(f"seeds {reused} are recorded in an earlier BENCH file")
    if args.claim and (":" not in args.claim or args.claim.split(":")[0] not in workloads):
        raise SystemExit(f"--claim {args.claim!r} names no WORKLOAD:METRIC of this run")

    runs = []
    with tempfile.TemporaryDirectory(prefix="ncquad-ab-") as tmp:
        trees = {side: Path(tmp) / side for side in ("parent", "change")}
        shas = {side: checkout(getattr(args, side), trees[side]) for side in trees}
        plan = [(w, 0, 1, 0) for w in workloads if layers and w in IN_PROCESS]
        plan += [(w, seed, 0, k) for w in workloads for k, seed in enumerate(seeds[w])]
        for workload, seed, trace, k in plan:
            order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
            for side in order:
                run = run_once(trees[side], workload, seed, seconds, trace)
                run.update(side=side, workload=workload, seed=seed, trace=trace, pair=k, first=order[0])
                runs.append(run)
                print(f"{workload} seed {seed} trace {trace} {side}: rc {run['rc']}"
                      f"{'' if ok(run) else ' FAILED'}", file=sys.stderr, flush=True)

    e2e = end_to_end(runs, spec)
    claim = None
    if args.claim:
        workload, metric = args.claim.split(":", 1)
        claim = {"metric": metric, "workload": workload, "rule": RULE, "target": args.target}
        figures = e2e.get(workload, {}).get(metric)
        claim.update(figures or {})
        claim["met"] = bool(figures and figures["claimable"] and figures["within_bound"])
        claim.pop("per_pair", None)
    traced_figures = traced(runs, layers)
    failed = [r for r in runs if not ok(r)]
    doc = {
        "bench": args.bench,
        "change": args.describe,
        "parent_sha": shas["parent"],
        "change_tree": f"git archive of {shas['change']}; perfbench/ as committed there",
        "host": {"python": platform.python_version(), "cpu_count": os.cpu_count(),
                 "env": "PYTHONDONTWRITEBYTECODE=1",
                 "note": "timings are calibration units (cal) as perfbench defines them"},
        "command": COMMAND.format(workload="W", seed="N", seconds=seconds, trace="T"),
        "protocol": (
            f"tools/ab.py: unchanged perfbench; parent and change run one after the other per "
            f"seed and workload, alternating which runs first (parent first on even pair "
            f"positions); seeds " + ", ".join(f"{b[0]}-{b[-1]} ({w})" for w, b in seeds.items())
            + ", none recorded by an earlier BENCH file; "
            + ("one traced (trace 1) seed-0 pair per in-process workload, run first, gives the "
               "layer figures; " if layers else "")
            + f"{len(runs)} runs, {len(failed)} failed; every pair run counts, and a pair "
              "with a failed side is no win."),
        "claim": claim,
        "end_to_end": e2e,
        "traced_seed0": traced_figures,
        "layer_moved": layer_moved(traced_figures),
        "kernel_us": json.loads(args.kernel_us.read_text()) if args.kernel_us else None,
        "runs": [{key: run[key] for key in ("side", "workload", "seed", "trace", "pair", "first",
                                            "rc", "wall_s", "result", "stderr_tail")}
                 | {"figures": (run["record"] or {}).get("figures"),
                    "cal_ms_median": (run["record"] or {}).get("cal_ms_median")}
                 for run in runs],
    }
    out = args.out or ROOT / f"{args.bench}.json"
    out.write_text(json.dumps(doc, indent=1) + "\n")
    print(json.dumps({"out": str(out), "failed_runs": len(failed),
                      "claim_met": claim and claim["met"],
                      "outside_bound": [f"{w}:{m}" for w, ms in e2e.items() for m, f in ms.items()
                                        if not f["within_bound"]]}))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
