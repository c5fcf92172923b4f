#!/usr/bin/env python3
"""The ncquad benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Run it from the root of a checkout; it imports ncquad from ``src/`` and
uses only the package's public functions and its command line.  Runs are
closed-loop: one process and one thread feed one input at a time.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0``
reports the ``end_to_end`` metrics named in BENCHMARK.json, ``--trace 1``
the ``per_layer`` ones from a separate traced run.  The line before it is
a JSON record of the run: metadata, sample counts, and every figure
computed, including the raw millisecond timings.  The last two lines
together make a result file.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import io
import itertools
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from hashlib import sha256
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".perfbench_run"      # certificates written by CLI runs

import calib  # noqa: E402  (sibling module; imports nothing from ncquad)
import spans  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = ("typea_qq", "degenerate_f5", "cli_cold")
HARD_LIMIT_S = 140.0        # a run stops here whatever fails, to end within 180 s
CHILD_TIMEOUT_S = 30
CLI_CONVENTIONS = ("ruling", "literal")
VERDICTS = ("certified", "geometricity", "relations", "determinant", "lines",
            "quiver", "ext_table", "gram")
COUNTED = ("quintuples.relations", "quintuples.truncated_dims",
           "squares.square_from_quintuple", "squares.block_quiver",
           "squares.linear_quiver", "grassmann.line_relation",
           "grassmann.hom_R_K_dim")
KERNELS = ("rank", "kernel_basis", "inverse", "det")


def load_pins() -> dict:
    return json.loads((HERE / "pins.json").read_text())


class Sizes:
    """How much work one run does; ``--smoke`` shrinks every count."""

    def __init__(self, smoke: bool):
        self.setup_probes = 1 if smoke else 15
        self.import_probes = 1 if smoke else 3
        self.min_ops = 3 if smoke else 100          # p90 needs 100 samples
        self.ref_min_ops = 3 if smoke else 20
        # inputs whose certificates the pins cover; the traced run always
        # takes at least these, so its verdict counts are exact per run
        self.fixed = {w: 3 for w in WORKLOADS} if smoke else \
            {w: pin["inputs"] for w, pin in load_pins().items()}


class OpFailed(Exception):
    pass


# -- program under test ------------------------------------------------------


def _import_ncquad():
    """Import ncquad from this checkout's src/, or exit without a result."""
    if not (SRC / "ncquad" / "__init__.py").is_file():
        sys.exit(f"perfbench: no ncquad sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import ncquad
    from ncquad import certify, cli, fileformat, squares

    if Path(ncquad.__file__).resolve().parent != SRC / "ncquad":
        sys.exit(f"perfbench: imported ncquad from {ncquad.__file__}, not {SRC}")
    return certify, cli, fileformat, squares


certify = cli = fileformat = squares = None


def pin_to_one_cpu():
    """Keep this process, and the children it starts, on the CPU it runs on
    now, so that calibration runs on the CPU the measured work runs on."""
    try:
        with open("/proc/self/stat", encoding="ascii") as fh:
            cpu = int(fh.read().rsplit(")", 1)[1].split()[36])     # field 39
        os.sched_setaffinity(0, {cpu})
    except (AttributeError, OSError, IndexError, ValueError):
        pass


def child_env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("NCQ_DEFAULT_CONVENTION", None)
    return env


def certify_bytes(q, convention) -> bytes:
    """The timed in-process operation.  Module attributes are looked up at
    call time, so the tracer's wrappers are used when installed."""
    return fileformat.canonical_json_bytes(certify.full_pipeline(q, convention).to_dict())


def ext_table_from(doc: dict):
    stage = next(s for s in doc["stages"] if s["stage"] == "ext_table")
    table = stage["table"]
    cells = {tuple(int(x) for x in key.split(",")): cell
             for key, cell in table["cells"].items()}
    return certify.ExtTable(tuple(table["objects"]), cells)


# -- measurement ------------------------------------------------------------------


class Clock:
    """Latencies plus the calibration samples taken between them.

    Before each operation the loop is run until calibration time has
    caught up with ``SHARE`` of the operation time spent so far, so long
    operations get many samples and short ones share one.  Each latency
    is divided by the mean of the samples in the nearest block taken
    before it and the nearest block taken after it, which gives its value
    in calibration units.  The mean, not the median: the host flips
    between a fast and a slow state within a run, and an operation
    longer than one sample pays the average of the two.
    """

    SHARE = 0.2

    def __init__(self):
        self.cal = []
        self.blocks = []        # (start, end) index ranges into cal
        self._owed = 0.0

    def tick(self) -> int:
        """Calibrate as owed; returns the op's position in the sample list."""
        start = len(self.cal)
        while self._owed > 0 or not self.cal:
            ms = calib.calibrate()
            self.cal.append(ms)
            self._owed -= ms
        if len(self.cal) > start:
            self.blocks.append((start, len(self.cal)))
        return len(self.cal)

    def spent(self, ms: float):
        self._owed += self.SHARE * ms

    def close(self):
        self._owed = max(self._owed, 1e-9)
        self.tick()

    def in_cal(self, samples) -> list:
        """[(ms, tick)] -> latencies in calibration units."""
        ends = [end for _, end in self.blocks]
        out = []
        for ms, pos in samples:
            before = bisect.bisect_right(ends, pos) - 1
            window = [x for lo, hi in self.blocks[before:before + 2] for x in self.cal[lo:hi]]
            out.append(ms / statistics.fmean(window))
        return out


# Statistics of possibly empty samples: a run whose every operation failed
# still prints a result, with zeros, and says it is not correct.
def _median(xs) -> float:
    xs = list(xs)
    return statistics.median(xs) if xs else 0.0


def _mean(xs) -> float:
    xs = list(xs)
    return statistics.fmean(xs) if xs else 0.0


def _p90(xs) -> float:
    return statistics.quantiles(xs, n=10)[-1] if len(xs) > 1 else _median(xs)


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def setup_probe(code: str) -> float:
    """Milliseconds from starting a fresh interpreter running ``code`` until
    it prints ``ready``."""
    t0 = time.perf_counter()
    with subprocess.Popen([sys.executable, "-c", code], cwd=ROOT, env=child_env(),
                          stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
        code_ = proc.wait(timeout=CHILD_TIMEOUT_S)
    if line.strip() != "ready" or code_ != 0:
        raise RuntimeError(f"setup probe failed (exit {code_})")
    return elapsed * 1e3


def setup_times(workload: str, seed: int, probes: int) -> tuple:
    """Set-up time over ``probes`` fresh interpreters, calibrated like the
    operations: (median in calibration units, median raw seconds).  The
    calibrated median times ``calib.REFERENCE_MS`` gives ``setup_s``, the
    set-up time in seconds on a host whose calibration loop takes the
    reference time, which cancels the host's drift between runs."""
    code = setup_code(workload, seed)
    clock = Clock()
    samples = []
    for _ in range(probes):
        tick = clock.tick()
        ms = setup_probe(code)
        clock.spent(ms)
        samples.append((ms, tick))
    clock.close()
    return (statistics.median(clock.in_cal(samples)),
            statistics.median(ms for ms, _ in samples) / 1e3)


def setup_code(workload: str, seed: int) -> str:
    if workload == "cli_cold":
        return "import ncquad.cli\nprint('ready', flush=True)\n"
    return (
        f"import sys\nsys.path.insert(0, {str(HERE)!r})\n"
        "import workloads\n"
        "from ncquad import certify, fileformat\n"
        f"gen, conv = workloads.FAMILIES[{workload!r}]\n"
        f"q = next(gen(workloads.warmup_seed({seed})))\n"
        "fileformat.canonical_json_bytes(certify.full_pipeline(q, conv).to_dict())\n"
        "print('ready', flush=True)\n"
    )


def import_times(probes: int) -> dict:
    """Per-module import self time (ms) of ``import ncquad.cli`` in a fresh
    interpreter, from ``python -X importtime``; medians over the probes."""
    runs = []
    for _ in range(probes):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import ncquad.cli"],
                              cwd=ROOT, env=child_env(), capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError("import probe failed")
        self_us, cum_us = {}, {}
        for line in proc.stderr.splitlines():
            parts = line.removeprefix("import time:").split("|")
            if len(parts) != 3 or not parts[0].strip().isdigit():
                continue
            name = parts[2].strip()
            self_us[name], cum_us[name] = int(parts[0]), int(parts[1])
        row = {f"import.{layer}.ms": self_us.get(f"ncquad.{layer}", 0) / 1e3
               for layer in spans.LAYERS}
        row["import.ncquad.ms"] = self_us.get("ncquad", 0) / 1e3
        row["import.total.ms"] = (cum_us.get("ncquad", 0) + cum_us.get("ncquad.cli", 0)) / 1e3
        runs.append(row)
    return {k: statistics.median(r[k] for r in runs) for k in runs[0]}


# -- workloads: jobs and how one job runs ----------------------------------------


class Job:
    __slots__ = ("q", "convention", "path", "key", "expected")

    def __init__(self, q, convention, key, path=None, expected=None):
        self.q, self.convention, self.key = q, convention, key
        self.path, self.expected = path, expected


def inprocess_jobs(workload: str, seed: int):
    gen, convention = workloads.FAMILIES[workload]
    for i, q in enumerate(gen(seed)):
        yield Job(q, convention, i)


def cli_jobs() -> list:
    """The bundled corpus under both conventions.  Each job carries the
    certificate the library writes for it, which the CLI output must equal
    byte for byte."""
    from ncquad.corpus import corpus_names, corpus_path

    base = []
    for name in corpus_names():
        path = corpus_path(name)
        q, _ = fileformat.load_quintuple(str(path))
        for conv in CLI_CONVENTIONS:
            base.append(Job(q, conv, (name, conv), path, certify_bytes(q, conv) + b"\n"))
    return base


def _shuffled_cycles(base, rng):
    while True:
        order = list(base)
        rng.shuffle(order)
        yield from order


def run_cli_subprocess(job: Job) -> tuple:
    out = WORK_DIR / "cert.json"
    out.unlink(missing_ok=True)
    argv = [sys.executable, "-m", "ncquad.cli", "certify", str(job.path),
            "--convention", job.convention, "--json", str(out)]
    t0 = time.perf_counter()
    proc = subprocess.run(argv, cwd=ROOT, env=child_env(), capture_output=True,
                          timeout=CHILD_TIMEOUT_S)
    ms = (time.perf_counter() - t0) * 1e3
    return ms, proc.returncode, out.read_bytes()


def run_cli_inprocess(job: Job) -> tuple:
    out = WORK_DIR / "cert.json"
    out.unlink(missing_ok=True)
    argv = ["certify", str(job.path), "--convention", job.convention, "--json", str(out)]
    sink = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        code = cli.main(argv)
    ms = (time.perf_counter() - t0) * 1e3
    return ms, code, out.read_bytes()


def run_inprocess(job: Job) -> tuple:
    t0 = time.perf_counter()
    payload = certify_bytes(job.q, job.convention)
    return (time.perf_counter() - t0) * 1e3, None, payload


class Checker:
    """Runs one job, checks its output, and times the replay of its Ext
    table.  With a tracer, only the operation and the replay are recorded."""

    def __init__(self, runner, tracer=None):
        self.runner = runner
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def _record(self, on: bool):
        if self.tracer is not None:
            self.tracer.recording = on

    def run(self, job: Job):
        """Returns (op_ms, replay_ms or None, payload, verdict); None if the
        operation failed."""
        self.attempted += 1
        try:
            self._record(True)
            try:
                ms, code, payload = self.runner(job)
            finally:
                self._record(False)
            doc = json.loads(payload)
            certified = bool(doc["verdict"]["certified"])
            verdict = "certified" if certified else doc["verdict"]["stage"]
            if doc["input"]["digest"] != fileformat.input_digest(job.q):
                raise OpFailed("input.digest is not input_digest(q)")
            if job.expected is not None and payload != job.expected:
                raise OpFailed("CLI certificate differs from the library's")
            if code is not None and code != (0 if certified else 1):
                raise OpFailed(f"exit code {code} for verdict {verdict}")
            replay_ms = None
            if certified:
                table = ext_table_from(doc)
                square = squares.square_from_quintuple(job.q, job.convention)
                self._record(True)
                t0 = time.perf_counter()
                try:
                    certify.replay_table(table, square)
                finally:
                    replay_ms = (time.perf_counter() - t0) * 1e3
                    self._record(False)
            return ms, replay_ms, payload, verdict
        except Exception as exc:  # every failure is counted, none stops the run
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(f"{job.key}: {type(exc).__name__}: {exc}")
            return None


class Outputs:
    """Digest and verdict counts of the first ``n`` certificates, in
    canonical job order, checked against perfbench/pins.json.

    Jobs that arrive in canonical order are hashed as they come; only a
    shuffled stream (``cli_cold``'s first cycle) is held until the end
    to be sorted."""

    def __init__(self, n: int, in_order: bool):
        self.n = n
        self.in_order = in_order
        self.digest = sha256()
        self.held = {}
        self.inputs = 0
        self.bytes = 0
        self.verdicts = Counter()

    def add(self, index, job, payload, verdict):
        if index >= self.n:
            return
        if self.in_order:
            self.digest.update(payload)
        else:
            self.held[job.key] = payload
        self.inputs += 1
        self.bytes += len(payload)
        self.verdicts[verdict] += 1

    def summary(self) -> dict:
        digest = self.digest.copy()
        for key in sorted(self.held):
            digest.update(self.held[key])
        return {"inputs": self.inputs, "sha256": digest.hexdigest(),
                "verdicts": dict(sorted(self.verdicts.items())), "bytes": self.bytes}


def check_pins(workload: str, seed: int, got: dict):
    """None when no pin covers this run; else whether the outputs match."""
    pin = load_pins().get(workload)
    if pin is None or pin["seed"] != seed:
        return None
    return all(got[k] == pin[k] for k in ("inputs", "sha256", "verdicts"))


# -- the two kinds of run ---------------------------------------------------------


def jobs_for(workload: str, seed: int) -> tuple:
    """The job stream and its cycle length (1 for a stream that never
    repeats).  The CLI jobs come in cycles, reshuffled from the seed each
    time; a timed run stops only at the end of a cycle, so that every run
    holds each job equally often and the p50 does not hop between the
    faster Degenerate jobs and the slower Certified ones."""
    if workload == "cli_cold":
        base = cli_jobs()
        return _shuffled_cycles(base, random.Random(seed)), len(base)
    return inprocess_jobs(workload, seed), 1


def warm_up(workload: str, seed: int):
    if workload == "cli_cold":
        subprocess.run([sys.executable, "-m", "ncquad.cli", "--version"], cwd=ROOT,
                       env=child_env(), capture_output=True, check=True, timeout=CHILD_TIMEOUT_S)
    else:
        certify_bytes(next(inprocess_jobs(workload, workloads.warmup_seed(seed))).q,
                      workloads.FAMILIES[workload][1])


def timed_run(workload: str, seed: int, seconds: float, sizes: Sizes) -> tuple:
    setup_cal, setup_wall_s = setup_times(workload, seed, sizes.setup_probes)
    warm_up(workload, seed)
    runner = run_cli_subprocess if workload == "cli_cold" else run_inprocess
    checker = Checker(runner)
    jobs, cycle = jobs_for(workload, seed)
    outputs = Outputs(sizes.fixed[workload], in_order=cycle == 1)
    clock = Clock()
    ops, replays = [], []
    start = time.perf_counter()
    for index in itertools.count():
        elapsed = time.perf_counter() - start
        if elapsed >= HARD_LIMIT_S or (
                elapsed >= seconds and index >= max(sizes.min_ops, outputs.n)
                and index % cycle == 0):
            break
        job = next(jobs)
        tick = clock.tick()
        result = checker.run(job)
        if result is None:
            continue
        ms, replay_ms, payload, verdict = result
        clock.spent(ms)
        ops.append((ms, tick))
        if replay_ms is not None:
            replays.append((replay_ms, tick))
        outputs.add(index, job, payload, verdict)
    loop_s = time.perf_counter() - start
    clock.close()

    raw_ms = [ms for ms, _ in ops]
    cal_ms = clock.in_cal(ops)
    figures = {
        "setup_s": (setup_cal * calib.REFERENCE_MS / 1e3, "s"),
        "setup_cal": (setup_cal, "cal"),
        "setup_wall_s": (setup_wall_s, "s"),
        "certify_ms_p50": (_median(raw_ms), "ms"),
        "certify_ms_p90": (_p90(raw_ms), "ms"),
        "certify_cal_p50": (_median(cal_ms), "cal"),
        "certify_cal_p90": (_p90(cal_ms), "cal"),
        "inputs_per_s": (len(raw_ms) / loop_s, "1/s"),
        "replay_ms_p50": (_median(ms for ms, _ in replays), "ms"),
        "replay_cal_p50": (_median(clock.in_cal(replays)), "cal"),
        "peak_rss_mb": (peak_rss_mb(children=workload == "cli_cold"), "MB"),
        "cal.ms": (statistics.median(clock.cal), "ms"),
    }
    samples = {"certify": len(ops), "replay": len(replays), "cal": len(clock.cal),
               "setup": sizes.setup_probes}
    return figures, samples, checker, outputs


def traced_run(workload: str, seed: int, seconds: float, sizes: Sizes) -> tuple:
    imports = import_times(sizes.import_probes)
    warm_up(workload, seed)
    inproc = run_cli_inprocess if workload == "cli_cold" else run_inprocess
    tracer = spans.Tracer()
    checker = Checker(inproc, tracer)
    jobs, cycle = jobs_for(workload, seed)
    outputs = Outputs(sizes.fixed[workload], in_order=cycle == 1)
    clock = Clock()
    per_input, traced_ms = [], []
    start = time.perf_counter()
    with tracer:
        for index in itertools.count():
            elapsed = time.perf_counter() - start
            if elapsed >= HARD_LIMIT_S or (index >= outputs.n and elapsed >= seconds * 2 / 3):
                break
            job = next(jobs)
            tick = clock.tick()
            result = checker.run(job)
            summary = spans.summarize(tracer.take())
            if result is None:
                continue
            per_input.append(summary)
            traced_ms.append((result[0], tick))
            clock.spent(result[0])
            outputs.add(index, job, result[2], result[3])
    # untraced reference on the inputs that follow, for the tracing overhead
    checker.tracer = None
    traced_attempts = checker.attempted
    ref_ms = []
    while time.perf_counter() - start < HARD_LIMIT_S and (
            checker.attempted - traced_attempts < sizes.ref_min_ops
            or time.perf_counter() - start < seconds):
        tick = clock.tick()
        result = checker.run(next(jobs))
        if result is not None:
            ref_ms.append((result[0], tick))
            clock.spent(result[0])
    clock.close()

    def mean(f):
        return _mean(f(s) for s in per_input)

    def count(f):
        counts = [f(s) for s in per_input]
        return statistics.median_low(counts) if counts else 0

    figures = {}
    for layer in spans.LAYERS:
        figures[f"{layer}.self_ms"] = (mean(lambda s: s["self_ms"].get(layer, 0.0)), "ms")
        figures[f"{layer}.calls"] = (count(lambda s: s["layer_calls"].get(layer, 0)), "count")
    for stage in spans.STAGES:
        figures[f"stage.{stage}.ms"] = (mean(lambda s: s["stage_ms"].get(stage, 0.0)), "ms")
    for key in COUNTED:
        figures[f"{key}.calls"] = (count(lambda s: s["calls"].get(key, 0)), "count")
    for name in KERNELS:
        key = f"linalg.Matrix.{name}"
        figures[f"{key}.calls"] = (count(lambda s: s["calls"].get(key, 0)), "count")
        figures[f"{key}.ms"] = (mean(lambda s: s["incl_ms"].get(key, 0.0)), "ms")
    got = outputs.summary()
    for verdict in VERDICTS:
        figures[f"verdict.{verdict}"] = (got["verdicts"].get(verdict, 0), "count")
    figures["cert.bytes"] = (got["bytes"], "bytes")
    figures.update({name: (value, "ms") for name, value in imports.items()})
    figures["cal.ms"] = (statistics.median(clock.cal), "ms")
    # in calibration units, so host drift between the two phases cancels
    overhead = _mean(clock.in_cal(traced_ms)) / _mean(clock.in_cal(ref_ms)) if ref_ms else 0.0
    figures["trace.overhead"] = (overhead, "ratio")
    samples = {"traced": len(per_input), "reference": len(ref_ms), "cal": len(clock.cal),
               "import": sizes.import_probes}
    return figures, samples, checker, outputs


# -- reporting --------------------------------------------------------------------


def git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def select(figures: dict, trace: bool) -> dict:
    """The metrics BENCHMARK.json names for this mode, with their units."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    out = {}
    for metric in spec["per_layer" if trace else "end_to_end"]:
        value, unit = figures[metric["name"]]
        if unit != metric["unit"]:
            raise RuntimeError(
                f"{metric['name']}: unit {unit}, BENCHMARK.json says {metric['unit']}")
        out[metric["name"]] = {"value": value, "unit": unit}
    return out


def main(argv=None) -> int:
    global certify, cli, fileformat, squares
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, no pins")
    args = parser.parse_args(argv)
    certify, cli, fileformat, squares = _import_ncquad()
    pin_to_one_cpu()

    sizes = Sizes(args.smoke)
    run = traced_run if args.trace else timed_run
    WORK_DIR.mkdir(exist_ok=True)
    try:
        figures, samples, checker, outputs = run(args.workload, args.seed, args.seconds, sizes)
    finally:
        shutil.rmtree(WORK_DIR, ignore_errors=True)
    got = outputs.summary()
    pinned = None if args.smoke else check_pins(args.workload, args.seed, got)
    failed = checker.failed
    if pinned is False:
        checker.errors.append(f"outputs {got} do not match perfbench/pins.json")
        failed = max(failed, got["inputs"])
    for err in checker.errors:
        print(f"perfbench: FAILED {err}", file=sys.stderr)
    attempted = checker.attempted
    figures["ok_frac"] = ((attempted - failed) / attempted, "ratio")
    figures["fail_frac"] = (failed / attempted, "ratio")

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke, "git_sha": git_sha(),
        "python": platform.python_version(), "cpu_count": os.cpu_count(),
        "cal_ms_median": figures["cal.ms"][0], "samples": samples,
        "outputs": got, "pins_checked": pinned is not None,
        "figures": {name: {"value": v, "unit": u} for name, (v, u) in figures.items()},
    }
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": select(figures, bool(args.trace))}
    print(json.dumps({"run": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
