"""Benchmark of s3sr: end-to-end figures, or per-layer figures from a traced run.

Run from the repository root:

    python3 bench/run.py --workload connect_pairs --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --smoke

Workloads (see workloads.py and BENCHMARK.json): connect_pairs,
geodesic_flow and cli_session.

One caller runs a closed loop in this single process: the next operation
starts only after the previous one returned, in whole passes of seeded
inputs, until --seconds of measuring have elapsed.  BLAS threads are capped at
min(2, available cores), and the process and its children are pinned to
one core.  Times are scaled by the host's speed, sampled with fixed loops
between operations (see Speed): in-process operations by a loop of small
numpy operations, fresh interpreters (set-up and CLI commands) by a loop
that unmarshals code as imports do.  setup_s is the median of fresh
`import s3sr` runs spread over the measured time (their own time comes on
top of --seconds), plus the in-process warm-up.  Every
output is checked; an operation that raises or misses its tolerance counts
as failed, and one that returns a wrong result also makes ``correct`` false.

--trace 0 prints the end-to-end metrics.  --trace 1 first runs untraced for
half the time, then replays the same operations with the tracer of
tracer.py wrapped around each module's public functions, and prints the
per-layer metrics (per operation) plus the tracing overhead; the spans are
written to .bench_out/.  --smoke runs every workload at minimum size in
both modes and checks that each metric of BENCHMARK.json is emitted with
its unit.

The last line of stdout is the result JSON; the line before it is a report
with the environment, the workload's inputs and accuracy figures.  Exits 2
without a result when the s3sr sources are not found next to bench/.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import marshal
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SPEC = ROOT / "BENCHMARK.json"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
SETUP_SAMPLES = 6         # fresh imports per run, spread over the measured time
IMPORT_REPEATS = 5        # -X importtime and bare-interpreter runs in a traced run
CAL_ITERATIONS = 1500
LOAD_REPEATS = 4
LOAD_MODULES = ("argparse", "inspect", "typing", "dataclasses", "subprocess", "tarfile", "_pydecimal", "logging")
CAL_EVERY_S = 0.25        # operation time between two speed samples
# each loop's time on the quiet 2-core host the benchmark was defined on;
# they only fix the scale, so that scaled times read as there
REF_COMPUTE_S = 0.015
REF_LOAD_S = 0.013
TAIL_PCT = 90.0
TAIL_BEYOND = 10          # samples the guide's tail percentile leaves beyond it
NAMED_UNITS = {"ops_per_s": "1/s", "rss_peak_mb": "MB"}
SUFFIX_UNITS = (
    ("_ms", "ms"), (".self_s", "s/op"), ("_s", "s"), (".calls", "calls/op"), (".rows", "rows/call"),
    (".steps", "steps/op"), (".bytes", "B/op"), (".nfev", "nfev/op"), (".failures", "count/op"),
    ("_frac", "frac"), ("_ratio", "frac"),
)


@dataclass(slots=True)
class Record:
    """One operation's outcome, kept small: a run holds thousands, and its
    peak memory is a metric.  Accuracy figures go straight into Worst."""

    kind: str
    latency_s: float
    failed: bool
    wrong: bool
    detail: str          # empty unless failed
    scale: float = 1.0

    @property
    def scaled_s(self):
        return self.latency_s * self.scale


@dataclass
class Paths:
    workdir: Path
    tracer_script: Path
    env: dict        # environment of child interpreters


# ---------------------------------------------------------------------------
# statistics


def tail(latencies):
    """(value, percentile, samples beyond) of the reported tail: the nearest-rank 90th percentile.

    Where a run has enough operations, its latency CDF is steep there, so
    the value repeats across seeds; the highest percentile with 10 samples
    beyond it does not, and is only recorded in the report.
    """
    xs = sorted(latencies)
    rank = max(1, math.ceil(TAIL_PCT / 100.0 * len(xs)))
    return xs[rank - 1], TAIL_PCT, len(xs) - rank


def highest_with_ten_beyond(latencies):
    """(value, percentile) of the highest percentile with 10 samples beyond it, or None."""
    xs = sorted(latencies)
    n = len(xs)
    if n <= TAIL_BEYOND:
        return None
    return xs[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def unit_of(name):
    """Unit of a metric, read off its name."""
    if name in NAMED_UNITS:
        return NAMED_UNITS[name]
    for suffix, unit in SUFFIX_UNITS:
        if name.endswith(suffix):
            return unit
    raise KeyError(name)


# ---------------------------------------------------------------------------
# measurement


def compute_loop():
    """Small numpy operations, as the in-process operations make them."""
    import numpy as np

    a, acc = np.arange(4.0), 0.0
    for i in range(CAL_ITERATIONS):
        acc += float(np.sum(np.stack([a * 0.5, a + 1.0, np.sin(a), a * a], axis=-1))) + i


_CODE = []


def load_loop():
    """Unmarshalling the code of a few stdlib modules, as an import does."""
    if not _CODE:
        for name in LOAD_MODULES:
            origin = importlib.util.find_spec(name).origin
            cached = Path(importlib.util.cache_from_source(origin))
            if cached.is_file():  # the marshalled code follows the 16-byte .pyc header
                _CODE.append(cached.read_bytes()[16:])
            else:
                _CODE.append(marshal.dumps(compile(Path(origin).read_text(), origin, "exec")))
    for _ in range(LOAD_REPEATS):
        for blob in _CODE:
            marshal.loads(blob)


class Speed:
    """The host's speed, sampled with a fixed loop of the benchmark's own code.

    The host shares its cores with other tenants, and its speed drifts: on
    a 2-core host the same 50 connect calls took 1.06 s to 1.58 s within
    one minute, an interquartile spread of 30%, while the spread of their
    ratio to the compute loop's time was 8%.  A fresh `import s3sr` follows
    the load loop more closely: over 48 imports the spread of its ratio to
    the load loop was 5%, against 10% for the compute loop and 7% raw.
    A time is therefore multiplied by the reference time over the mean of
    the samples taken just before and just after it.  The loops do not
    call the program, so a change to the program cannot move them.
    """

    def __init__(self, loop, reference_s):
        self.loop, self.reference_s = loop, reference_s
        self.samples = []
        loop()  # first call builds what the loop needs

    def sample(self):
        """Time the loop once; returns the sample's index."""
        start = time.perf_counter()
        self.loop()
        self.samples.append(time.perf_counter() - start)
        return len(self.samples) - 1

    def scale(self, lo, hi):
        """Factor for a time measured between samples lo and hi."""
        return 2.0 * self.reference_s / (self.samples[lo] + self.samples[hi])

    def summary(self):
        if not self.samples:
            return None
        return {
            "ms_median": 1e3 * statistics.median(self.samples),
            "ms_range": [1e3 * min(self.samples), 1e3 * max(self.samples)],
            "reference_ms": 1e3 * self.reference_s,
        }


def child_env():
    return dict(os.environ, PYTHONPATH=str(SRC))


def run_python(args, **kwargs):
    return subprocess.run([sys.executable, *args], env=child_env(), cwd=ROOT, check=True,
                          capture_output=True, text=True, timeout=120, **kwargs)


def timed_process(args, repeats):
    """Median wall time of a fresh interpreter running ``args``, unscaled."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        run_python(args)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


class SetupSampler:
    """Fresh-interpreter `import s3sr` runs, spread evenly over a measured run.

    One sample at the start, then one each time another 1/count of the run
    has elapsed; each is scaled by the load loop sampled around it.
    """

    def __init__(self, count, load):
        self.count, self.load, self.samples = count, load, []
        self.spent_s = 0.0  # wall time of the samples and their speed samples

    def take(self):
        begin = time.perf_counter()
        lo = self.load.sample()
        start = time.perf_counter()
        run_python(["-c", "import s3sr"])
        wall = time.perf_counter() - start
        self.samples.append(wall * self.load.scale(lo, self.load.sample()))
        self.spent_s += time.perf_counter() - begin

    def keep_pace(self, elapsed_frac):
        """Take the samples due by ``elapsed_frac`` of the run; True if any were taken."""
        due = min(self.count, 1 + int(elapsed_frac * self.count))
        taken = len(self.samples) < due
        while len(self.samples) < due:
            self.take()
        return taken


def import_breakdown(repeats):
    """Median self time (s) of the numpy, scipy and s3sr modules under -X importtime."""
    samples = {"numpy": [], "scipy": [], "s3sr": []}
    for _ in range(repeats):
        proc = run_python(["-X", "importtime", "-c", "import s3sr"])
        totals = dict.fromkeys(samples, 0.0)
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) != 3 or not parts[0].startswith("import time:") or "self" in parts[0]:
                continue
            top = parts[2].strip().split(".")[0]
            if top in totals:
                totals[top] += int(parts[0].split(":")[1]) * 1e-6
        for key, value in totals.items():
            samples[key].append(value)
    return {key: statistics.median(values) for key, values in samples.items()}


class Worst(dict):
    """Largest value seen so far of each accuracy figure."""

    def add(self, accuracy):
        for key, value in accuracy.items():
            self[key] = max(self.get(key, value), value)


def run_one(workload, op, op_id, worst, tracer):
    if tracer is not None:
        tracer.begin_op(op_id)
    start = time.perf_counter()
    try:
        result, error = workload.run(op, tracer), None
    except Exception as exc:  # a refused operation is a failure of that operation, not of the run
        result, error = None, f"{type(exc).__name__}: {exc}"
    latency = time.perf_counter() - start
    if tracer is not None:
        workload.collect(tracer)
        tracer.end_op()
    if error is not None:
        return Record(workload.kind(op), latency, True, False, error)
    outcome = workload.check(op, result)
    worst.add(outcome.accuracy)
    return Record(workload.kind(op), latency, outcome.failed, outcome.wrong,
                  outcome.detail if outcome.failed else "")


def measure(workload, batches, seconds, speed, worst, tracer=None, setup=None, keep_ops=False):
    """Run whole batches of operations until ``seconds`` have elapsed.

    The host's speed is sampled before the first operation, then after every
    CAL_EVERY_S of operation time and at the end of each batch.  ``setup``,
    if given, takes its samples between operations; their time is not
    counted in ``seconds``.  The operations are returned only with ``keep_ops``.
    """
    ops, records, spans = [], [], []
    start = time.perf_counter()
    if setup is None:
        setup = SetupSampler(0, speed)
    setup.keep_pace(0.0)
    lo, busy, first = speed.sample(), 0.0, 0
    for batch in batches:
        for i, op in enumerate(batch):
            records.append(run_one(workload, op, len(records), worst, tracer))
            if keep_ops:
                ops.append(op)
            busy += records[-1].latency_s
            if busy >= CAL_EVERY_S or i == len(batch) - 1:
                hi = speed.sample()
                spans.append((first, len(records), lo, hi))
                lo, busy, first = hi, 0.0, len(records)
                elapsed = time.perf_counter() - start - setup.spent_s
                if setup.keep_pace(elapsed / seconds if seconds else 1.0):
                    lo = speed.sample()
        if time.perf_counter() - start - setup.spent_s >= seconds:
            break
    setup.keep_pace(1.0)
    for begin, end, lo, hi in spans:
        scale = speed.scale(lo, hi)
        for r in records[begin:end]:
            r.scale = scale
    return ops, records


# ---------------------------------------------------------------------------
# reporting


def environment(blas_cap):
    import numpy
    import scipy

    commit = "unknown"  # a checkout without .git, as the benchmark is usually run
    if (ROOT / ".git").exists():
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                                timeout=10).stdout.strip() or commit
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "blas_threads": blas_cap,
        "pinned_cpu": sorted(os.sched_getaffinity(0)),
        "commit": commit,
        "src_lines": sum(len(p.read_text().splitlines()) for p in (SRC / "s3sr").rglob("*.py")),
    }


def accuracy_summary(records, worst):
    out = {"fail_frac": sum(r.failed for r in records) / len(records)}
    for key in ("endpoint_err", "omega_fd", "norm_drift", "h_drift"):
        out[f"{key}_max"] = worst.get(key)  # None: not applicable here
    return out


def failure_summary(records):
    out = {}
    for r in records:
        if r.failed:
            key = r.detail.split(":")[0]
            entry = out.setdefault(key, {"count": 0, "example": r.detail[:200]})
            entry["count"] += 1
    return out


def end_to_end(records, setup_s, in_process):
    latencies = [r.scaled_s for r in records]
    who = resource.RUSAGE_SELF if in_process else resource.RUSAGE_CHILDREN
    value, _, _ = tail(latencies)
    return {
        "op_p50_ms": 1e3 * statistics.median(latencies),
        "op_tail_ms": 1e3 * value,
        "ops_per_s": len(latencies) / sum(latencies),
        "rss_peak_mb": resource.getrusage(who).ru_maxrss / 1024.0,
        "setup_s": setup_s,
    }


def run_workload(name, seed, seconds, trace, smoke=False, blas_cap=1):
    import tracer as tracer_mod
    import workloads

    spec = json.loads(SPEC.read_text()) if SPEC.exists() else {}
    why = {w["name"]: w["why"] for w in spec.get("workloads", [])}
    cls = workloads.WORKLOADS[name]
    repeats = 1 if smoke else IMPORT_REPEATS
    load = Speed(load_loop, REF_LOAD_S)
    speed = Speed(compute_loop, REF_COMPUTE_S) if cls.in_process else load
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=OUT))
    worst = Worst()
    try:
        workload = cls(seed, smoke, Paths(workdir, Path(__file__).with_name("cli_traced.py"), child_env()))
        lo = speed.sample()
        start = time.perf_counter()
        workload.warm_up()
        warm_s = (time.perf_counter() - start) * speed.scale(lo, speed.sample())
        report = {
            "workload": name,
            "why": why.get(name, " ".join(cls.__doc__.split())),
            "seed": seed,
            "seconds": seconds,
            "trace": trace,
            "closed_loop": "one caller, one process, next operation after the previous returns",
            "inputs": workload.info(),
            "environment": environment(blas_cap),
        }
        if not trace:
            setup = SetupSampler(1 if smoke else SETUP_SAMPLES, load)
            _, records = measure(workload, workload.passes(), seconds, speed, worst, setup=setup)
            metrics = end_to_end(records, statistics.median(setup.samples) + warm_s, cls.in_process)
            report["setup"] = {"import_s": setup.samples, "warm_up_s": warm_s}
            scaled = [r.scaled_s for r in records]
            _, pct, beyond = tail(scaled)
            highest = highest_with_ten_beyond(scaled)
            report["op_tail"] = {
                "percentile": pct,
                "samples_beyond": beyond,
                "samples": len(records),
                "highest_with_10_beyond": None if highest is None else
                {"percentile": highest[1], "ms": 1e3 * highest[0]},
            }
            report["unscaled"] = {
                "op_p50_ms": 1e3 * statistics.median(r.latency_s for r in records),
                "ops_per_s": len(records) / sum(r.latency_s for r in records),
            }
        else:
            ops, plain = measure(workload, workload.passes(), seconds / 2, speed, worst, keep_ops=True)
            tracer = tracer_mod.Tracer()
            tracer.install()
            _, traced = measure(workload, [ops], 0.0, speed, worst, tracer)
            records = plain + traced
            metrics = tracer_mod.layer_metrics(tracer, len(traced), statistics.median(r.scale for r in traced))
            imports = import_breakdown(repeats)
            metrics["setup.import.scipy_s"] = imports["scipy"]
            metrics["setup.import.numpy_s"] = imports["numpy"]
            metrics["setup.import.s3sr_self_s"] = imports["s3sr"]
            metrics["cli.interp_start_s"] = timed_process(["-c", "pass"], repeats)
            for command in ("frames", "connect", "geodesic", "hamiltonian", "check", "shoot"):
                walls = [r.scaled_s for r in plain if r.kind == command]
                metrics[f"cli.{command}.wall_ms"] = 1e3 * statistics.median(walls) if walls else 0.0
            metrics["trace.overhead_frac"] = sum(r.scaled_s for r in traced) / sum(r.scaled_s for r in plain) - 1.0
            spans = OUT / f"trace-{name}-seed{seed}.json"
            tracer.write(spans)
            report["trace_file"] = str(spans.relative_to(ROOT))
            report["absent"] = tracer.absent
            report["spans_dropped"] = tracer.dropped
            report["traced_ops"] = len(traced)
        report["speed"] = {"operations": speed.loop.__name__, "load_loop": load.summary(),
                           "compute_loop": speed.summary() if cls.in_process else None}
        report["accuracy"] = accuracy_summary(records, worst)
        report["failures"] = failure_summary(records)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    result = {
        "correct": not any(r.wrong for r in records),
        "attempted": len(records),
        "failed": sum(r.failed for r in records),
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }
    return report, result


def smoke(blas_cap):
    """Every workload at minimum size, both modes, against BENCHMARK.json."""
    import workloads

    spec = json.loads(SPEC.read_text())
    problems = []
    for name in workloads.WORKLOADS:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            _, result = run_workload(name, 0, 0.0, trace, smoke=True, blas_cap=blas_cap)
            want = {m["name"]: m["unit"] for m in spec[section]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want:
                problems.append(f"{name} trace={trace}: names/units differ: "
                                f"missing {sorted(set(want) - set(got))}, extra {sorted(set(got) - set(want))}, "
                                f"units {[k for k in want if k in got and got[k] != want[k]]}")
            if not all(math.isfinite(v["value"]) for v in result["metrics"].values()):
                problems.append(f"{name} trace={trace}: non-finite metric")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{name} trace={trace}: {result['failed']} of {result['attempted']} failed")
            print(f"smoke {name} trace={trace}: {result['attempted']} ops, {len(got)} metrics", flush=True)
    for p in problems:
        print("SMOKE FAIL", p, file=sys.stderr)
    return 1 if problems else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if not (SRC / "s3sr" / "__init__.py").is_file():
        print(f"error: no s3sr sources under {SRC}", file=sys.stderr)
        return 2

    # cap BLAS threads before numpy is first imported, and keep the caller,
    # the speed loop and every child on one core; children inherit both
    cores = os.sched_getaffinity(0)
    blas_cap = min(2, len(cores))
    for var in BLAS_VARS:
        os.environ[var] = str(blas_cap)
    os.sched_setaffinity(0, {max(cores)})
    sys.path.insert(0, str(SRC))
    import s3sr

    if Path(s3sr.__file__).resolve().parent != SRC / "s3sr":
        print(f"error: imported s3sr from {s3sr.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke(blas_cap)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {sorted(workloads.WORKLOADS)}")
    report, result = run_workload(args.workload, args.seed, args.seconds, args.trace, blas_cap=blas_cap)
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
