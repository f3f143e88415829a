"""scalevar benchmark: one seeded workload, one process, one closed-loop client.

    python3 bench/run_bench.py --workload trajectory --seed 1 --seconds 30 --trace 0

Run from the repository root.  The program is imported from ./src, so the
benchmark measures the checked-out source.  With --trace 0 the run times
operations untraced and reports the end-to-end metrics; with --trace 1 it
alternates untraced and traced rounds over the operation pool and reports
per-layer metrics (per operation) and the tracing overhead.

Human-readable metric lines and a JSON record of the environment come first;
the last line of standard output is the result object.  A run that cannot
import scalevar from ./src exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import threading
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
SETUP_REPEATS = 5
TAIL_BEYOND = 10  # samples that must lie beyond the reported tail percentile
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def pin_environment() -> None:
    """One thread everywhere: scalevar's default, and 1 for BLAS and OpenMP pools.

    Must run before numpy is imported.
    """
    os.environ.pop("SCALEVAR_THREADS", None)
    for var in THREAD_VARS:
        os.environ[var] = "1"


def host_probe() -> float:
    """Seconds for a fixed pure-Python loop; separates a slow host from slow code."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(800_000):
        acc = (acc + i * i) % 1_000_003
    return time.perf_counter() - t0


def rss_mb():
    """Current resident memory of this process in MB, or None off Linux."""
    try:
        with open("/proc/self/statm", encoding="ascii") as fh:
            pages = int(fh.read().split()[1])
    except (OSError, IndexError, ValueError):
        return None
    return pages * os.sysconf("SC_PAGE_SIZE") / 2**20


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def git_sha():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    target = ROOT / ".git" / ref[5:]
    if target.is_file():
        return target.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def import_scalevar():
    """Import scalevar afresh from ./src, dropping any earlier import."""
    if not (SRC / "scalevar" / "__init__.py").is_file():
        raise ImportError(f"no scalevar package under {SRC}")
    for name in [m for m in sys.modules if m == "scalevar" or m.startswith("scalevar.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import scalevar

    if Path(scalevar.__file__).resolve().parent != SRC / "scalevar":
        raise ImportError(f"scalevar was imported from {scalevar.__file__}, not from {SRC}")
    return scalevar


def setup(workload: str, seed: int, workdir: str):
    """Import, generate the operation pool and warm up, SETUP_REPEATS times.

    Returns the last pool, the median set-up time and the warm-up problems.
    """
    import workloads

    times, problems = [], []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        sv = import_scalevar()
        ops = workloads.build(workload, seed, workdir, sv)
        problems += run_checked(ops[0], ops[0].run)[1]
        times.append(time.perf_counter() - t0)
    return ops, statistics.median(times), problems


def run_checked(op, call):
    """Time call(), then check its result with op; returns (seconds, problems)."""
    t0 = time.perf_counter()
    try:
        result = call()
    except Exception as err:  # a raising operation is a failed one; keep measuring
        return time.perf_counter() - t0, [f"{type(err).__name__}: {err}"]
    elapsed = time.perf_counter() - t0
    try:
        return elapsed, op.check(result)
    except Exception as err:
        return elapsed, [f"checker raised {type(err).__name__}: {err}"]


def measure(ops, seconds: float):
    """Closed loop, one client: cycle through the pool until `seconds` elapse.

    Returns one (label, seconds, work, problems) tuple per operation.
    """
    samples = []
    deadline = time.perf_counter() + seconds
    k = 0
    while not samples or time.perf_counter() < deadline:
        op = ops[k % len(ops)]
        k += 1
        elapsed, problems = run_checked(op, op.run)
        samples.append((op.label, elapsed, op.work, problems))
    return samples


def tail(sorted_times):
    """(percentile, value): the highest whole percentile with TAIL_BEYOND samples beyond it."""
    n = len(sorted_times)
    if n <= TAIL_BEYOND:
        return 100, sorted_times[-1]
    pct = (100 * (n - TAIL_BEYOND)) // n
    rank = max(1, math.ceil(pct * n / 100))
    return pct, sorted_times[rank - 1]


def end_to_end(samples, setup_s: float) -> tuple:
    """The end-to-end metrics of one untraced run, and extra facts for the record."""
    ok = [s for s in samples if not s[3]]
    failed = len(samples) - len(ok)
    # latencies of correct operations; of all of them when none was correct
    times = sorted(s[1] for s in ok) or sorted(s[1] for s in samples)
    pct, tail_value = tail(times)
    work = sum(s[2] for s in ok)
    metrics = {
        "setup_s": (setup_s, "s"),
        "op_s_p50": (statistics.median(times), "s"),
        "op_s_tail": (tail_value, "s"),
        "nodes_per_s": (work / sum(s[1] for s in samples), "1/s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    extra = {
        "ops_failed_frac": failed / len(samples),
        "tail_percentile": pct,
        "ops_ok": len(ok),
    }
    return metrics, extra


def write_spans(path: Path, spans) -> None:
    """Spans of the first traced round, one JSON array per line after a header."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(["op", "name", "layer", "start", "end", "self_s", "depth"]) + "\n")
        for span in spans:
            fh.write(json.dumps(span[:7]) + "\n")


def per_layer(ops, seconds: float, spans_path: Path):
    """Alternate untraced and traced rounds over the pool; per-operation layer metrics.

    Counts come from one traced round (they repeat exactly); times are the
    median over rounds.  Returns (metrics, samples of every round).
    """
    from tracer import LAYERS, Tracer

    tracer = Tracer()
    rounds, samples = [], []
    deadline = time.perf_counter() + seconds
    while len(rounds) < 2 or time.perf_counter() < deadline:
        untraced = [run_checked(op, op.run) for op in ops]
        tracer.install()
        try:
            traced = [run_checked(op, lambda op=op: tracer.run_op(op.run)) for op in ops]
        finally:
            tracer.uninstall()
        out_bytes = out_rows = 0
        for op, (_, problems) in zip(ops, traced):
            if hasattr(op, "outputs") and not problems:
                csv, summary = op.outputs()
                out_bytes += len(csv) + len(summary)
                out_rows += csv.count(b"\n") - 1
        agg = tracer.summary()
        agg["untraced_wall"] = sum(t for t, _ in untraced)
        agg["outputs"] = (out_bytes, out_rows)
        if not rounds:
            first_spans = list(tracer.spans)
        rounds.append(agg)
        tracer.reset()
        for op, (t, problems) in zip(ops * 2, untraced + traced):
            samples.append((op.label, t, op.work, problems))

    per_op = 1.0 / len(ops)
    first = rounds[0]

    def calls(key):
        return first["calls"].get(key, 0) * per_op

    def self_s(key):
        return statistics.median(r["self_s"].get(key, 0.0) for r in rounds) * per_op

    def share(key):  # of the operations' time outside the tracer's bookkeeping
        return statistics.median(r["self_s"].get(key, 0.0) / (r["wall"] - r["self_s"]["trace"]) for r in rounds)

    m = {}
    for layer in LAYERS:
        m[f"{layer}.calls"] = (calls(layer), "count")
        m[f"{layer}.self_s"] = (self_s(layer), "s")
        m[f"{layer}.share"] = (share(layer), "frac")
    for name in ("lagdsl.evaluate", "scaleops.scale_derivative_path", "funcspace.oscillation_profile"):
        m[f"{name}.calls"] = (calls(name), "count")
        m[f"{name}.self_s"] = (self_s(name), "s")
    m["lagdsl.evaluate.mean_width"] = (first["mean_width"].get("lagdsl.evaluate", 0.0), "elements")
    for name in ("scaleops.scale_derivative_path", "funcspace.oscillation_profile"):
        m[f"{name}.useful_ratio"] = (first["useful_ratio"].get(name, 0.0), "ratio")
    m["schrodinger.velocity_field.calls"] = (calls("schrodinger.velocity_field"), "count")
    m["schrodinger.integrate_trajectory.self_s"] = (self_s("schrodinger.integrate_trajectory"), "s")
    m["scaleops.delta.calls"] = (calls("scaleops.delta"), "count")
    m["cli.run.self_s"] = (self_s("cli.run"), "s")
    m["cli.output_bytes"] = (first["outputs"][0] * per_op, "bytes")
    m["cli.rows"] = (first["outputs"][1] * per_op, "count")
    overhead = statistics.median(r["wall"] / r["untraced_wall"] - 1.0 for r in rounds)
    m["trace.overhead_frac"] = (overhead, "frac")
    write_spans(spans_path, first_spans)
    return m, samples


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    pin_environment()
    sys.path.insert(0, str(BENCH_DIR))
    import numpy as np
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    try:
        import_scalevar()
    except ImportError as err:
        print(f"cannot benchmark: {err}", file=sys.stderr)
        return 2

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = tempfile.mkdtemp(prefix=stem + "-", dir=OUT_DIR)
    try:
        probe_before = host_probe()
        ops, setup_s, problems = setup(args.workload, args.seed, workdir)
        rss = {"before_loop_mb": rss_mb(), "peak_before_loop_mb": peak_rss_mb()}
        if args.trace:
            metrics, samples = per_layer(ops, args.seconds, OUT_DIR / f"{stem}.spans.jsonl")
            extra = {}
        else:
            samples = measure(ops, args.seconds)
            metrics, extra = end_to_end(samples, setup_s)
        rss["peak_after_loop_mb"] = peak_rss_mb()
        probe_after = host_probe()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = sum(1 for s in samples if s[3])
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "work_unit": workloads.WORK_UNIT[args.workload],
        "ops": len(samples),
        "pool": len(ops),
        **extra,
        "host_probe_s": {"before": probe_before, "after": probe_after},
        "rss": rss,
        "threads": threading.active_count(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_sha": git_sha(),
        "warmup_problems": problems,
        "failures": sorted({f"{s[0]}: {s[3][0]}" for s in samples if s[3]})[:20],
    }
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    if not args.trace:
        print(f"ops_failed_frac = {extra['ops_failed_frac']:.6g} frac")
        print(f"op_s_tail is p{extra['tail_percentile']} of {extra['ops_ok']} operations")
    print(json.dumps(record))
    result = {
        "correct": failed == 0 and not problems,
        "attempted": len(samples),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    with open(OUT_DIR / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump({"record": record, "result": result}, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
