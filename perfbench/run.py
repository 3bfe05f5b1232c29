"""mvhash benchmark: fixed-seed workloads, checked outputs, optional trace.

    python3 perfbench/run.py --workload scan --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Run from the repository root; mvhash is imported from ./src, not installed.
Each workload runs in its own process with BLAS pinned to one thread. The
output is a table, one `{"detail": ...}` JSON line (sample counts, the
workload's named metrics, host and build) and, as the last line,
`{"correct", "attempted", "failed", "metrics"}`. With --trace 0 the metrics
are the end-to-end ones; with --trace 1 the per-layer ones from a traced run.
"""

import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:  # before numpy is imported anywhere
    os.environ[_var] = "1"

import argparse
import importlib
import json
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# the bench's own modules load numpy, so they come after the pin
import numpy as np

import calib
import layers
from spans import Tracer
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 3
WORKLOAD_NAMES = tuple(WORKLOADS)
END_TO_END = {"setup_s": "s", "op_p50_rel": "ratio", "op_p90_rel": "ratio", "peak_rss_mb": "MB"}


class SetupError(Exception):
    pass


def import_mvhash():
    """Import every mvhash module from ./src; returns (namespace, seconds).
    numpy is already loaded, so the time is mvhash's own."""
    if not (SRC / "mvhash" / "__init__.py").is_file():
        raise SetupError(f"no mvhash package under {SRC}")
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    mods = {name: importlib.import_module(f"mvhash.{name}") for name in
            ("retrieval", "net", "loss", "trainer", "centers", "data", "formats", "cli")}
    seconds = time.perf_counter() - t0
    if SRC not in Path(mods["cli"].__file__).resolve().parents:
        raise SetupError(f"mvhash was imported from {mods['cli'].__file__}, not {SRC}")
    return argparse.Namespace(**mods), seconds


def quantile(values, q):
    """Linear-interpolated quantile (q in 0..1); the value itself for one sample."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def environment():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "git_commit": commit,
    }


def measure(workload, seconds, min_ops, trace=False):
    """Closed loop: ops back to back until `seconds` pass and min_ops ran.

    Untraced, the reference kernel runs before the first op, after every op
    and inside ops: every half second for in-process ops (its time is taken
    out of the op), between stages for ops that run child processes (so it
    never runs beside one). An op's relative time is its latency over the
    mean of the kernel times from just before to just after it.
    Traced, every second op is traced and no reference kernel runs.
    Returns {"plain": [...], "traced": [...]} latencies, the relative times
    of the untraced ops and the kernel samples.
    """
    lat = {"plain": [], "traced": []}
    rel = []
    ref = workload.reference = None if trace else calib.Reference()
    if ref:
        ref.sample()
        if workload.ops_in_process:
            ref.start()
    try:
        deadline = time.perf_counter() + seconds
        i = 0
        while i < min_ops or time.perf_counter() < deadline:
            workload.tracer.op = i
            if trace and i % 2:
                lat["traced"].append(workload.op(i))
            else:
                before = len(ref.samples) - 1 if ref else 0
                with workload.tracer.pause():
                    latency = workload.op(i)
                lat["plain"].append(latency)
                if ref:
                    ref.sample()
                    around = ref.samples[before:]
                    rel.append(latency / (sum(around) / len(around)))
            i += 1
    finally:
        if ref:
            ref.stop()
    return lat, rel, ref.samples if ref else []


def run_workload(args):
    mv, import_s = import_mvhash()
    tracer = Tracer()
    cls = WORKLOADS[args.workload]
    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    kwargs = {"in_process": True} if args.trace and cls.name == "cli-walkthrough" else {}
    wl = cls(mv, args.seed, workdir, tracer, **kwargs)
    workdir.mkdir(parents=True, exist_ok=True)
    if args.trace:
        tracer.install(layers.targets(mv))
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            wl.release()
            t0 = time.perf_counter()
            wl.setup()
            setups.append(time.perf_counter() - t0)
        setup_s = statistics.median(setups) + (import_s if wl.include_import else 0.0)
        with tracer.pause():
            wl.warmup()
        lat, rel, ref = measure(wl, args.seconds, wl.min_ops, trace=bool(args.trace))
        latencies = lat["traced" if args.trace else "plain"]
        if args.trace:
            with tracer.pause():
                counts = wl.counts()
            overhead = tuple((quantile(lat["traced"], q) - quantile(lat["plain"], q)) * 1e3
                             for q in (0.5, 0.9))
            metrics = layers.per_layer(tracer, counts, overhead)
            units = {m: layers.unit(m) for m in metrics}
            spans_file = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
            tracer.write(spans_file)
        else:
            metrics = {"setup_s": setup_s,
                       "op_p50_rel": quantile(rel, 0.5),
                       "op_p90_rel": quantile(rel, 0.9),
                       "peak_rss_mb": wl.peak_rss_kib() / 1024}
            units = END_TO_END
            spans_file = None
        named = {"op_p50_ms": (quantile(latencies, 0.5) * 1e3, "ms", len(latencies)),
                 "op_p90_ms": (quantile(latencies, 0.9) * 1e3, "ms", len(latencies))}
        if ref:
            named["reference_kernel_ms"] = (statistics.median(ref) * 1e3, "ms", len(ref))
        named.update(wl.detail(latencies))
    finally:
        tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)

    correct = wl.failed == 0
    detail = {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "ops": len(latencies),
        "attempted": wl.attempted, "failed": wl.failed,
        "failed_frac": wl.failed / wl.attempted if wl.attempted else None,
        "named_metrics": {k: {"value": v, "unit": u, "samples": n}
                          for k, (v, u, n) in named.items()},
        "setup_runs_s": setups, "import_s": import_s,
        "latencies_ms": [x * 1e3 for x in latencies],
        "reference_kernel_ms": [x * 1e3 for x in ref],
        "errors": wl.errors, "spans_file": str(spans_file) if spans_file else None,
        "env": environment(),
    }
    if args.trace:
        detail["overhead_ms"] = {"op_p50": overhead[0], "op_p90": overhead[1],
                                 "untraced_ops": len(lat["plain"])}
    print(f"workload {wl.name}  seed {args.seed}  ops {len(latencies)}  "
          f"attempted {wl.attempted}  failed {wl.failed}  correct {correct}")
    for k, (v, u, n) in named.items():
        print(f"  {k:<28} {v:>16} {u:<10} n={n}")
    for k, v in metrics.items():
        print(f"  {k:<40} {v:>16.6g} {units[k]}")
    print(json.dumps({"detail": detail}))
    result = {"correct": correct, "attempted": wl.attempted, "failed": wl.failed,
              "metrics": {k: {"value": float(v), "unit": units[k]}
                          for k, v in metrics.items()}}
    print(json.dumps(result), flush=True)
    return 0


def run_all(args):
    """Each workload in its own process, one after another."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        print(done.stdout, end="", flush=True)
        if done.returncode != 0:
            return done.returncode
        last = json.loads(done.stdout.strip().splitlines()[-1])
        total["correct"] &= last["correct"]
        total["attempted"] += last["attempted"]
        total["failed"] += last["failed"]
        for k, v in last["metrics"].items():
            total["metrics"][f"{name}.{k}"] = v
    print(json.dumps(total))
    return 0


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    try:
        return run_workload(args)
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
