"""Benchmark driver: fresh-interpreter repetitions of one workload.

    python3 perfbench/run.py --workload survey --seed 1 --seconds 55 --trace 0

Run from the root of a checkout.  Every repetition is a new interpreter
(perfbench/child.py) with cold caches, a fixed PYTHONHASHSEED, no
BIANCHI_CACHE_DIR and one BLAS/OpenMP thread.  With --trace 0 the run
measures set-up several times, repeats the workload while --seconds
allows, and prints the end-to-end metrics as medians over repetitions.
With --trace 1 it makes one untraced and one traced repetition and prints
the per-layer metrics; trace.overhead_s is the difference of their wall
times.  Metric names and units come from BENCHMARK.json.

The last line of stdout is the result:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
The line before it records the environment and every repetition.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(HERE, "child.py")
SETUP_PROBES = 7
DEADLINE_S = 170.0        # every run ends well inside the 180 s limit
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def tail_index(n: int) -> int:
    """Index into n sorted samples of the highest percentile that has at
    least ten samples beyond it.  Below 22 samples that percentile would
    not lie above the median, so the maximum stands in for it."""
    return n - 11 if n >= 22 else n - 1


def tail_value(samples: list[float]) -> float:
    xs = sorted(samples)
    return xs[tail_index(len(xs))]


def child_env(root: str) -> dict:
    env = dict(os.environ)
    env.pop("BIANCHI_CACHE_DIR", None)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.path.join(root, "src")
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def source_digest(root: str) -> str:
    """sha256 over the program's source tree, standing in for the commit
    (checkouts the benchmark runs in need not be git repositories)."""
    h = hashlib.sha256()
    src = os.path.join(root, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, src).encode() + b"\0")
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


class Runner:
    """Starts child interpreters one at a time, within a hard deadline."""

    def __init__(self, root: str, deadline: float) -> None:
        self.env = child_env(root)
        self.root = root
        self.deadline = deadline
        self.setup_s: list[float] = []
        self.scipy = None

    def child(self, *args: str) -> dict | None:
        """Run one child; returns its result, or None for --setup-only."""
        remaining = self.deadline - perf_counter()
        if remaining <= 0:
            raise BenchError("out of time before starting a repetition")
        t0 = perf_counter()
        proc = subprocess.Popen([sys.executable, CHILD, *args], cwd=self.root,
                                env=self.env, stdout=subprocess.PIPE, text=True)
        try:
            ready = proc.stdout.readline()
            setup = perf_counter() - t0
            out, _ = proc.communicate(timeout=max(remaining - setup, 0.1))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise BenchError(f"repetition {args} ran past the deadline")
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if ready.strip() != "ready" or proc.returncode != 0:
            raise BenchError(f"child {args} exited with code {proc.returncode}")
        self.setup_s.append(setup)
        if "--setup-only" in args:
            return None
        lines = out.strip().splitlines()
        if not lines:
            raise BenchError(f"child {args} printed no result")
        res = json.loads(lines[-1])
        self.scipy = res.get("scipy")
        return res


def rep_summary(res: dict) -> dict:
    ops = res["op_s"]
    return {
        "wall_s": res["wall_s"],
        "op_p50_ms": statistics.median(ops) * 1e3,
        "op_tail_ms": tail_value(ops) * 1e3,
        "op_count": len(ops),
        "op_tail_rank": tail_index(len(ops)) + 1,
        "peak_rss_mb": res["peak_rss_mb"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "failures": res["failures"],
        "digest": res["digest"],
    }


def measure(runner: Runner, args, seconds: float) -> tuple[dict, list[dict]]:
    """End-to-end metrics: set-up probes, then repetitions while time allows."""
    runner.child("--setup-only")                  # compiles bytecode, untimed
    runner.setup_s.clear()
    for _ in range(SETUP_PROBES):
        runner.child("--setup-only")
    reps = []
    t0 = perf_counter()
    while True:
        res = runner.child("--workload", args.workload, "--seed", str(args.seed),
                           "--size", args.size, *args.extra)
        reps.append(rep_summary(res))
        elapsed = perf_counter() - t0
        if elapsed * (len(reps) + 1) / len(reps) > seconds:
            break
    metrics = {key: statistics.median(r[key] for r in reps)
               for key in ("wall_s", "op_p50_ms", "op_tail_ms", "peak_rss_mb")}
    metrics["setup_s"] = statistics.median(runner.setup_s)
    return metrics, reps


def trace(runner: Runner, args) -> tuple[dict, list[dict], dict]:
    """Per-layer metrics from one traced repetition beside an untraced one."""
    common = ("--workload", args.workload, "--seed", str(args.seed), "--size", args.size,
              *args.extra)
    plain = runner.child(*common)
    spans = os.path.join(HERE, "out", f"spans-{args.workload}-{args.size}.json")
    os.makedirs(os.path.dirname(spans), exist_ok=True)
    traced = runner.child(*common, "--traced", "--spans", spans)
    metrics = dict(traced["layers"])
    metrics["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
    extra = {"shares": traced["shares"], "missing": traced["missing"], "spans": spans,
             "digests_agree": plain["digest"] == traced["digest"]}
    return metrics, [rep_summary(plain), rep_summary(traced)], extra


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny runs every workload in a few seconds, for the tests")
    ap.add_argument("--negative-control", action="store_true",
                    help="alter one pinned value; the run must report failures")
    args = ap.parse_args(argv)
    args.extra = ("--alter-reference",) if args.negative_control else ()
    root = os.getcwd()
    try:
        if not os.path.isfile(os.path.join(root, "src", "bianchi", "__init__.py")):
            raise BenchError("src/bianchi not found: run from the root of a checkout")
        with open(os.path.join(root, "BENCHMARK.json")) as fh:
            bench = json.load(fh)
        names = [w["name"] for w in bench["workloads"]]
        if args.workload not in names:
            raise BenchError(f"unknown workload {args.workload!r}; one of {names}")
        runner = Runner(root, perf_counter() + DEADLINE_S)
        if args.trace:
            values, reps, extra = trace(runner, args)
            declared = bench["per_layer"]
        else:
            values, reps = measure(runner, args, args.seconds)
            extra = {}
            declared = bench["end_to_end"]
        missing = [m["name"] for m in declared if m["name"] not in values]
        if missing:
            raise BenchError(f"no value for declared metrics {missing}")
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    correct = failed == 0 and extra.get("digests_agree", True)
    env = {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "scipy": runner.scipy,
        "src_sha256": source_digest(root),
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "failed_frac": failed / attempted if attempted else None,
    }
    print(json.dumps({"env": env, "reps": reps, **extra}))
    print(json.dumps({
        "correct": bool(correct),
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
