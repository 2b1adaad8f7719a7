"""One repetition of one workload, in a fresh interpreter with cold caches.

run.py starts this script and times the launch until the "ready" line,
which is printed as soon as bianchi (scipy.special included) is imported.
The last line of stdout is the repetition's result as JSON.

    python3 perfbench/child.py --workload survey --seed 1 [--size tiny]
        [--traced --spans FILE] [--alter-reference] [--setup-only]

PYTHONPATH must name the checkout's src directory.
"""

import sys

import bianchi.cli  # noqa: F401  imports every bianchi module and scipy.special

print("ready", flush=True)

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402

import workloads  # noqa: E402


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--size", choices=workloads.SIZES, default="full")
    ap.add_argument("--traced", action="store_true")
    ap.add_argument("--spans", default=None, help="write the traced run's spans here")
    ap.add_argument("--alter-reference", action="store_true",
                    help="negative control: alter the first pinned value checked")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()
    if args.setup_only:
        return 0
    import scipy

    here = os.path.dirname(os.path.abspath(__file__))
    with open(os.path.join(here, "reference.json")) as fh:
        reference = json.load(fh)
    chk = workloads.Checker(reference[args.workload], alter_first=args.alter_reference)
    tracer = None
    if args.traced:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    try:
        result = workloads.run(args.workload, args.seed, args.size, chk, reference)
    finally:
        if tracer is not None:
            tracer.uninstall()
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result["scipy"] = scipy.__version__
    if tracer is not None:
        result["layers"] = tracer.metrics()
        result["layers"]["cli.bytes_out"] = result["counters"].get("cli.bytes_out", 0)
        result["shares"] = tracer.shares(result["wall_s"])
        result["missing"] = tracer.missing
        if args.spans:
            tracer.write_spans(args.spans)
    sys.stdout.write(json.dumps(result) + "\n")
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
