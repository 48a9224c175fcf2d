"""One fresh process of a benchmark run: import lpcuntz once, then repeat
(set up, solve) until the time budget is used up, and check.

Run by ``run.py``, never imported by it.  Every repeat constructs its
representations again, so their lru_cache'd generator matrices start
cold, as in every CLI invocation.  With ``--check 1`` the first
repeat's results are checked; other repeats have the same inputs and
only feed the digest, which must agree.  With ``--trace 1`` repeats alternate untraced and
traced.  Prints one JSON line; the spans of traced repeats go to
``--spans`` when the process ends.

    python3 perfbench/worker.py --workload norm-ladder --seed 1 --budget 10
"""

import argparse
import json
import os
import resource
import sys
import time
from statistics import median

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    parser.add_argument("--budget", type=float, default=0.0, help="seconds for this process")
    parser.add_argument("--spans", default=None)
    parser.add_argument("--check", type=int, choices=(0, 1), default=1,
                        help="check the first repeat (else digests only)")
    args = parser.parse_args()
    started = time.perf_counter()

    # Nothing heavy is imported before this point: setup_s includes the
    # numpy/scipy imports that every lpcuntz user pays.
    sys.path.insert(0, SRC)
    t0 = time.perf_counter()
    import lpcuntz as lp

    import_s = time.perf_counter() - t0
    if os.path.dirname(os.path.dirname(os.path.abspath(lp.__file__))) != SRC:
        print(f"lpcuntz imported from {lp.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    sys.path.insert(0, HERE)
    from tracing import Tracer, write_spans
    from workloads import WORKLOADS, Checks

    with open(os.path.join(HERE, "reference.json")) as fh:
        reference = json.load(fh)
    workload = WORKLOADS[args.workload]
    tracer = Tracer()
    if args.trace:
        tracer.install(lp)

    def mark(item):
        tracer.item = item

    repeats = []
    traced_spans = []
    checks = None
    while True:
        traced = bool(args.trace) and len(repeats) % 2 == 1
        tracer.spans.clear()
        tracer.active = traced
        t0 = time.perf_counter()
        state = workload.setup(lp, args.seed, args.size)
        t1 = time.perf_counter()
        results = workload.solve(lp, state, mark)
        t2 = time.perf_counter()
        tracer.active = False
        if not repeats:
            # the first repeat's peak is what one CLI invocation needs
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        repeat = {"build_s": t1 - t0, "solve_s": t2 - t1, "traced": traced}
        if traced:
            repeat["layers"] = tracer.layer_metrics()
            # share of the solve spent inside calls the workload loop made
            repeat["covered_s"] = sum(
                s[2] - s[1] for s in tracer.spans if s[3] is None and s[1] >= t1
            )
            traced_spans.append({"repeat": len(repeats), "spans": list(tracer.spans)})
        repeat_checks = Checks(digest_only=checks is not None or not args.check)
        workload.check(lp, state, results, reference, repeat_checks)
        repeat["digest"] = repeat_checks.digest
        checks = checks or repeat_checks
        del state, results
        repeats.append(repeat)
        elapsed = time.perf_counter() - started
        next_repeat = median(r["build_s"] + r["solve_s"] for r in repeats)
        if len(repeats) >= 1 + args.trace and elapsed + next_repeat > args.budget:
            break

    if args.spans and traced_spans:
        write_spans(args.spans, traced_spans)
    print(
        json.dumps(
            {
                "setup_s": import_s + repeats[0]["build_s"],
                "repeats": repeats,
                "peak_rss_mb": peak_rss_mb,
                "attempted": checks.attempted,
                "failed": checks.failed,
                "messages": checks.messages[:10],
                "checks_run": sorted(checks.ran),
                "checks_expected": list(workload.CHECKS),
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
