"""lpcuntz benchmark: one workload, repeated in fresh processes, checked.

    python3 perfbench/run.py --workload norm-ladder --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --smoke

A run starts PROCESSES fresh ``worker.py`` processes one after another,
with BLAS threads capped at the core count, and splits ``--seconds``
between them.  Each imports lpcuntz once, then repeats (build the
representations, solve) while its share of time lasts, so every repeat
starts with cold lru_caches, as a CLI invocation does.  The first
process checks its first repeat; all repeats use the same seeded inputs
and their result digests must agree.  Reported:
``setup_s``, the median over processes of import plus first build;
``solve_s``, the median over untraced repeats; ``peak_rss_mb``, the
median over processes of their peak resident memory.

With ``--trace 0`` the last line carries the end-to-end metrics of
BENCHMARK.json.  With ``--trace 1`` repeats alternate untraced and
traced, and it carries the per-layer metrics (medians over traced
repeats) plus the tracing overhead, traced minus untraced median
``solve_s``; spans are written to ``perfbench/out/``.  ``--smoke`` runs
every workload at a tiny size in both modes and fails unless every
metric of BENCHMARK.json is printed with its unit and every correctness
check ran and passed.
"""

import argparse
import json
import os
import subprocess
import sys
import time
from statistics import median

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PROCESSES = 3
RUN_LIMIT_S = 170.0  # a run must end within 180 s


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def run_process(workload, seed, trace, size, index, budget, deadline):
    """One worker process; only the first one checks its results, the
    others must reproduce its digest."""
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    spans = os.path.join(HERE, "out", f"{workload}-seed{seed}-process{index}.spans.json")
    threads = str(len(os.sched_getaffinity(0)))
    env = dict(
        os.environ,
        OMP_NUM_THREADS=threads,
        OPENBLAS_NUM_THREADS=threads,
        MKL_NUM_THREADS=threads,
        PYTHONHASHSEED="0",
    )
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
        "--seed", str(seed), "--trace", str(trace), "--size", size,
        "--budget", repr(budget), "--spans", spans, "--check", str(int(index == 0)),
    ]
    proc = subprocess.run(
        cmd, cwd=ROOT, env=env, capture_output=True, text=True,
        timeout=max(1.0, deadline - time.perf_counter()),
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"process {index} of {workload} exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run(workload, seed, seconds, trace, size="full"):
    """Run the workload's processes; return the summary of the run."""
    start = time.perf_counter()
    procs = []
    for i in range(PROCESSES):
        budget = max(0.0, seconds - (time.perf_counter() - start)) / (PROCESSES - i)
        procs.append(run_process(workload, seed, trace, size, i, budget, start + RUN_LIMIT_S))
    repeats = [r for p in procs for r in p["repeats"]]
    for i, p in enumerate(procs):
        solves = ", ".join(
            f"{r['solve_s']:.3f}{'T' if r['traced'] else ''}" for r in p["repeats"]
        )
        print(
            f"process {i}: setup {p['setup_s']:.3f} s, solve [{solves}] s, "
            f"peak rss {p['peak_rss_mb']:.1f} MB, {p['failed']}/{p['attempted']} failed"
        )
        for message in p["messages"]:
            print(f"  FAILED {message}")
    # the digest agreement counts as one more checked result
    attempted = sum(p["attempted"] for p in procs) + 1
    failed = sum(p["failed"] for p in procs)
    digests = {r["digest"] for r in repeats}
    if len(digests) > 1:
        print(f"  FAILED digest: repeats with the same seed disagree ({len(digests)} digests)")
        failed += 1
    expected = set(procs[0]["checks_expected"])
    checks_run = set(procs[0]["checks_run"])
    if expected - checks_run:
        print(f"  FAILED checks never ran: {sorted(expected - checks_run)}")
        attempted += 1
        failed += 1
    plain = [r["solve_s"] for r in repeats if not r["traced"]]
    metrics = {
        "setup_s": median(p["setup_s"] for p in procs),
        "solve_s": median(plain),
        "peak_rss_mb": median(p["peak_rss_mb"] for p in procs),
    }
    traced = [r for r in repeats if r["traced"]]
    layers = None
    if traced:
        names = set().union(*(r["layers"] for r in traced))
        layers = {name: median(r["layers"].get(name, 0) for r in traced) for name in names}
        layers["trace.solve_s"] = median(r["solve_s"] for r in traced)
        layers["trace.overhead_s"] = layers["trace.solve_s"] - metrics["solve_s"]
        varying = sorted(
            name for name in names
            if isinstance(layers[name], int) and len({r["layers"].get(name) for r in traced}) > 1
        )
        if varying:
            print(f"  counts differ between traced repeats: {varying}")
        covered = median(r["covered_s"] / r["solve_s"] for r in traced)
        print(f"traced calls cover {covered:.1%} of traced solve_s")
    print(f"{len(plain)} untraced and {len(traced)} traced repeats in {len(procs)} processes, "
          f"{time.perf_counter() - start:.1f} s")
    return {
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "metrics": metrics,
        "layers": layers,
        "missing_checks": sorted(expected - checks_run),
    }


def result_line(summary, spec, trace):
    chosen = spec["per_layer"] if trace else spec["end_to_end"]
    values = summary["layers"] if trace else summary["metrics"]
    return {
        "correct": summary["failed"] == 0,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        # a traced function the workload never calls reads 0
        "metrics": {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]} for m in chosen},
    }


def print_summary(workload, summary, spec, trace):
    print(f"{workload}: {summary['failed']}/{summary['attempted']} results failed "
          f"(failed_frac {summary['failed_frac']:.4f})")
    metrics = spec["per_layer"] if trace else spec["end_to_end"]
    values = summary["layers"] if trace else summary["metrics"]
    for m in metrics:
        print(f"  {m['name']:44s} {values.get(m['name'], 0):>16.6g} {m['unit']}")


def smoke(spec) -> int:
    """Every workload at a tiny size, untraced and traced; fails unless
    every metric of BENCHMARK.json is printed with its unit and every
    correctness check ran and passed."""
    problems = []
    for w in spec["workloads"]:
        for trace in (0, 1):
            summary = run(w["name"], 0, 0, trace, size="smoke")
            line = result_line(summary, spec, trace)
            print_summary(w["name"], summary, spec, trace)
            print(json.dumps(line))
            expected = spec["per_layer"] if trace else spec["end_to_end"]
            for m in expected:
                got = line["metrics"].get(m["name"])
                if got is None or got["unit"] != m["unit"] or not isinstance(got["value"], (int, float)):
                    problems.append(f"{w['name']} trace={trace}: metric {m['name']} missing or malformed")
            if not line["correct"]:
                problems.append(f"{w['name']} trace={trace}: {line['failed']} results failed")
            if summary["missing_checks"]:
                problems.append(f"{w['name']} trace={trace}: checks never ran: {summary['missing_checks']}")
    for problem in problems:
        print(f"SMOKE FAILED: {problem}")
    print("smoke: " + ("FAILED" if problems else "OK"))
    return 1 if problems else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "lpcuntz", "__init__.py")):
        print(f"no lpcuntz sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    spec = load_spec()
    if args.smoke:
        return smoke(spec)
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        parser.error(f"--workload must be one of {names}")
    summary = run(args.workload, args.seed, args.seconds, args.trace)
    print_summary(args.workload, summary, spec, args.trace)
    print(json.dumps(result_line(summary, spec, args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
