"""Benchmark of the weylblocks library: one workload per run.

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the library is imported from its
``src`` directory.  An untraced run first times the set-up five times in
fresh interpreters (``setup_s`` is their median), then runs whole rounds of the
workload, each from cold caches, until ``--seconds`` have passed.  It checks
every item's output and prints, as the last line of stdout, one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1`` (whose
spans also go to ``perfbench/out/``).  See README.md for the workloads.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_SAMPLES = 5
SETUP_TIMEOUT_S = 60
READY = "setup-ready"


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("corpus", "characters", "blocks"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="set up only, print a ready line and exit")
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def import_library():
    """Import weylblocks from this checkout's src, nowhere else."""
    if not (SRC / "weylblocks" / "__init__.py").is_file():
        sys.exit(f"error: no weylblocks sources under {SRC}")
    sys.path[:0] = [str(SRC), str(HERE)]
    import weylblocks

    if Path(weylblocks.__file__).resolve().parent != SRC / "weylblocks":
        sys.exit(f"error: imported weylblocks from {weylblocks.__file__}")
    import workloads

    return workloads


def time_setup(args) -> list[float]:
    """Wall time from starting an interpreter to the end of the workload's
    set-up (import, input generation, corpus load and root-system builds)."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--setup-probe"]
    samples = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                              cwd=ROOT) as proc:
            try:
                line = proc.stdout.readline().strip()
                elapsed = time.perf_counter() - t0
                proc.communicate(timeout=SETUP_TIMEOUT_S)
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        if line != READY or proc.returncode != 0:
            sys.exit(f"error: set-up probe failed (exit {proc.returncode})")
        samples.append(elapsed)
    return samples


def tail(sorted_values: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest percentile with at least ten items
    beyond it.  Below a hundred items that percentile lies under p90 and is
    the time of whichever item the seed puts at that rank, so the median
    stands in for it."""
    n = len(sorted_values)
    if n < 100:
        return 50.0, statistics.median(sorted_values)
    k = n - 11  # index with exactly ten items above it
    return 100.0 * (k + 1) / n, sorted_values[k]


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    args = parse_args(argv)
    workloads = import_library()
    if args.setup_probe:
        workloads.WORKLOADS[args.workload](args.seed)
        print(READY, flush=True)
        return 0

    setup = [] if args.trace else time_setup(args)
    work = workloads.WORKLOADS[args.workload](args.seed)
    tr = workloads.Trace(bool(args.trace))
    n_rounds, rounds, done, failed, timed, wrong = 0, [], 0, 0, 0.0, []
    start = time.perf_counter()
    while not n_rounds or time.perf_counter() - start < args.seconds:
        r = work.round(tr)
        n_rounds += 1
        done += len(r.item_seconds)
        failed += r.failed
        timed += r.timed_seconds
        wrong += r.wrong
        if r.item_seconds:
            items = sorted(r.item_seconds)
            rounds.append((statistics.median(items), *tail(items)))
    for problem in wrong[:20]:
        print(f"wrong: {problem}", file=sys.stderr)
    if not done:
        sys.exit("error: every item failed")

    # percentiles are taken per round, whose make-up is fixed, and the
    # median over rounds is reported, so the round count cannot shift them
    attempted = n_rounds * work.size
    items_per_s = done / timed
    p50_s = statistics.median(r[0] for r in rounds)
    pct = rounds[0][1]
    tail_s = statistics.median(r[2] for r in rounds)
    print(f"{args.workload}: {n_rounds} round(s), {attempted} items, "
          f"{failed} failed, {len(wrong)} wrong, {timed:.3f} s timed, "
          f"{items_per_s:.4f} items/s, p50 {p50_s * 1000:.3f} ms, tail "
          f"p{pct:.1f} of {work.size} items {tail_s * 1000:.3f} ms, setup "
          f"samples {[round(s, 4) for s in setup]}", file=sys.stderr)

    if args.trace:
        OUT.mkdir(exist_ok=True)
        tr.dump(OUT / f"trace-{args.workload}-seed{args.seed}.json")
        layer = tr.layer_seconds()
        counts = tr.counts
        # per round: every round does the same work, so counts are exact
        metrics = {"rootsys.build_ms":
                   metric(layer.pop("rootsys.build") * 1000 / n_rounds, "ms")}
        for name, seconds in layer.items():
            metrics[f"{name}_s"] = metric(seconds / n_rounds, "s")
        for name in ("coxeter.group_elements", "integral.w_ext_elements",
                     "hecke.kl_entries", "cat_o.dominant_weights"):
            metrics[name] = metric(counts[name] // n_rounds, "count")
        w = counts["integral.w_elements"]
        metrics["integral.w_ext_per_w"] = metric(
            counts["integral.w_ext_elements"] / w if w else 0.0, "ratio")
    else:
        metrics = {
            "items_per_s": metric(items_per_s, "1/s"),
            "item_p50_ms": metric(p50_s * 1000, "ms"),
            "item_tail_ms": metric(tail_s * 1000, "ms"),
            "setup_s": metric(statistics.median(setup), "s"),
            "peak_rss_mb": metric(
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "MB"),
        }
    print(json.dumps({"correct": not wrong, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
