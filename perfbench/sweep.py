"""Repeat the benchmark over seeds and summarise each metric's spread.

    python3 perfbench/sweep.py --workload corpus --seeds 1-10 [--trace 1]

Runs ``run.py`` once per seed, one run at a time, echoes each run's summary
line (whose items/s also gives the tracing overhead), and prints for every
metric the median, the first and third quartiles (``statistics.quantiles``
with n=4) and their distance as a share of the median.  The raw result lines
go to ``perfbench/out/sweep-<workload>-trace<t>-<seeds>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    p.add_argument("--seconds", type=int,
                   default=json.loads((HERE.parent / "BENCHMARK.json")
                                      .read_text())["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    results = []
    for seed in args.seeds:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload",
               args.workload, "--seed", str(seed), "--seconds",
               str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              cwd=HERE.parent, timeout=600, check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        results.append(result)
        print(proc.stderr.strip().splitlines()[-1])
        print(f"seed {seed}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']} "
              + " ".join(f"{k}={v['value']:.6g}"
                         for k, v in result["metrics"].items()), flush=True)
    (HERE / "out").mkdir(exist_ok=True)
    name = (f"sweep-{args.workload}-trace{args.trace}-"
            f"{args.seeds[0]}-{args.seeds[-1]}.json")
    (HERE / "out" / name).write_text(json.dumps(results, indent=1))
    print(f"{'metric':36s} {'median':>12s} {'q1':>12s} {'q3':>12s} spread")
    for key, first in results[0]["metrics"].items():
        values = [r["metrics"][key]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med if med else 0.0
        print(f"{key:36s} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:6.3f} "
              f"{first['unit']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
