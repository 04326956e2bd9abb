"""Run one workload on several seeds and report the spread of each metric.

    python3 perfbench/spread.py --workload NAME --seeds 1-10 [--seconds S]
                                [--trace 0|1] [--out FILE]

For each metric it prints the median over the runs, the quartiles from
statistics.quantiles(values, n=4), and their distance as a share of the
median, next to the regression bound BENCHMARK.json gives the metric.
With --out the same summary is written as JSON, together with the seeds,
Python version and git sha, so that later runs can be compared with it.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}

    runs = []
    for seed in args.seeds:
        start = time.perf_counter()
        proc = subprocess.run(
            bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                "--seconds", str(seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900)
        elapsed = time.perf_counter() - start
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        runs.append(result)
        print(f"seed {seed}: {elapsed:.1f} s, attempted {result['attempted']}, "
              f"failed {result['failed']}, correct {result['correct']}", flush=True)

    summary = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        q1, median, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / median if median else 0.0
        summary[name] = {"unit": runs[0]["metrics"][name]["unit"],
                         "median": median, "q1": q1, "q3": q3,
                         "spread": spread, "runs": len(values)}
        bound = bounds.get(name)
        flag = "" if bound is None else f"  bound {bound}  " + (
            "ok" if spread < bound / 3 else "WIDE")
        print(f"{name:44} median {median:12.4f}  spread {spread:7.4f}{flag}")
    if args.out:
        args.out.write_text(json.dumps({
            "workload": args.workload, "seeds": args.seeds, "seconds": seconds,
            "trace": args.trace, "python": platform.python_version(),
            "git_sha": subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                      capture_output=True, text=True).stdout.strip(),
            "metrics": summary}, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
