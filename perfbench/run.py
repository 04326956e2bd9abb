"""Benchmark of the k3lattices package: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree holding src/k3lattices.  One process
drives one closed-loop client: each request starts after the previous
one ends.  Inputs come from --seed alone.  Every output is checked by
the benchmark's own arithmetic outside the timed interval.

--trace 0 runs a seeded pool of requests in passes for --seconds and
reports the end-to-end metrics listed in BENCHMARK.json, each request
timed by the median of its passes, scaled to a reference machine speed.
--trace 1 runs a fixed, seeded list of requests in this process, each
once plain and once with spans around the package's public functions
(see tracing.py), and reports the per-layer metrics.  Each run appends a record to perfbench/results/runs.jsonl; a
traced run also writes its spans under perfbench/results/spans/.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  attempted counts the distinct requests
of the run (the pool, or the traced list), not their repeated passes, so
that it and failed depend on the seed alone, never on the machine's
speed.  A request fails on a wrong exit code, a traceback, an
unparseable output or a violated invariant in any of its passes; failed
counts them.  A request crashed if it raised, printed a traceback or
exited with a code outside the contract's 0, 1 and 2; it counts as
failed without making the run incorrect.  Every other failure is an
answer the checks found wrong, and turns correct to false.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

from tracing import Tracer, metric_names, unit
from workloads import WORKLOADS, Outcome

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

# setup is repeated in fresh processes this many times; setup_s is the median
SETUP_PROBES = {"verify_cold": 6, "normal_forms": 16, "cli_mix": 16}
IMPORT_PROBES = 7

END_TO_END_UNITS = {"setup_s": "s", "request_p50_ms": "ms", "request_p90_ms": "ms",
                    "success_ratio": "ratio", "peak_rss_mb": "MB"}

# Times are scaled to a machine that runs reference_work() in REFERENCE_MS.
# On the shared 2-vCPU virtual machine the bounds were set on, the speed of
# pure-Python work wandered by up to 1.6x within seconds, in CPU time as
# much as in wall time.  reference_work() is timed at most every half
# second between requests, and a request is scaled by the median of the
# reference times taken within WINDOW_S before its start or after its end.
# Over ten 30-second runs per workload, recorded raw and scaled afterwards
# in several ways, this window put the spread of request_p50_ms at 0.03 to
# 0.05, against 0.09 to 0.13 for the fastest of the three references taken
# before a request.
REFERENCE_MS = 9.5
WINDOW_S = 1.0

# failure reasons of a request that crashed; every other failure is an
# answer the checks found wrong
CRASHES = ("traceback", "crashed")


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def reference_work() -> int:
    """Fixed pure-Python work: a small-int loop, big-int products, Fractions."""
    total = 0
    for i in range(60000):
        total += i * i % 7
    x = 3 ** 4000
    for _ in range(300):
        x = x * 12345678901 % 7 ** 3000
    return total + sum((Fraction(1, i) for i in range(1, 400)), Fraction(0)).numerator


class SpeedLog:
    """Timings of reference_work() through a run, from which the time of
    each request is scaled to the reference machine once the run is over."""

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.seconds: list[float] = []

    def sample(self) -> None:
        """Time the reference, unless it ended less than half a second ago."""
        if self.starts and time.perf_counter() < self.starts[-1] + self.seconds[-1] + 0.5:
            return
        start = time.perf_counter()
        reference_work()
        self.starts.append(start)
        self.seconds.append(time.perf_counter() - start)

    def factor(self, start: float, seconds: float) -> float:
        """Wall time to reference time for a request that ran from start
        for seconds; sample() just before it makes the window non-empty."""
        lo = bisect.bisect_left(self.starts, start - WINDOW_S)
        hi = bisect.bisect_right(self.starts, start + seconds + WINDOW_S)
        return REFERENCE_MS / 1000 / statistics.median(self.seconds[lo:hi])

    def scaled(self, runs: list[tuple[float, float]]) -> list[float]:
        return [seconds * self.factor(start, seconds) for start, seconds in runs]


def execute(workload, req, prepared, runner=None):
    """Run one request; returns (seconds, outcome).  Only the call is timed."""
    runner = runner or workload.execute
    start = time.perf_counter()
    try:
        outcome = runner(req, prepared)
    except Exception as exc:  # the package raised: the request failed
        outcome = Outcome(exception=f"{type(exc).__name__}: {exc}")
    return time.perf_counter() - start, outcome


def crashed(problem: str) -> bool:
    return problem.startswith(CRASHES)


def judge(workload, req, outcome) -> str | None:
    if outcome.exception:
        return f"traceback ({outcome.exception.split(':')[0]})"
    try:
        return workload.check(req, outcome)
    except (KeyError, TypeError, ValueError) as exc:  # output of the wrong shape
        return f"malformed output ({type(exc).__name__}: {exc})"


def fingerprint(outcome) -> int:
    return hash((outcome.code, outcome.out, outcome.err, outcome.value,
                 outcome.exception))


def setup(workload_cls, seed: int, workdir: Path):
    """Everything before the first timed request: the workload, its pool
    of prepared requests, and one untimed warm-up request."""
    workload = workload_cls(seed, workdir)
    stream = workload.requests()
    pool = [(req, workload.prepare(req))
            for req in itertools.islice(stream, workload.pool)]
    warm = workload.warmup()
    execute(workload, warm, workload.prepare(warm))
    return workload, pool


def measure_setup(name: str, seed: int, probes: int,
                  speed: SpeedLog) -> list[tuple[float, float]]:
    """Start and wall time of a fresh process doing exactly the setup,
    several times."""
    samples = []
    for _ in range(probes):
        speed.sample()
        start = time.perf_counter()
        # no timeout: waiting with one polls in steps of up to 50 ms
        subprocess.run([sys.executable, str(HERE / "run.py"), "--setup-probe",
                        "--workload", name, "--seed", str(seed), "--seconds", "0"],
                       cwd=ROOT, check=True)
        samples.append((start, time.perf_counter() - start))
    speed.sample()
    return samples


def tail_percentile(n: int) -> int:
    """90 from 100 samples on; below that the highest percentile with ten
    samples beyond it, but never below the median."""
    return 90 if n >= 100 else max(50, 100 * (n - 10) // n)


def percentile(values: list[float], pct: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def untraced_run(workload_cls, args, workdir: Path) -> dict:
    speed = SpeedLog()
    probes = SETUP_PROBES[args.workload]
    setup_runs = measure_setup(args.workload, args.seed, probes // 2, speed)
    workload, pool = setup(workload_cls, args.seed, workdir)
    # The pool runs in passes until the time is up, the first pass always
    # in full, and a request's time is the median of its scaled passes:
    # the fastest pass would pick the largest error of the scaling.
    runs: list[list[tuple[float, float]]] = [[] for _ in pool]
    problems: list[str | None] = [None] * len(pool)
    # a later pass that returns exactly the output of an earlier, judged one
    # keeps its verdict, so the witness checks of normal_forms, which cost
    # more than the request, do not crowd out the timed passes
    judged: dict[int, tuple[int, str | None]] = {}
    executions = passes = 0
    deadline = time.perf_counter() + args.seconds
    while passes == 0 or time.perf_counter() < deadline:
        for i, (req, prepared) in enumerate(pool):
            if passes and time.perf_counter() >= deadline:
                break
            speed.sample()
            start = time.perf_counter()
            seconds, outcome = execute(workload, req, prepared)
            key = fingerprint(outcome)
            if i not in judged or judged[i][0] != key:
                judged[i] = key, judge(workload, req, outcome)
            problem = judged[i][1]
            runs[i].append((start, seconds))
            problems[i] = problems[i] or problem
            executions += 1
        passes += 1
    setup_runs += measure_setup(args.workload, args.seed, probes - probes // 2,
                                speed)
    latencies = [statistics.median(speed.scaled(r)) for r in runs]
    setup_samples = speed.scaled(setup_runs)
    factors = [speed.factor(start, seconds) for r in runs for start, seconds in r]
    failures = Counter(f"{req.family}: {problem}"
                       for (req, _), problem in zip(pool, problems) if problem)
    who = resource.RUSAGE_SELF if workload.in_process else resource.RUSAGE_CHILDREN
    ms = [x * 1000 for x in latencies]
    n = len(ms)
    pct = tail_percentile(n)
    failed = sum(p is not None for p in problems)
    metrics = {
        "setup_s": statistics.median(setup_samples),
        "request_p50_ms": statistics.median(ms),
        "request_p90_ms": percentile(ms, pct),
        "success_ratio": 1 - failed / n,
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
    }
    q1, _, q3 = statistics.quantiles(ms, n=4)
    failed_ratio = failed / n
    # requests per second is a mean over heavy-tailed costs: recorded, but
    # too unsteady between seeds to gate on
    detail = {"requests": n, "passes": passes, "executions": executions,
              "failed_ratio": failed_ratio,
              "throughput_rps": (n - failed) / sum(latencies),
              "request_ms": {"median": metrics["request_p50_ms"], "q1": q1,
                             "q3": q3, "samples": n},
              "request_p90_ms_is_percentile": pct,
              "scale": {"median": statistics.median(factors), "min": min(factors),
                        "max": max(factors), "reference_ms": REFERENCE_MS},
              "setup_s_samples": setup_samples}
    print(f"{n} requests, {passes} passes; request_p90_ms is p{pct}; "
          f"failed_ratio {failed_ratio:.4f}"
          + "".join(f"; {k} x{v}" for k, v in failures.items()))
    return {"metrics": metrics, "units": END_TO_END_UNITS, "failures": failures,
            "attempted": n, "failed": failed, "detail": detail}


def import_ms() -> float:
    """Fresh `import k3lattices.cli` minus a bare interpreter start, in ms."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    bare, loaded = [], []
    for _ in range(IMPORT_PROBES):
        for code, out in (("pass", bare), ("import k3lattices.cli", loaded)):
            start = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                           check=True)
            out.append(time.perf_counter() - start)
    return (statistics.median(loaded) - statistics.median(bare)) * 1000


def traced_run(workload_cls, args, workdir: Path) -> dict:
    workload = workload_cls(args.seed, workdir)
    runner = workload.execute if workload.in_process else workload.execute_in_process
    reqs = workload.trace_list()
    warm = workload.warmup()
    execute(workload, warm, workload.prepare(warm), runner)
    # each request runs plain and traced back to back, in alternating order,
    # so the overhead ratio compares runs made under the same load
    failures = Counter()
    walls = [0.0, 0.0]
    tracer = Tracer()
    for number, req in enumerate(reqs):
        prepared = workload.prepare(req)
        tracer.request = number
        for traced in (False, True) if number % 2 else (True, False):
            if traced:
                tracer.install()
            try:
                seconds, outcome = execute(workload, req, prepared, runner)
            finally:
                tracer.restore()
            walls[traced] += seconds
            problem = judge(workload, req, outcome)
            if problem and traced:
                failures[f"{req.family}: {problem}"] += 1
    metrics = tracer.metrics()
    metrics["cli.import_ms"] = import_ms()
    metrics["trace.overhead_ratio"] = walls[1] / walls[0] - 1
    units = {name: unit(name) for name in metric_names()}
    families = sorted({r.family for r in reqs})
    by_family = {f: tracer.layer_self_ms({i for i, r in enumerate(reqs) if r.family == f})
                 for f in families}
    detail = {"requests": len(reqs), "traced_wall_ms": walls[1] * 1000,
              "untraced_wall_ms": walls[0] * 1000,
              "layer_self_ms_by_family": by_family}
    tracer.write(RESULTS / "spans" / f"{args.workload}-seed{args.seed}.jsonl")
    layers = {k: v for k, v in metrics.items() if k.count(".") == 1 and k.endswith("self_ms")}
    print(f"traced wall {walls[1] * 1000:.1f} ms over {len(reqs)} requests; "
          f"layer self times sum to {sum(layers.values()):.1f} ms")
    return {"metrics": {k: metrics[k] for k in metric_names()}, "units": units,
            "failures": failures, "attempted": len(reqs),
            "failed": sum(failures.values()), "detail": detail}


def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, timeout=30,
                             capture_output=True, text=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out or "unknown"


def source_digest() -> str:
    """sha256 over the package sources, which identifies the code without git."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "k3lattices").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def record(args, result: dict) -> None:
    RESULTS.mkdir(exist_ok=True)
    entry = {
        "time": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "machine": f"{platform.machine()} {os.cpu_count()} cpus",
        "git_sha": git_sha(), "source_sha256": source_digest(),
        "metrics": {k: {"value": v, "unit": result["units"][k]}
                    for k, v in result["metrics"].items()},
        "failures": dict(result["failures"]), **result["detail"],
    }
    with (RESULTS / "runs.jsonl").open("a") as f:
        f.write(json.dumps(entry, sort_keys=True) + "\n")


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "k3lattices" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'k3lattices'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workdir = HERE / ".work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        if args.setup_probe:
            setup(WORKLOADS[args.workload], args.seed, workdir)
            return 0
        run = traced_run if args.trace else untraced_run
        result = run(WORKLOADS[args.workload], args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    record(args, result)
    wrong = any(not crashed(reason.split(": ", 1)[1]) for reason in result["failures"])
    print(json.dumps({"correct": not wrong, "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": {k: {"value": v, "unit": result["units"][k]}
                                  for k, v in result["metrics"].items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
