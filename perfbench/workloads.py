"""Seeded inputs, request execution and per-request checks of each workload.

A workload yields an endless stream of requests from its seed.  Each
request is run by `execute`, the only part that is timed, and then
judged by `check`, which returns None for a correct request and a short
failure reason otherwise.  Package functions are looked up on their
module at call time, so the wrappers of a traced run see every call.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

import checks

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "verify_reference.json"


@dataclass
class Request:
    family: str
    payload: object
    expect: dict = field(default_factory=dict)


@dataclass
class Outcome:
    code: int | None = None
    out: str = ""
    err: str = ""
    value: object = None
    exception: str = ""


def _deck(rng: random.Random, quota: dict[str, int]) -> list[str]:
    """One shuffled block holding each family exactly its quota of times."""
    deck = [name for name, count in quota.items() for _ in range(count)]
    rng.shuffle(deck)
    return deck


def _stream(rng: random.Random, quota: dict[str, int], make) -> Iterator[Request]:
    while True:
        for family in _deck(rng, quota):
            yield make(rng, family)


# --- verify_cold ------------------------------------------------------------

def reference_checks(report: dict) -> list:
    """The parts of a verify-all report that must never change."""
    return [[c["id"], c["status"], c["values"]] for c in report["checks"]]


class VerifyCold:
    """`python -m k3lattices.cli verify-all --json` in a fresh interpreter."""

    name = "verify_cold"
    in_process = False
    pool = 3

    def __init__(self, seed: int, workdir: Path) -> None:
        self.reference = json.loads(REFERENCE.read_text())
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))

    def requests(self):
        while True:
            yield Request("verify-all", None)

    def warmup(self) -> Request:
        return Request("verify-all", None)

    def trace_list(self) -> list[Request]:
        return [Request("verify-all", None) for _ in range(3)]

    def prepare(self, req: Request) -> None:
        return None

    def execute(self, req: Request, prepared: None) -> Outcome:
        proc = subprocess.run(
            [sys.executable, "-m", "k3lattices.cli", "verify-all", "--json"],
            cwd=ROOT, env=self.env, capture_output=True, text=True, timeout=120)
        return Outcome(proc.returncode, proc.stdout, proc.stderr)

    def execute_in_process(self, req: Request, prepared: None) -> Outcome:
        """The same request in this process, for the traced run."""
        clear_fixture_caches()
        return run_cli(["verify-all", "--json"])

    def check(self, req: Request, outcome: Outcome) -> str | None:
        problem = crash(outcome)
        if problem:
            return problem
        try:
            report = json.loads(outcome.out)
        except json.JSONDecodeError:
            return f"unparseable output, exit code {outcome.code}"
        if report.get("passed") is not True:
            return "verify-all did not pass"
        if outcome.code != 0:
            return f"exit code {outcome.code}, expected 0"
        if reference_checks(report) != self.reference:
            return "check values differ from the stored reference"
        return None


def crash(outcome: Outcome) -> str | None:
    """A traceback or an exit code outside the contract's 0, 1 and 2."""
    if "Traceback" in outcome.err:
        return "traceback"
    if outcome.code not in (0, 1, 2):
        return f"crashed with exit code {outcome.code}"
    return None


def clear_fixture_caches() -> None:
    """Forget the built-in scenarios, as a fresh interpreter would."""
    fixtures = importlib.import_module("k3lattices.fixtures")
    for value in vars(fixtures).values():
        if callable(getattr(value, "cache_clear", None)):
            value.cache_clear()


def run_cli(argv: list[str]) -> Outcome:
    """k3lattices.cli.main(argv) with stdout and stderr captured."""
    cli = importlib.import_module("k3lattices.cli")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return Outcome(code, out.getvalue(), err.getvalue())


# --- normal_forms -----------------------------------------------------------

# (rows, cols) per family; the corank-1 shapes are those of chain sublattices
SHAPES = {"square16": (16, 16), "square22": (22, 22), "square26": (26, 26),
          "corank16": (16, 15), "corank22": (22, 21)}
# The timed mix holds the shapes the package works at: the rank-16
# Neron-Severi lattice and its 16x15 chain sublattices.  Ranks 22 and 26
# vary 10- to 50-fold in cost between matrices of one seed, more than a
# run has requests to average over, so they run in the traced list only.
NORMAL_FORM_QUOTA = {"square16": 1, "corank16": 1}
STRESS = {"square22": 4, "corank22": 4, "square26": 2}


def random_matrix(rng: random.Random, rows: int, cols: int) -> list[list[int]]:
    return [rng.choices(range(-9, 10), k=cols) for _ in range(rows)]


class NormalForms:
    """det_exact, hermite_normal_form and smith_normal_form on one matrix."""

    name = "normal_forms"
    in_process = True
    pool = 800

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.intmat = importlib.import_module("k3lattices.intmat")

    def requests(self):
        return _stream(random.Random(self.seed), NORMAL_FORM_QUOTA, self.make)

    def make(self, rng: random.Random, family: str) -> Request:
        return Request(family, random_matrix(rng, *SHAPES[family]))

    def trace_list(self) -> list[Request]:
        stream = self.requests()
        stress = random.Random(-self.seed)
        return [next(stream) for _ in range(10)] + \
            [self.make(stress, f) for f, count in STRESS.items() for _ in range(count)]

    def warmup(self) -> Request:
        return Request("square16", random_matrix(random.Random(-1), 16, 16))

    def prepare(self, req: Request):
        return self.intmat.IntMatrix.from_rows(req.payload)

    def execute(self, req: Request, m) -> Outcome:
        intmat = self.intmat
        det_value = intmat.det_exact(m) if m.rows == m.cols else None
        return Outcome(value=(det_value, intmat.hermite_normal_form(m),
                              intmat.smith_normal_form(m)))

    def check(self, req: Request, outcome: Outcome) -> str | None:
        det_value, (h, u), (d, left, right) = outcome.value
        return checks.normal_form_problem(
            req.payload, det_value, (h.to_lists(), u.to_lists()),
            (list(d), left.to_lists(), right.to_lists()))


# --- cli_mix ----------------------------------------------------------------

# Requests per shuffled block of 40.  Generated Weierstrass models, generic
# and with an additive fiber at t = 0, are the main family; the built-in
# models are a minority, and the tail family is 1 request in 10.
CLI_QUOTA = {"generic": 16, "additive": 8, "tail": 4, "i7e8": 1, "e7e6": 1,
             "named": 2, "gram": 2, "fibration_json": 2, "bad_name": 1,
             "ragged": 1, "one_over_zero": 1, "euler_flag": 1}

# The degrees and end coefficients of a generated Weierstrass model fix the
# end coefficients of its discriminant, whose divisors are the rational-root
# candidates the package tries, and with them most of the model's cost:
# 10 ms to seconds.  A pool holds about 100 such models, too few for their
# median to agree from seed to seed, so these shape features come from
# streams that every seed shares, and the seed draws every other coefficient.
SHAPE_STREAMS = {"generic": 1, "additive": 2}
NONZERO = [x for x in range(-99, 100) if x]

BUILTIN_FIBERS = {
    "i7e8": ([("0", "I7", 1), ("t^7 - 2", "I1", 7), ("inf", "II*", 1)], 0),
    "e7e6": ([("0", "III*", 1), ("27*t^7 + 4", "I1", 7), ("inf", "IV*", 1)], 1),
}

# (power of t dividing a4, power dividing a6) giving each additive type at 0
ADDITIVE = {"II": (1, 1), "III": (1, 2), "IV": (2, 2), "I0*": (2, 3),
            "IV*": (3, 4), "III*": (3, 5), "II*": (4, 5)}

NAMED_PARTS = ["U", "U(2)", "U(3)", "U(7)", "E8", "E7", "E6", "K7",
               "Z(-2)", "Z(2)", "Z(4)", "Z(112)"] + \
              [f"A{n}" for n in range(1, 16)] + [f"D{n}" for n in range(4, 13)]

# Kodaira types drawn for the generated fibration files
FILE_TYPES = ["I2", "I3", "I4", "I5", "I7", "I9", "I0*", "I1*", "I3*",
              "II", "III", "IV", "IV*", "III*", "II*"]


def _coeffs(rng: random.Random, degree: int, bound: int) -> list[int]:
    """Coefficients, constant first, of a polynomial of exactly this degree."""
    c = [rng.randint(-bound, bound) for _ in range(degree + 1)]
    while c[-1] == 0:
        c[-1] = rng.randint(-bound, bound)
    return c


def _shape_ends(shape: random.Random, c: list[int], low: int = 0) -> list[int]:
    """c with its coefficient at t^low and its leading one drawn from shape."""
    c[low] = shape.choice(NONZERO)
    c[-1] = shape.choice(NONZERO)
    return c


class CliMix:
    """A seeded mix of lattice-info and fibration requests through cli.main."""

    name = "cli_mix"
    in_process = True
    pool = 160

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir
        self.files = 0
        self.shapes = {f: random.Random(n) for f, n in SHAPE_STREAMS.items()}
        importlib.import_module("k3lattices.cli")

    def _file(self, data) -> str:
        self.files += 1
        path = self.workdir / f"input{self.files}.json"
        path.write_text(json.dumps(data))
        return str(path)

    def requests(self):
        self.shapes = {f: random.Random(n) for f, n in SHAPE_STREAMS.items()}
        return _stream(random.Random(self.seed), CLI_QUOTA, self.make)

    def trace_list(self) -> list[Request]:
        stream = self.requests()
        return [next(stream) for _ in range(sum(CLI_QUOTA.values()))]

    def warmup(self) -> Request:
        return self.make(random.Random(0), "e7e6")

    def make(self, rng: random.Random, family: str) -> Request:
        if family == "named":
            parts, rank, det = [], 0, 1
            while not parts or (rank < 22 and rng.random() < 0.7):
                name = rng.choice(NAMED_PARTS)
                r, d = checks.named_rank_det(name)
                if rank + r > 22:
                    break
                parts.append(name)
                rank, det = rank + r, det * d
            return Request(family, ["lattice-info", " + ".join(parts), "--json"],
                           {"rank": rank, "det": det})
        if family == "gram":
            n = rng.randint(4, 12)
            det = 0
            while det == 0:
                g = [[0] * n for _ in range(n)]
                for i in range(n):
                    g[i][i] = 2 * rng.randint(-4, 4)
                    for j in range(i):
                        g[i][j] = g[j][i] = rng.randint(-3, 3)
                det = checks.det(g)
            path = self._file({"label": "generated", "gram": g})
            return Request(family, ["lattice-info", path, "--json"],
                           {"rank": n, "det": det})
        if family in BUILTIN_FIBERS:
            fibers, mw = BUILTIN_FIBERS[family]
            return Request(family, ["fibration", family, "--json"],
                           {"fibers": fibers, "mw_rank": mw})
        if family == "generic":
            shape = self.shapes[family]
            deg4 = shape.randint(0, 8)
            deg6 = shape.randint(7 if deg4 < 5 else 0, 12)
            path = self._file({"a4": _shape_ends(shape, _coeffs(rng, deg4, 99)),
                               "a6": _shape_ends(shape, _coeffs(rng, deg6, 99))})
            return Request(family, ["fibration", path, "--json"])
        if family == "additive":
            shape = self.shapes[family]
            tag = shape.choice(sorted(ADDITIVE))
            k4, k6 = ADDITIVE[tag]
            a4 = _shape_ends(shape, [0] * k4 + _coeffs(rng, shape.randint(0, 8 - k4), 99), k4)
            a6 = _shape_ends(shape, [0] * k6 + _coeffs(rng, 12 - k6, 99), k6)
            if tag == "I0*":  # 4*a4(0)^3 + 27*a6(0)^2 must not vanish at t = 0
                a6[k6] += 1 if 4 * a4[k4] ** 3 + 27 * a6[k6] ** 2 == 0 else 0
            path = self._file({"a4": a4, "a6": a6})
            return Request(family, ["fibration", path, "--json"], {"at_zero": tag})
        if family == "fibration_json":
            fibers, path = self._fibration_file(rng, euler_target=24)
            return Request(family, ["fibration", path, "--json"],
                           {"fibers": fibers})
        if family == "tail":
            # 5-digit a4 coefficients at both ends put 14 digits into the first
            # and last coefficient of the discriminant; both are kept prime so
            # the rational-root search spends its time dividing them out, and
            # the narrow range keeps that time within a few percent
            a4 = [rng.randint(-9, 9) for _ in range(9)]
            a6 = _coeffs(rng, 12, 9)
            for i4, i6 in ((0, 0), (8, 12)):
                while True:
                    a4[i4] = rng.choice((1, -1)) * rng.randint(10000, 10300)
                    a6[i6] = rng.choice((1, -1)) * rng.randint(1, 99)
                    if checks.is_prime(abs(4 * a4[i4] ** 3 + 27 * a6[i6] ** 2)):
                        break
            path = self._file({"a4": a4, "a6": a6})
            return Request(family, ["fibration", path, "--json"])
        if family == "bad_name":
            name = rng.choice(["Q5", "A0", "E9", "U(0)", "D2", "K5", "A15 + "])
            return Request(family, ["lattice-info", name, "--json"], {"code": 2})
        if family == "ragged":
            n = rng.randint(2, 6)
            rows = [[2] * n for _ in range(n)]
            rows[rng.randrange(n)].pop()
            path = self._file({"gram": rows})
            return Request(family, ["lattice-info", path, "--json"], {"code": 2})
        if family == "one_over_zero":
            a4 = [rng.randint(-99, 99) for _ in range(rng.randint(0, 3))]
            a6 = [str(rng.randint(-99, 99)) for _ in range(rng.randint(0, 4))]
            a6.insert(rng.randint(0, len(a6)), "1/0")
            path = self._file({"a4": a4, "a6": a6})
            return Request(family, ["fibration", path, "--json"], {"code": 2})
        if family == "euler_flag":
            target = rng.choice([12, 18, 22, 23, 25, 26, 30])
            fibers, path = self._fibration_file(rng, euler_target=target)
            return Request(family, ["fibration", path, "--json"],
                           {"code": 1, "euler": target})
        raise ValueError(family)

    def _fibration_file(self, rng: random.Random, euler_target: int):
        places = iter(["0", "inf", "1", "-1", "2", "1/2"])
        fibers, euler, shifted = [], 0, 0
        for _ in range(rng.randint(1, 3)):
            tag = rng.choice(FILE_TYPES)
            e, c = checks.kodaira(tag)
            if euler + e <= min(euler_target, 24) - 1 and shifted + c - 1 <= 18:
                fibers.append((next(places), tag, 1))
                euler, shifted = euler + e, shifted + c - 1
        fibers.append(("t^8 + 3", "I1", euler_target - euler))
        data = {"fibers": [{"place": p, "type": t, "count": n} for p, t, n in fibers],
                "mw_rank": rng.randint(0, 18 - shifted)}
        return fibers, self._file(data)

    def prepare(self, req: Request):
        return req.payload

    def execute(self, req: Request, argv) -> Outcome:
        return run_cli(argv)

    def check(self, req: Request, outcome: Outcome) -> str | None:
        problem = crash(outcome)
        if problem:
            return problem
        code, want = outcome.code, req.expect.get("code", 0)
        if 2 in (code, want):
            if code != want:
                return f"exit code {code}, expected {want}"
            return None if outcome.err.startswith("error: ") else "no error message"
        try:
            data = json.loads(outcome.out)
        except json.JSONDecodeError:
            return f"unparseable output, exit code {code}"
        if want == 1:
            if data != {"euler_total": str(req.expect["euler"]), "consistent": False}:
                return "wrong Euler flag report"
        elif req.payload[0] == "lattice-info":
            problem = checks.lattice_info_problem(data, req.expect["rank"],
                                                  req.expect["det"])
        else:
            problem = checks.fibration_problem(data, req.expect)
        # exit code 1 with a report that passes the checks is still wrong
        return problem or (None if code == want else f"exit code {code}, expected {want}")


WORKLOADS = {w.name: w for w in (VerifyCold, NormalForms, CliMix)}
