"""The benchmark's own arithmetic for checking outputs of the package.

Nothing here imports k3lattices: every check recomputes what it needs
from plain integer lists, so a defect in the package cannot hide behind
the same defect in its checker.  Each check returns None when the output
is right and a short reason when it is not.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import prod


def matvec(a: list[list[int]], x: list[int]) -> list[int]:
    return [sum(p * q for p, q in zip(row, x)) for row in a]


def _probes(n: int) -> list[list[int]]:
    """Two fixed vectors of nonzero 32-bit entries for Freivalds' test."""
    rng = random.Random(n)
    return [[rng.randint(1, 2 ** 32) for _ in range(n)] for _ in range(2)]


def det(rows: list[list[int]]) -> int:
    """Determinant by Gaussian elimination over the rationals."""
    a = [[Fraction(x) for x in row] for row in rows]
    n = len(a)
    result = Fraction(1)
    for c in range(n):
        piv = next((i for i in range(c, n) if a[i][c] != 0), None)
        if piv is None:
            return 0
        if piv != c:
            a[c], a[piv] = a[piv], a[c]
            result = -result
        result *= a[c][c]
        for i in range(c + 1, n):
            f = a[i][c] / a[c][c]
            if f:
                a[i] = [x - f * y for x, y in zip(a[i], a[c])]
    return int(result)


# Mersenne primes for determinants taken modulo p
MERSENNE = (2 ** 61 - 1, 2 ** 89 - 1, 2 ** 127 - 1)


def det_mod(rows: list[list[int]], p: int) -> int:
    """Determinant modulo the prime p, by elimination over GF(p)."""
    a = [[x % p for x in row] for row in rows]
    n = len(a)
    result = 1
    for c in range(n):
        piv = next((i for i in range(c, n) if a[i][c]), None)
        if piv is None:
            return 0
        if piv != c:
            a[c], a[piv] = a[piv], a[c]
            result = -result
        result = result * a[c][c] % p
        inv = pow(a[c][c], -1, p)
        for i in range(c + 1, n):
            f = a[i][c] * inv % p
            if f:
                a[i] = [(x - f * y) % p for x, y in zip(a[i], a[c])]
    return result % p


def is_unimodular(rows: list[list[int]]) -> bool:
    """Square with determinant 1 or -1.

    The determinant is taken modulo three Mersenne primes: a matrix passes
    only if det - 1 or det + 1 is divisible by all three, which a scaled or
    otherwise wrong transform of this benchmark's sizes does not manage.
    """
    if any(len(row) != len(rows) for row in rows):
        return False
    residues = [det_mod(rows, p) for p in MERSENNE]
    return residues == [1] * 3 or residues == [p - 1 for p in MERSENNE]


def is_prime(n: int) -> bool:
    """Miller-Rabin with the first twelve prime bases, exact below 3.3e24."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if n < 2:
        return False
    for p in bases:
        if n % p == 0:
            return n == p
    d, r = n - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    for a in bases:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def hnf_problem(m: list[list[int]], h: list[list[int]], u: list[list[int]]) -> str | None:
    """u @ m == h with u unimodular, and h is in row-style Hermite normal form.

    The product is compared on probe vectors (Freivalds), which catches
    any wrong entry, so the check costs O(n^2) instead of O(n^3).
    """
    if len(u) != len(m) or not is_unimodular(u):
        return "HNF: u is not unimodular"
    if any(matvec(u, matvec(m, x)) != matvec(h, x) for x in _probes(len(h[0]))):
        return "HNF: u @ m != h"
    last_pivot = -1
    zero_seen = False
    for i, row in enumerate(h):
        c = next((j for j, x in enumerate(row) if x != 0), None)
        if c is None:
            zero_seen = True
            continue
        if zero_seen:
            return "HNF: nonzero row below a zero row"
        if c <= last_pivot:
            return "HNF: pivot columns do not increase"
        if row[c] <= 0:
            return "HNF: pivot is not positive"
        if any(not 0 <= h[k][c] < row[c] for k in range(i)):
            return "HNF: entry above a pivot is not reduced"
        last_pivot = c
    return None


def snf_problem(m: list[list[int]], d: list[int], left: list[list[int]],
                right: list[list[int]]) -> str | None:
    """left @ m @ right == diag(d) with left and right unimodular, d
    non-negative with d[i] | d[i+1].

    The product is compared on probe vectors, as in hnf_problem.
    """
    rows, cols = len(m), len(m[0])
    if len(d) != min(rows, cols):
        return "SNF: wrong number of invariant factors"
    if len(left) != rows or not is_unimodular(left):
        return "SNF: left is not unimodular"
    if len(right) != cols or not is_unimodular(right):
        return "SNF: right is not unimodular"
    for x in _probes(cols):
        want = [d[i] * x[i] if i < len(d) else 0 for i in range(rows)]
        if matvec(left, matvec(m, matvec(right, x))) != want:
            return "SNF: left @ m @ right != diag(d)"
    if any(x < 0 for x in d):
        return "SNF: negative invariant factor"
    for x, y in zip(d, d[1:]):
        if (x == 0 and y != 0) or (x != 0 and y % x):
            return "SNF: divisibility chain broken"
    return None


def normal_form_problem(m: list[list[int]], det_value: int | None,
                        hnf: tuple, snf: tuple) -> str | None:
    """All witness checks of one normal_forms request."""
    h, u = hnf
    d, left, right = snf
    problem = hnf_problem(m, h, u) or snf_problem(m, d, left, right)
    if problem is None and det_value is not None and prod(d) != abs(det_value):
        problem = "prod(d) != |det|"
    return problem


# --- lattices ---------------------------------------------------------------

def named_rank_det(name: str) -> tuple[int, int]:
    """(rank, det) of the named lattices the benchmark generates."""
    family, arg = name[0], name[1:].strip("()")
    if name == "U":
        return 2, -1
    if name == "K7":
        return 2, 7
    n = int(arg)
    if family == "U":
        return 2, -n * n
    if family == "Z":
        return 1, n
    if family == "A":
        return n, (-1) ** n * (n + 1)
    if family == "D":
        return n, (-1) ** n * 4
    if family == "E":
        return n, {6: 3, 7: -2, 8: 1}[n]
    raise ValueError(f"no reference for {name!r}")


def lattice_info_problem(data: dict, rank: int, det_value: int) -> str | None:
    """Invariants of one lattice-info --json report against known rank and det."""
    factors = [int(x) for x in data["discriminant_group"]["invariant_factors"]]
    pos, neg, zero = (int(x) for x in data["signature"])
    if int(data["rank"]) != rank or int(data["det"]) != det_value:
        return "lattice-info: rank or det differs from the reference"
    if prod(factors) != abs(det_value):
        return "lattice-info: prod(invariant_factors) != |det|"
    if pos + neg + zero != rank or zero != 0:
        return "lattice-info: signature does not sum to the rank"
    if (-1) ** neg != (1 if det_value > 0 else -1):
        return "lattice-info: (-1)^negative disagrees with the sign of det"
    if len(data["discriminant_group"]["qvalues"]) != len(factors):
        return "lattice-info: one q value per invariant factor expected"
    return None


# --- fibrations -------------------------------------------------------------

# (euler number, component count) per Kodaira type, for the types generated
KODAIRA = {"II": (2, 1), "III": (3, 2), "IV": (4, 3),
           "IV*": (8, 7), "III*": (9, 8), "II*": (10, 9)}


def kodaira(tag: str) -> tuple[int, int]:
    if tag in KODAIRA:
        return KODAIRA[tag]
    if tag.endswith("*"):
        n = int(tag[1:-1])
        return n + 6, n + 5
    n = int(tag[1:])
    return n, max(n, 1)


def fibration_problem(data: dict, expect: dict) -> str | None:
    """A fibration --json report against what the generator knows of it."""
    fibers = data["fibers"]
    euler = sum(int(f["euler"]) * int(f["count"]) for f in fibers)
    shifted = sum((int(f["components"]) - 1) * int(f["count"]) for f in fibers)
    if euler != int(data["euler_total"]):
        return "fibration: euler_total is not the sum over fibers"
    for f in fibers:
        if kodaira(f["type"]) != (int(f["euler"]), int(f["components"])):
            return f"fibration: wrong Euler number or components for {f['type']}"
    if euler != 24:
        return "fibration: Euler numbers do not sum to 24 on a K3 model"
    if int(data["ns_rank"]) - 2 - shifted != int(data["mw_rank"]):
        return "fibration: Shioda-Tate accounting is off"
    if "fibers" in expect:
        got = [(f["place"], f["type"], int(f["count"])) for f in fibers]
        if got != expect["fibers"]:
            return "fibration: fiber list differs from the known one"
    if "at_zero" in expect:
        at_zero = [f["type"] for f in fibers if f["place"] == "0"]
        if at_zero != [expect["at_zero"]]:
            return "fibration: wrong fiber type at t = 0"
    if "mw_rank" in expect and int(data["mw_rank"]) != expect["mw_rank"]:
        return "fibration: wrong Mordell-Weil rank"
    return None
