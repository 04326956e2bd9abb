"""Even lattices presented by integer Gram matrices.

Root lattices follow the (-2)-curve convention: A(n), D(n) and E(n) are
negative definite, with -2 on the diagonal and +1 for Dynkin adjacency.
U is the hyperbolic plane [[0,1],[1,0]], U(m) multiplies its form by m,
K7 is the rank-2 lattice [[-4,1],[1,-2]], and Z(k) is rank 1 with Gram
[k].  Signatures, determinants and discriminant forms are all computed
with exact arithmetic.
"""

from __future__ import annotations

import json
import math
import re
import sys
from fractions import Fraction
from functools import cached_property
from operator import mul
from typing import Sequence

from ._record import Record, set_field
from .intmat import IntMatrix, _hermite_rows, det_exact, mat_vec, smith_normal_form

MAX_RANK = 26
"""Largest rank make_named and lattice_from_json build.  discriminant_group
runs its Smith form on the Hermite form of the Gram, whose entries the
determinant bounds: on a shared 2-vCPU VM (CPython 3.11), lattice-info on
rank-26 random even Gram files takes 0.10 s at 4-bit entries, 0.11 s at
8-bit, 0.12 s at 16-bit and 0.19 s at 64-bit, interpreter start included."""


class Signature(Record):
    __slots__ = ("positive", "negative", "zero")

    def __init__(self, positive: int, negative: int, zero: int) -> None:
        set_field(self, "positive", positive)
        set_field(self, "negative", negative)
        set_field(self, "zero", zero)


class Lattice(Record):
    """Free Z-module with a symmetric integer bilinear form."""

    __slots__ = ("gram", "label", "__dict__")

    def __init__(self, gram: IntMatrix, label: str = "") -> None:
        set_field(self, "gram", gram)
        set_field(self, "label", label)
        if gram.rows != gram.cols:
            raise ValueError("Gram matrix must be square")
        if gram != gram.transpose():
            raise ValueError("Gram matrix must be symmetric")

    @property
    def rank(self) -> int:
        return self.gram.rows

    @cached_property
    def det(self) -> int:
        return det_exact(self.gram)

    @cached_property
    def is_even(self) -> bool:
        return all(self.gram[i, i] % 2 == 0 for i in range(self.rank))

    def pairing(self, v: Sequence[int], w: Sequence[int]) -> int:
        """Bilinear form on integer coordinate vectors."""
        if len(v) != self.rank or len(w) != self.rank:
            raise ValueError("vector length does not match the rank")
        return sum(map(mul, v, mat_vec(self.gram, w)))


class DiscriminantGroup(Record):
    """Dual quotient of a nondegenerate lattice, with its bilinear form.

    Elements are coefficient tuples c against the generators; the i-th
    generator is column i of the integer matrix numerators divided by
    invariant_factors[i], its order.  exponent is the lcm of the invariant
    factors (1 for the trivial group), and gram is the integer matrix
    exponent * b(g_i, g_j), so the forms on coefficient tuples need only
    integer arithmetic: q(c) is the discriminant quadratic form
    c^T gram c / exponent reduced into [0, 2), order_of(c) is the least
    k >= 1 with k*c = 0, and vector(c) is sum c_i g_i as an integer vector
    over its least denominator.  qvalues[i] is q on the i-th generator.
    """

    __slots__ = ("invariant_factors", "numerators", "gram")

    def __init__(self, invariant_factors: tuple[int, ...], numerators: IntMatrix,
                 gram: IntMatrix) -> None:
        set_field(self, "invariant_factors", invariant_factors)
        set_field(self, "numerators", numerators)
        set_field(self, "gram", gram)

    @property
    def order(self) -> int:
        return math.prod(self.invariant_factors)

    @property
    def exponent(self) -> int:
        return math.lcm(*self.invariant_factors)

    @property
    def qvalues(self) -> tuple[Fraction, ...]:
        e = self.exponent
        return tuple([Fraction(self.gram[i, i] % (2 * e), e)
                      for i in range(len(self.invariant_factors))])

    def q(self, coeffs: Sequence[int]) -> Fraction:
        e = self.exponent
        value = sum(c * x for c, x in zip(coeffs, mat_vec(self.gram, coeffs)))
        return Fraction(value % (2 * e), e)

    def order_of(self, coeffs: Sequence[int]) -> int:
        return math.lcm(*(d // math.gcd(c, d)
                          for c, d in zip(coeffs, self.invariant_factors)))

    def vector(self, coeffs: Sequence[int]) -> tuple[tuple[int, ...], int]:
        """(v, q) with q > 0 least such that v = q * sum c_i g_i is integral."""
        e = self.exponent
        v = mat_vec(self.numerators,
                    [c * (e // d) for c, d in zip(coeffs, self.invariant_factors)])
        g = math.gcd(e, *v)
        return tuple([x // g for x in v]), e // g


_NAME_RE = re.compile(r"([ADEUZK])(?:\((-?[0-9]+)\)|(-?[0-9]+))?")


def make_named(name: str) -> Lattice:
    """Build a lattice from its conventional name, or the direct sum of
    several joined by "+", as in "U + E8 + A6".

    Accepted: A(n) n>=1, D(n) n>=3, E(6|7|8), U, U(m) m!=0, K7,
    Z(k) k!=0.  Parentheses are optional but must pair: "A15" and
    "A(15)" agree.
    """
    parts = [p.strip() for p in name.split("+")]
    if not all(parts):
        raise ValueError(f"unknown lattice {name!r}")
    if len(parts) > 1:
        summands = [make_named(p) for p in parts]
        rank = sum(p.rank for p in summands)
        if rank > MAX_RANK:
            raise ValueError(f"total rank {rank} is above {MAX_RANK}")
        return direct_sum(*summands)
    name = parts[0]
    m = _NAME_RE.fullmatch(name)
    if not m:
        raise ValueError(f"unrecognized lattice name {name!r}")
    family, arg = m.group(1), m.group(2) or m.group(3)
    n = _read_decimal(arg, f"the parameter of {family}") if arg is not None else None

    if family == "U":
        if n is None:
            return Lattice(IntMatrix.from_rows([[0, 1], [1, 0]]), "U")
        if n == 0:
            raise ValueError("U(m) requires m != 0")
        return Lattice(IntMatrix.from_rows([[0, n], [n, 0]]), f"U({n})")
    if family == "K":
        if n != 7:
            raise ValueError("only K7 is defined")
        return Lattice(IntMatrix.from_rows([[-4, 1], [1, -2]]), "K7")
    if family == "Z":
        if n is None or n == 0:
            raise ValueError("Z(k) requires k != 0")
        return Lattice(IntMatrix.from_rows([[n]]), f"Z({n})")

    if n is None:
        raise ValueError(f"{family} needs a rank parameter")
    if n > MAX_RANK:
        raise ValueError(f"rank {n} is above {MAX_RANK}")
    if family == "A":
        if n < 1:
            raise ValueError("A(n) requires n >= 1")
        edges = [(i, i + 1) for i in range(n - 1)]
    elif family == "D":
        if n < 3:
            raise ValueError("D(n) requires n >= 3")
        edges = [(i, i + 1) for i in range(n - 2)] + [(n - 3, n - 1)]
    else:
        if n not in (6, 7, 8):
            raise ValueError("E(n) requires n in {6, 7, 8}")
        edges = [(i, i + 1) for i in range(n - 2)] + [(n - 4, n - 1)]

    g = [[-2 if i == j else 0 for j in range(n)] for i in range(n)]
    for i, j in edges:
        g[i][j] = g[j][i] = 1
    return Lattice(IntMatrix.from_rows(g), f"{family}{n}")


def direct_sum(*parts: Lattice) -> Lattice:
    """Orthogonal direct sum; Gram matrices on the block diagonal."""
    rank = sum(p.rank for p in parts)
    rows = [[0] * rank for _ in range(rank)]
    offset = 0
    for p in parts:
        for i in range(p.rank):
            for j in range(p.rank):
                rows[offset + i][offset + j] = p.gram[i, j]
        offset += p.rank
    label = " + ".join(p.label for p in parts if p.rank) or "0"
    return Lattice(IntMatrix.from_rows(rows, cols=rank), label)


def signature(l: Lattice) -> Signature:
    """Sylvester signature by fraction-free symmetric Bareiss elimination.

    After each pivot the trailing entries are minors of a matrix congruent
    to the Gram, so dividing by the previous pivot is exact, and a pivot
    counts as positive when it has the sign of the previous one (Jacobi).
    """
    n = l.rank
    a = [list(row) for row in l.gram.entries]
    pos = neg = zero = 0
    prev = 1
    for i in range(n):
        if a[i][i] == 0:
            partner = next((j for j in range(i + 1, n) if a[i][j] != 0), None)
            if partner is None:
                zero += 1
                continue
            # a[i][i] becomes a[p][p] +- 2 a[i][p]; one sign is nonzero
            s = 1 if a[partner][partner] + 2 * a[i][partner] != 0 else -1
            for k in range(i, n):
                a[i][k] += s * a[partner][k]
            for k in range(i, n):
                a[k][i] += s * a[k][partner]
        pivot, row = a[i][i], a[i]
        if (pivot > 0) == (prev > 0):
            pos += 1
        else:
            neg += 1
        for j in range(i + 1, n):
            aj, c = a[j], a[j][i]
            for k in range(j, n):
                aj[k] = a[k][j] = (pivot * aj[k] - c * row[k]) // prev
        prev = pivot
    return Signature(pos, neg, zero)


def discriminant_group(l: Lattice) -> DiscriminantGroup:
    """Finite quotient (dual lattice)/(lattice) with its discriminant forms.

    The i-th generator is column i of the right Smith transform divided
    by the i-th invariant factor; only factors > 1 contribute.
    """
    if l.det == 0:
        raise ValueError("degenerate lattice has no discriminant group")
    # The Smith form runs on the Hermite form h = u @ gram (u unimodular,
    # never built), whose entries |det| bounds.  left @ h @ right = diag(d)
    # gives gram @ right = (left @ u)^-1 @ diag(d), so column j of it is a
    # multiple of d[j], b(g_i, g_j) has denominator dividing min(d_i, d_j)
    # and the divisions below are exact.
    rows = [list(row) for row in l.gram.entries]
    _hermite_rows(rows, l.rank)
    d, _left, right = smith_normal_form(IntMatrix.from_rows(rows, cols=l.rank))
    kept = [i for i, di in enumerate(d) if di != 1]
    factors = tuple([d[i] for i in kept])
    numerators = IntMatrix.from_rows([[row[i] for i in kept] for row in right.entries],
                                     cols=len(kept))
    inner = numerators.transpose() @ l.gram @ numerators
    e = math.lcm(*factors)
    gram = IntMatrix.from_rows(
        [[e * inner[i, j] // (di * dj) for j, dj in enumerate(factors)]
         for i, di in enumerate(factors)], cols=len(factors))
    group = DiscriminantGroup(factors, numerators, gram)
    if group.order != abs(l.det):
        raise AssertionError("group order disagrees with the determinant")
    return group


def _read_decimal(digits: str, field: str) -> int:
    """int() of an optionally signed string of ASCII digits, with CPython's
    limit on their number (sys.get_int_max_str_digits) reported as bad
    input that names the field."""
    try:
        return int(digits)
    except ValueError:
        raise ValueError(f"{field} has more than {sys.get_int_max_str_digits()} "
                         "digits") from None


def decode_json(text: str):
    """json.loads, with nesting too deep for the decoder reported as bad
    input (ValueError) like any other malformed JSON."""
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError("JSON nested too deeply") from None


def lattice_from_json(text: str) -> Lattice:
    data = decode_json(text)
    if not isinstance(data, dict) or "gram" not in data:
        raise ValueError("lattice JSON needs a 'gram' field")
    gram = data["gram"]
    if (not isinstance(gram, list)
            or not all(isinstance(r, list) and all(type(x) is int for x in r)
                       for r in gram)):
        raise ValueError("'gram' must be a list of integer rows")
    if len(gram) > MAX_RANK:
        raise ValueError(f"'gram' has more than {MAX_RANK} rows")
    label = data.get("label", "")
    if not isinstance(label, str):
        raise ValueError("label must be a string")
    return Lattice(IntMatrix.from_rows(gram, cols=len(gram)), label)
