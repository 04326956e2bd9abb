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
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import product
from typing import Sequence

from .intmat import IntMatrix, RationalVector, det_exact, mat_vec, smith_normal_form


@dataclass(frozen=True)
class Signature:
    positive: int
    negative: int
    zero: int

    @property
    def rank(self) -> int:
        return self.positive + self.negative + self.zero


@dataclass(frozen=True)
class Lattice:
    """Free Z-module with a symmetric integer bilinear form."""

    gram: IntMatrix
    label: str = ""

    def __post_init__(self) -> None:
        if self.gram.rows != self.gram.cols:
            raise ValueError("Gram matrix must be square")
        if self.gram != self.gram.transpose():
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

    def pairing(self, v: Sequence[Fraction | int], w: Sequence[Fraction | int]) -> Fraction:
        """Bilinear form extended to rational coordinate vectors.

        Each vector is scaled to integers once, by the lcm of its
        denominators, so the sum runs over ints and one Fraction is built.
        """
        if len(v) != self.rank or len(w) != self.rank:
            raise ValueError("vector length does not match the rank")
        (iv, qv), (iw, qw) = clear_denominators(v), clear_denominators(w)
        return Fraction(sum(a * b for a, b in zip(iv, mat_vec(self.gram, iw))), qv * qw)


def clear_denominators(v: Sequence[Fraction | int]) -> tuple[list[int], int]:
    """(q*v, q) for the least positive q making q*v integral."""
    q = math.lcm(*(x.denominator for x in v))
    return [x.numerator * (q // x.denominator) for x in v], q


@dataclass(frozen=True)
class DiscriminantGroup:
    """Dual quotient of a nondegenerate lattice, with its bilinear form.

    Elements are coefficient tuples c against the generators, which are
    rational coordinate vectors in the lattice basis; the i-th generator
    has order invariant_factors[i].  exponent is the lcm of the invariant
    factors (1 for the trivial group), and gram is the integer matrix
    exponent * b(g_i, g_j), so the forms on coefficient tuples need only
    integer arithmetic: q(c) is the discriminant quadratic form
    c^T gram c / exponent reduced into [0, 2), order_of(c) is the least
    k >= 1 with k*c = 0, and vector(c) is sum c_i g_i as a rational
    coordinate vector.  qvalues[i] is q on the i-th generator.
    """

    invariant_factors: tuple[int, ...]
    generators: tuple[RationalVector, ...]
    gram: IntMatrix

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

    def elements(self):
        """All group elements as coefficient tuples against the generators."""
        return product(*(range(d) for d in self.invariant_factors))

    def q(self, coeffs: Sequence[int]) -> Fraction:
        e = self.exponent
        value = sum(c * x for c, x in zip(coeffs, mat_vec(self.gram, coeffs)))
        return Fraction(value % (2 * e), e)

    def order_of(self, coeffs: Sequence[int]) -> int:
        return math.lcm(*(d // math.gcd(c, d)
                          for c, d in zip(coeffs, self.invariant_factors)))

    def vector(self, coeffs: Sequence[int]) -> RationalVector:
        return tuple([sum(c * x for c, x in zip(coeffs, xs))
                      for xs in zip(*self.generators)])


_NAME_RE = re.compile(r"^([ADEUZK])\(?(-?\d+)?\)?$")


def make_named(name: str) -> Lattice:
    """Build a lattice from its conventional name, or the direct sum of
    several joined by "+", as in "U + E8 + A6".

    Accepted: A(n) n>=1, D(n) n>=3, E(6|7|8), U, U(m) m!=0, K7,
    Z(k) k!=0.  Parentheses are optional: "A15" and "A(15)" agree.
    """
    parts = [p.strip() for p in name.split("+")]
    if not all(parts):
        raise ValueError(f"unknown lattice {name!r}")
    if len(parts) > 1:
        return direct_sum(*[make_named(p) for p in parts])
    name = parts[0]
    m = _NAME_RE.match(name)
    if not m:
        raise ValueError(f"unrecognized lattice name {name!r}")
    family, arg = m.group(1), m.group(2)
    n = int(arg) if arg is not None else None

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


EMPTY = Lattice(IntMatrix.zeros(0, 0), "0")


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
    d, _left, right = smith_normal_form(l.gram)
    kept = [i for i, di in enumerate(d) if di != 1]
    factors = tuple([d[i] for i in kept])
    gens = tuple([tuple([Fraction(right[k, i], d[i]) for k in range(l.rank)])
                  for i in kept])
    # left @ gram @ right = diag(d) makes column j of gram @ right a multiple
    # of d[j], so b(g_i, g_j) has denominator dividing min(d_i, d_j) and
    # these divisions by d_i * d_j are exact
    cols = IntMatrix.from_rows([right.col(i) for i in kept], cols=l.rank)
    inner = cols @ l.gram @ cols.transpose()
    e = math.lcm(*factors)
    gram = IntMatrix.from_rows(
        [[e * inner[i, j] // (di * dj) for j, dj in enumerate(factors)]
         for i, di in enumerate(factors)], cols=len(factors))
    group = DiscriminantGroup(factors, gens, gram)
    if group.order != abs(l.det):
        raise AssertionError("group order disagrees with the determinant")
    return group


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
    n = len(gram)
    return Lattice(IntMatrix.from_rows(gram, cols=n), str(data.get("label", "")))
