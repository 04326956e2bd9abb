"""Sublattices of a fixed ambient lattice and finite-index glue.

Each Sublattice keeps the one Smith form of its generator matrix;
primitivity and the glue of a primitive corank-1 sublattice are both
read off it.  Also covers orthogonal complements and the enumeration of
even overlattices obtained by adjoining a single glue vector.
"""

from __future__ import annotations

from functools import cached_property
from itertools import product
from math import gcd, prod

from ._record import Record, set_field
from .intmat import IntMatrix, _hermite_rows, integer_kernel, mat_vec, smith_normal_form
from .lattices import Lattice, discriminant_group


class Sublattice(Record):
    """Generators of a finite-rank subgroup, as columns in ambient coordinates."""

    __slots__ = ("ambient", "coords", "__dict__")

    def __init__(self, ambient: Lattice, coords: IntMatrix) -> None:
        set_field(self, "ambient", ambient)
        set_field(self, "coords", coords)
        if coords.rows != ambient.rank:
            raise ValueError("coordinate rows must match the ambient rank")
        if sum(1 for x in self.smith[0] if x != 0) != coords.cols:
            raise ValueError("generator columns must be independent")

    @cached_property
    def smith(self) -> tuple[tuple[int, ...], IntMatrix, IntMatrix]:
        """(d, left, right) with left @ coords @ right == diag(d)."""
        return smith_normal_form(self.coords)

    @property
    def rank(self) -> int:
        return self.coords.cols

    def induced_gram(self) -> IntMatrix:
        return self.coords.transpose() @ self.ambient.gram @ self.coords

    def generator(self, j: int) -> tuple[int, ...]:
        return self.coords.col(j)


def orthogonal_complement(s: Sublattice) -> Sublattice:
    """Saturated sublattice of everything orthogonal to s."""
    if s.ambient.det == 0:
        raise ValueError("complement needs a nondegenerate ambient lattice")
    system = s.coords.transpose() @ s.ambient.gram
    kernel = integer_kernel(system)
    return Sublattice(s.ambient, kernel)


def is_primitive(s: Sublattice) -> bool:
    """Whether s is saturated in its ambient lattice."""
    # the columns are independent, so s is saturated iff every invariant factor is 1
    return all(x == 1 for x in s.smith[0])


class GlueSolution(Record):
    """Glue data of a primitive corank-1 sublattice delta.

    n is the index of (delta + complement) in the ambient lattice; H
    generates the complement; h generates the quotient and satisfies
    n*h = H + sum(a[i] * C[i]) with 0 <= a[i] < n.  All vectors are in
    ambient coordinates.
    """

    __slots__ = ("n", "H", "h", "a")

    def __init__(self, n: int, H: tuple[int, ...], h: tuple[int, ...],
                 a: tuple[int, ...]) -> None:
        set_field(self, "n", n)
        set_field(self, "H", H)
        set_field(self, "h", h)
        set_field(self, "a", a)


def solve_glue(delta: Sublattice,
               positive_against: tuple[int, ...] | None = None) -> GlueSolution:
    """Glue solver for a primitive corank-1 sublattice of its ambient lattice.

    The complement generator H is sign-normalized to pair positively with
    positive_against when given, otherwise to a positive first nonzero
    coordinate.  The quotient generator h is normalized so its
    H-coefficient is exactly 1/n, which pins the residues a[i].
    """
    ambient = delta.ambient
    if delta.rank != ambient.rank - 1:
        raise ValueError("delta must have corank 1")
    if not is_primitive(delta):
        raise ValueError("delta must be primitive in the ambient lattice")

    comp = orthogonal_complement(delta)
    if comp.rank != 1:
        raise ValueError("complement is not of rank 1")
    H = list(comp.generator(0))
    if positive_against is not None:
        sign = ambient.pairing(H, positive_against)
    else:
        sign = next((x for x in H if x), 0)
    if sign == 0:
        raise ValueError("cannot orient H")
    if sign < 0:
        H = [-x for x in H]

    # left @ C @ right == diag(1, ..., 1) over a zero last row, so the last
    # row l of left kills exactly delta and maps ambient/delta onto Z;
    # n*h = H + C @ a is integral iff right^-1 @ a == -(left @ H)[:k] mod n
    _, left, right = delta.smith
    k = delta.rank
    y = mat_vec(left, H)
    n = abs(y[k])
    if n == 0:
        raise ValueError("delta + ZH does not have full rank")
    a = tuple([-x % n for x in mat_vec(right, y[:k])])
    numerator = [x + c for x, c in zip(H, mat_vec(delta.coords, a))]
    if any(x % n for x in numerator):
        raise AssertionError("glue vector is not integral")
    h = tuple([x // n for x in numerator])

    # delta together with h must already generate the whole ambient lattice
    if abs(mat_vec(left, h)[k]) != 1:
        raise AssertionError("delta + Zh does not span the ambient lattice")

    return GlueSolution(n, tuple(H), h, a)


class Overlattice(Record):
    """A finite-index even overlattice, with the adjoined glue vector.

    The adjoined vector is glue / scale, with glue an integer vector in the
    coordinates of the base lattice.  gram is the (integer, even) Gram
    matrix of the overlattice basis, which _adjoin(m, glue, scale) gives
    times scale.
    """

    __slots__ = ("glue", "scale", "gram", "index")

    def __init__(self, glue: tuple[int, ...], scale: int, gram: IntMatrix,
                 index: int) -> None:
        set_field(self, "glue", glue)
        set_field(self, "scale", scale)
        set_field(self, "gram", gram)
        set_field(self, "index", index)


def enumerate_even_overlattices(m: Lattice, index: int) -> list[Overlattice]:
    """Even overlattices N of m with cyclic quotient N/m of the given order.

    Walks the elements c of the discriminant group with index * c = 0, in
    sorted coefficient order, for those of the given order with q = 0
    mod 2, testing both on coefficient tuples; the first such element of
    each cyclic subgroup is its glue vector, one overlattice per subgroup.
    At most 2048 elements are walked.  Each overlattice Gram is the
    integer product of the scaled Hermite basis with m's Gram, divided
    exactly by the square of the scale.
    """
    if index < 1:
        raise ValueError("index must be positive")
    if not m.is_even or m.det == 0:
        raise ValueError("overlattice search needs a nondegenerate even lattice")
    group = discriminant_group(m)
    factors = group.invariant_factors
    # c_i * index = 0 mod d_i exactly for the multiples of d_i / gcd(d_i, index)
    if prod(gcd(d, index) for d in factors) > 2048:
        raise ValueError("more than 2048 elements of the discriminant group to search")

    seen = set()
    results = []
    for coeffs in product(*(range(0, d, d // gcd(d, index)) for d in factors)):
        if coeffs in seen or group.order_of(coeffs) != index or group.q(coeffs) != 0:
            continue
        seen.update(tuple([k * c % d for c, d in zip(coeffs, factors)])
                    for k in range(index))
        glue, q = group.vector(coeffs)
        scaled = _adjoin(m, glue, q)
        form = scaled @ m.gram @ scaled.transpose()
        if any(x % (q * q) for row in form.entries for x in row):
            raise AssertionError("overlattice Gram is not integral")
        gram = IntMatrix.from_rows(
            [[x // (q * q) for x in row] for row in form.entries], cols=m.rank)
        for i in range(m.rank):
            if gram[i, i] % 2:
                raise AssertionError("overlattice is not even")
        over = Lattice(gram)
        if abs(m.det) != index * index * abs(over.det):
            raise AssertionError("determinant identity fails")
        results.append(Overlattice(glue, q, gram, index))
    return results


def _adjoin(m: Lattice, glue: tuple[int, ...], q: int) -> IntMatrix:
    """Basis of m + Z*(glue/q) in m's coordinates, as q times the basis rows.

    The rows come from the Hermite form of q times the identity stacked on
    glue; its transform is never read, so none is carried.
    """
    rows = [[q if i == j else 0 for j in range(m.rank)] for i in range(m.rank)]
    rows.append(list(glue))
    _hermite_rows(rows, m.rank)
    return IntMatrix.from_rows(rows[:m.rank], cols=m.rank)
