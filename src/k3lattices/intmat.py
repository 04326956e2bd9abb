"""Exact linear algebra over the integers and rationals.

Everything here works with arbitrary-precision Python ints and
fractions.Fraction; there is no floating point anywhere.  Matrices are
immutable.  The normal-form routines return the transformation matrices
as witnesses so callers can verify the factorizations directly.

The Hermite form h and the Smith diagonal d are canonical.  The Hermite
transform u is unique only when the input is square and nonsingular;
otherwise it is one witness among many.  The Smith transforms left and
right are pinned entry for entry by the sequence of operations, since the
discriminant-group generators are read off right.
"""

from __future__ import annotations

from fractions import Fraction
from operator import mul
from typing import Iterable, Sequence

from ._record import Record, set_field


def _ext_gcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, x, y) with g = gcd(a, b) >= 0 and x*a + y*b = g."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


class IntMatrix(Record):
    """Immutable integer matrix; entries stored row-major as nested tuples."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries: tuple[tuple[int, ...], ...]) -> None:
        set_field(self, "rows", rows)
        set_field(self, "cols", cols)
        set_field(self, "entries", entries)
        if rows < 0 or cols < 0:
            raise ValueError("matrix dimensions must be non-negative")
        if len(entries) != rows:
            raise ValueError("row count does not match entries")
        for row in entries:
            if len(row) != cols:
                raise ValueError("ragged rows in matrix entries")
            for x in row:
                if type(x) is not int:
                    raise TypeError(f"non-integer entry {x!r}")

    @staticmethod
    def from_rows(rows: Iterable[Iterable[int]], cols: int | None = None) -> "IntMatrix":
        data = tuple([tuple(row) for row in rows])
        if data:
            width = len(data[0])
        else:
            width = 0 if cols is None else cols
        return IntMatrix(len(data), width, data)

    @staticmethod
    def identity(n: int) -> "IntMatrix":
        return IntMatrix(n, n, tuple([(0,) * i + (1,) + (0,) * (n - 1 - i) for i in range(n)]))

    @staticmethod
    def zeros(rows: int, cols: int) -> "IntMatrix":
        return IntMatrix(rows, cols, ((0,) * cols,) * rows)

    def __getitem__(self, key: tuple[int, int]) -> int:
        i, j = key
        return self.entries[i][j]

    def row(self, i: int) -> tuple[int, ...]:
        return self.entries[i]

    def col(self, j: int) -> tuple[int, ...]:
        return tuple([row[j] for row in self.entries])

    def transpose(self) -> "IntMatrix":
        return IntMatrix(self.cols, self.rows,
                         tuple([tuple([self.entries[i][j] for i in range(self.rows)])
                                for j in range(self.cols)]))

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch: {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        if self.cols == 0:
            return IntMatrix.zeros(self.rows, other.cols)
        tcols = other.transpose().entries
        out = tuple([
            tuple([sum(map(mul, row, col)) for col in tcols])
            for row in self.entries
        ])
        return IntMatrix(self.rows, other.cols, out)

    def to_lists(self) -> list[list[int]]:
        return [list(row) for row in self.entries]


def mat_vec(m: IntMatrix, v: Sequence[int]) -> tuple[int, ...]:
    if len(v) != m.cols:
        raise ValueError("vector length does not match matrix columns")
    return tuple([sum(map(mul, row, v)) for row in m.entries])


def _subtract(target: list[int], source: list[int], f: int) -> list[int]:
    """The row target - f * source."""
    return [y - f * x for x, y in zip(source, target)]


def _combine(ri: list[int], rj: list[int], x: int, y: int, p: int, q: int) -> tuple[list[int], list[int]]:
    """The rows (x*ri + y*rj, p*ri + q*rj); unimodular when x*q - y*p = +-1."""
    return ([x * s + y * t for s, t in zip(ri, rj)],
            [p * s + q * t for s, t in zip(ri, rj)])


def _clear_below(a: list[list[int]], left: list[list[int]], r: int, c: int) -> None:
    """Clear a[i][c] for every row i below the nonzero pivot a[r][c], doing
    each row step on the Smith left transform too: a subtracted multiple of
    row r when the pivot divides the entry, else the 2x2 extended-gcd step
    on rows r and i."""
    for i in range(r + 1, len(a)):
        b = a[i][c]
        if b == 0:
            continue
        p = a[r][c]
        f, rest = divmod(b, p)
        if rest == 0:
            a[i] = _subtract(a[i], a[r], f)
            left[i] = _subtract(left[i], left[r], f)
        else:
            g, x, y = _ext_gcd(p, b)
            a[r], a[i] = _combine(a[r], a[i], x, y, -(b // g), p // g)
            left[r], left[i] = _combine(left[r], left[i], x, y, -(b // g), p // g)


def _hermite_rows(w: list[list[int]], cols: int) -> None:
    """Bring the first cols columns of the rows w to Hermite form in place,
    doing every row step on the columns after them too.

    In column c, while more than two rows at or below the next pivot row
    have a nonzero entry, the one with the smallest |entry| (the lowest on
    a tie) is subtracted, with the nearest-rounded quotient, from the
    others, whose entries in column c at least halve; the rows below a
    pivot are thus reduced as it is found and do not grow column after
    column.  The last two rows finish with one subtraction when one entry
    divides the other, else one extended-gcd step.  Those rows are zero
    left of column c, so every step touches columns c onward only.
    """
    rows = len(w)
    r = 0
    for c in range(cols):
        live = [i for i in range(r, rows) if w[i][c]]
        if not live:
            continue
        while len(live) > 2:
            p = min(live, key=lambda i: abs(w[i][c]))
            tail = w[p][c:]
            a = tail[0]
            for i in live:
                if i != p:
                    wi = w[i]
                    wi[c:] = _subtract(wi[c:], tail, (2 * wi[c] + a) // (2 * a))
            live = [i for i in live if w[i][c]]
        p = live[0]
        if len(live) == 2:
            j = live[1]
            wp, wj = w[p], w[j]
            a, b = wp[c], wj[c]
            if b % a == 0:
                wj[c:] = _subtract(wj[c:], wp[c:], b // a)
            elif a % b == 0:
                wp[c:] = _subtract(wp[c:], wj[c:], a // b)
                p = j
            else:
                g, x, y = _ext_gcd(a, b)
                wp[c:], wj[c:] = _combine(wp[c:], wj[c:], x, y, -(b // g), a // g)
        if p != r:
            w[r], w[p] = w[p], w[r]
        wr = w[r]
        if wr[c] < 0:
            wr[c:] = [-x for x in wr[c:]]
        a = wr[c]
        tail = wr[c:]
        for i in range(r):
            wi = w[i]
            f = wi[c] // a
            if f:
                wi[c:] = _subtract(wi[c:], tail, f)
        r += 1
        if r == rows:
            break


def hermite_normal_form(m: IntMatrix) -> tuple[IntMatrix, IntMatrix]:
    """Row-style Hermite normal form.

    Returns (h, u) where u is unimodular, u @ m == h, pivots are positive,
    entries above each pivot are reduced into [0, pivot), and zero rows
    sit at the bottom.  Each row is kept as one list [a_i | u_i], the
    identity appended, so every row step of _hermite_rows on a_i is done
    on u_i too.

    No package path calls it: the package's Hermite steps run in
    _hermite_rows, and its one caller, unimodular_inverse, has no caller
    in the package.  It is kept as the public entry, with its transform,
    that the normal_forms benchmark times.
    """
    rows, cols = m.rows, m.cols
    w = [list(row) + [0] * i + [1] + [0] * (rows - 1 - i) for i, row in enumerate(m.entries)]
    _hermite_rows(w, cols)
    return (IntMatrix.from_rows([wi[:cols] for wi in w], cols=cols),
            IntMatrix.from_rows([wi[cols:] for wi in w], cols=rows))


def smith_normal_form(m: IntMatrix) -> tuple[tuple[int, ...], IntMatrix, IntMatrix]:
    """Smith normal form with transforms.

    Returns (d, left, right) with left @ m @ right == diag(d), both
    transforms unimodular, d non-negative and d[i] | d[i+1].
    """
    rows, cols = m.rows, m.cols
    a = [list(row) for row in m.entries]
    left = [[1 if i == j else 0 for j in range(rows)] for i in range(rows)]
    right = [[1 if i == j else 0 for j in range(cols)] for i in range(cols)]

    def col_op(i: int, j: int, x: int, y: int, p: int, q: int) -> None:
        for row in a + right:
            row[i], row[j] = x * row[i] + y * row[j], p * row[i] + q * row[j]

    def col_subtract(j: int, i: int, f: int) -> None:
        # col j <- col j - f*col i
        for row in a + right:
            if row[i]:
                row[j] -= f * row[i]

    n = min(rows, cols)
    for t in range(n):
        piv = next(((i, j) for i in range(t, rows) for j in range(t, cols) if a[i][j] != 0), None)
        if piv is None:
            break
        i, j = piv
        if i != t:
            a[t], a[i] = a[i], a[t]
            left[t], left[i] = left[i], left[t]
        if j != t:
            for row in a + right:
                row[t], row[j] = row[j], row[t]
        while True:
            _clear_below(a, left, t, t)
            for j in range(t + 1, cols):
                b = a[t][j]
                if b == 0:
                    continue
                f, rest = divmod(b, a[t][t])
                if rest == 0:
                    col_subtract(j, t, f)
                else:
                    g, x, y = _ext_gcd(a[t][t], b)
                    col_op(t, j, x, y, -(b // g), a[t][t] // g)
            if all(a[i][t] == 0 for i in range(t + 1, rows)) and \
               all(a[t][j] == 0 for j in range(t + 1, cols)):
                break

    # enforce the divisibility chain d[i] | d[i+1]
    changed = True
    while changed:
        changed = False
        for t in range(n - 1):
            x, y = a[t][t], a[t + 1][t + 1]
            if y % (x if x else 1) == 0 and x != 0:
                continue
            if x == 0 and y == 0:
                continue
            changed = True
            # fold the pair diag(x, y) into diag(gcd, lcm)
            col_subtract(t, t + 1, -1)            # col t <- col t + col t+1
            g, s, u = _ext_gcd(a[t][t], a[t + 1][t])
            p, q = -(a[t + 1][t] // g), a[t][t] // g
            a[t], a[t + 1] = _combine(a[t], a[t + 1], s, u, p, q)
            left[t], left[t + 1] = _combine(left[t], left[t + 1], s, u, p, q)
            f = a[t][t + 1] // a[t][t]            # exact: gcd divides the fill-in
            col_subtract(t + 1, t, f)             # col t+1 <- col t+1 - f*col t

    # pivots are produced consecutively, so zero factors already trail
    for t in range(n):
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
            left[t] = [-x for x in left[t]]

    d = tuple([a[t][t] for t in range(n)])
    return d, IntMatrix.from_rows(left, cols=rows), IntMatrix.from_rows(right, cols=cols)


def det_exact(m: IntMatrix) -> int:
    """Determinant by fraction-free Bareiss elimination."""
    if m.rows != m.cols:
        raise ValueError("determinant requires a square matrix")
    n = m.rows
    if n == 0:
        return 1
    a = [list(row) for row in m.entries]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def solve_rational(m: IntMatrix, rhs: Sequence[Fraction | int]) -> tuple[Fraction, ...] | None:
    """Solve m @ x = rhs over the rationals.

    Returns one exact solution (free variables set to 0), or None when the
    system is inconsistent.
    """
    if len(rhs) != m.rows:
        raise ValueError("rhs length does not match matrix rows")
    a = [[Fraction(x) for x in row] + [Fraction(rhs[i])] for i, row in enumerate(m.entries)]
    nrows, ncols = m.rows, m.cols
    pivots: list[tuple[int, int]] = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, nrows) if a[i][c] != 0), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        inv = 1 / a[r][c]
        a[r] = [x * inv for x in a[r]]
        for i in range(nrows):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append((r, c))
        r += 1
        if r == nrows:
            break
    for i in range(r, nrows):
        if a[i][ncols] != 0:
            return None
    x = [Fraction(0)] * ncols
    for (pr, pc) in pivots:
        x[pc] = a[pr][ncols]
    return tuple(x)


def integer_kernel(m: IntMatrix) -> IntMatrix:
    """Saturated basis of {x in Z^cols : m @ x = 0}, returned as columns.

    With u @ m^T == h in Hermite form, the rows of the unimodular u whose
    rows of h are zero span the kernel and are part of a basis of Z^cols.
    """
    w = [list(row) + [0] * i + [1] + [0] * (m.cols - 1 - i)
         for i, row in enumerate(m.transpose().entries)]
    _hermite_rows(w, m.rows)
    kernel = [wi[m.rows:] for wi in w if not any(wi[:m.rows])]
    return IntMatrix.from_rows(kernel, cols=m.cols).transpose()


def unimodular_inverse(m: IntMatrix) -> IntMatrix:
    """Inverse of a unimodular matrix: its Hermite form is 1, so u @ m == 1."""
    if m.rows != m.cols:
        raise ValueError("inverse requires a square matrix")
    h, u = hermite_normal_form(m)
    if h != IntMatrix.identity(m.rows):
        raise ValueError("matrix is not unimodular")
    return u
