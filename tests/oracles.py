"""Independent reference computations used to cross-check the library.

Everything here is deliberately naive: recursive cofactor expansion,
plain fraction Gaussian elimination, exhaustive subset loops.  None of it
shares code with the package, so agreement is meaningful evidence.
"""

import math
from fractions import Fraction
from itertools import combinations


def cofactor_det(rows):
    """Determinant by recursive cofactor expansion along the first row."""
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    total = 0
    for j, head in enumerate(rows[0]):
        if head == 0:
            continue
        minor = [r[:j] + r[j + 1:] for r in rows[1:]]
        total += (-1) ** j * head * cofactor_det(minor)
    return total


def gauss_det(rows):
    """Determinant by fraction Gaussian elimination (different algorithm
    from both cofactor_det and the package's fraction-free elimination)."""
    n = len(rows)
    a = [[Fraction(x) for x in row] for row in rows]
    sign = 1
    for c in range(n):
        piv = next((i for i in range(c, n) if a[i][c] != 0), None)
        if piv is None:
            return 0
        if piv != c:
            a[c], a[piv] = a[piv], a[c]
            sign = -sign
        for i in range(c + 1, n):
            f = a[i][c] / a[c][c]
            a[i] = [x - f * y for x, y in zip(a[i], a[c])]
    prod = Fraction(sign)
    for i in range(n):
        prod *= a[i][i]
    assert prod.denominator == 1
    return int(prod)


def minor_gcd(rows, k):
    """gcd of all k x k minors (the k-th determinantal divisor)."""
    import math
    n_r, n_c = len(rows), len(rows[0])
    g = 0
    for rsel in combinations(range(n_r), k):
        for csel in combinations(range(n_c), k):
            sub = [[rows[i][j] for j in csel] for i in rsel]
            g = math.gcd(g, gauss_det(sub))
            if g == 1:
                return 1
    return g


def definiteness_sign(rows):
    """+1 positive definite, -1 negative definite, 0 otherwise, by the
    leading-principal-minor criterion."""
    n = len(rows)
    minors = [gauss_det([row[: k + 1] for row in rows[: k + 1]]) for k in range(n)]
    if all(m > 0 for m in minors):
        return 1
    if all((m > 0 if k % 2 else m < 0) for k, m in enumerate(minors)):
        return -1
    return 0


def inverse_fractions(rows):
    """Inverse of a nonsingular integer matrix via adjugate / determinant."""
    n = len(rows)
    det = gauss_det(rows)
    assert det != 0
    inv = []
    for i in range(n):
        inv_row = []
        for j in range(n):
            minor = [r[:i] + r[i + 1:] for k, r in enumerate(rows) if k != j]
            inv_row.append(Fraction((-1) ** (i + j) * gauss_det(minor), det))
        inv.append(inv_row)
    return inv


def half_integral_subsets(coord_cols):
    """All nonempty index subsets J whose half-sum of the given coordinate
    columns is integral, by direct enumeration."""
    k = len(coord_cols)
    found = []
    for size in range(1, k + 1):
        for J in combinations(range(k), size):
            total = [sum(col[i] for col in (coord_cols[j] for j in J))
                     for i in range(len(coord_cols[0]))]
            if all(x % 2 == 0 for x in total):
                found.append(J)
    return found


def gram_form(rows, v, w):
    """v^T G w for rational vectors, one Fraction product per term."""
    return sum(Fraction(v[i]) * rows[i][j] * Fraction(w[j])
               for i in range(len(rows)) for j in range(len(rows)))


def _trim(coeffs):
    coeffs = [Fraction(c) for c in coeffs]
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def _fraction_remainder(a, b):
    """Remainder of a by b, ascending Fraction coefficient lists."""
    rem = list(a)
    while len(rem) >= len(b):
        c = rem[-1] / b[-1]
        shift = len(rem) - len(b)
        for j, y in enumerate(b):
            rem[shift + j] -= c * y
        rem = _trim(rem)
    return rem


def euclid_gcd(a, b):
    """Monic gcd of ascending coefficient lists by Euclid's algorithm over
    Fractions; the empty list for gcd(0, 0)."""
    a, b = _trim(a), _trim(b)
    while b:
        a, b = b, _fraction_remainder(a, b)
    return [c / a[-1] for c in a]


def _divisors_by_trial(n):
    n = abs(n)
    small = [d for d in range(1, math.isqrt(n) + 1) if n % d == 0]
    return sorted(set(small + [n // d for d in small]))


def divisor_rational_roots(coeffs):
    """Distinct rational roots, sorted, of a nonzero polynomial with
    integer coefficients (ascending): every +-p/q with p dividing the
    lowest nonzero coefficient and q the leading one, evaluated by Horner's
    rule over Fractions.  Trial division runs to the square root of both,
    so keep the end coefficients small."""
    coeffs = _trim(coeffs)
    assert coeffs and all(c.denominator == 1 for c in coeffs)
    low = next(k for k, c in enumerate(coeffs) if c != 0)
    roots = {Fraction(0)} if low else set()
    rest = coeffs[low:]
    for p in _divisors_by_trial(int(rest[0])):
        for q in _divisors_by_trial(int(rest[-1])):
            for x in (Fraction(p, q), Fraction(-p, q)):
                value = Fraction(0)
                for c in reversed(rest):
                    value = value * x + c
                if value == 0:
                    roots.add(x)
    return sorted(roots)
