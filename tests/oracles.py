"""Independent reference computations used to cross-check the library.

Everything here is deliberately naive: recursive cofactor expansion,
plain fraction Gaussian elimination, exhaustive subset loops.  None of it
shares code with the package, so agreement is meaningful evidence.  The
Hermite and Smith references are frozen copies of the package's earlier
gcd-step routines: they pin outputs that are not canonical (the Smith
transforms) rather than check them independently.
"""

import math
from fractions import Fraction
from itertools import combinations, product


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


def characteristic_polynomial(rows):
    """Ascending coefficients of det(x*I - A) by the Faddeev-LeVerrier
    recursion over Fractions: M_0 = 0, M_k = A*M_(k-1) + c_(n-k+1)*I and
    c_(n-k) = -tr(A*M_k) / k."""
    n = len(rows)
    a = [[Fraction(x) for x in row] for row in rows]
    c = [Fraction(0)] * n + [Fraction(1)]
    m = [[Fraction(0)] * n for _ in range(n)]
    for k in range(1, n + 1):
        m = [[sum(a[i][l] * m[l][j] for l in range(n)) + (c[n - k + 1] if i == j else 0)
              for j in range(n)] for i in range(n)]
        c[n - k] = -sum(a[i][l] * m[l][i] for i in range(n) for l in range(n)) / k
    return c


def _sign_changes(coeffs):
    signs = [c > 0 for c in coeffs if c != 0]
    return sum(1 for u, v in zip(signs, signs[1:]) if u != v)


def eigenvalue_signs(rows):
    """(positive, negative, zero) eigenvalue counts of a symmetric matrix.
    Its characteristic polynomial has only real roots, so Descartes' rule
    of signs counts the positive and (on p(-x)) the negative ones exactly;
    the zero ones are the lowest vanishing coefficients."""
    c = characteristic_polynomial(rows)
    zero = next(k for k, x in enumerate(c) if x != 0)
    return (_sign_changes(c), _sign_changes([x * (-1) ** k for k, x in enumerate(c)]), zero)


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


def overlattice_glue_walk(rows, factors, generators, index):
    """Glue vectors of the even overlattices of index `index` over the lattice
    with Gram rows, one per cyclic subgroup of the discriminant group.
    Walks every group element in sorted coefficient order, finds its order
    by trying k = 1, 2, ..., builds its vector and norm as Fractions (the
    norm over the nonzero Gram entries), and keeps the first element of
    each subgroup of that order with norm 0 mod 2.  generators[i] is the
    i-th generator as a rational vector, of order factors[i]."""
    seen, glue = [], []
    for coeffs in product(*(range(d) for d in factors)):
        order = next(k for k in range(1, math.prod(factors) + 1)
                     if all(k * c % d == 0 for c, d in zip(coeffs, factors)))
        if order != index:
            continue
        v = tuple(sum((c * g[k] for c, g in zip(coeffs, generators)), Fraction(0))
                  for k in range(len(rows)))
        norm = sum(v[i] * x * v[j] for i, row in enumerate(rows)
                   for j, x in enumerate(row) if x)
        if norm % 2 != 0:
            continue
        subgroup = frozenset(tuple(k * c % d for c, d in zip(coeffs, factors))
                             for k in range(index))
        if subgroup not in seen:
            seen.append(subgroup)
            glue.append(v)
    return glue


def _trim(coeffs):
    coeffs = [Fraction(c) for c in coeffs]
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def fraction_sum(a, b):
    """Sum of ascending coefficient lists, term by term over Fractions."""
    a, b = _trim(a), _trim(b)
    longer, shorter = (a, b) if len(a) >= len(b) else (b, a)
    return _trim([x + (shorter[i] if i < len(shorter) else 0)
                  for i, x in enumerate(longer)])


def fraction_product(*factors):
    """Product of ascending coefficient lists, one Fraction product per
    pair of terms; [1] for no factors."""
    out = [Fraction(1)]
    for b in factors:
        a, b = out, _trim(b)
        if not b:
            return []
        out = [Fraction(0)] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def coefficients(p):
    """Ascending Fraction coefficients of a package Poly, each integer entry
    times the content."""
    return [p.content * c for c in p.ints]


def weierstrass_discriminant(a4, a6, a4_scale_cubed=1):
    """Delta = -16 (4 c^3 a4^3 + 27 a6^2) of ascending coefficient lists,
    for c^3 = a4_scale_cubed, term by term over Fractions."""
    cube = [4 * a4_scale_cubed * c for c in fraction_product(a4, a4, a4)]
    return [-16 * c for c in fraction_sum(cube, [27 * c for c in fraction_product(a6, a6)])]


def fraction_divmod(a, b):
    """Quotient and remainder of ascending coefficient lists by schoolbook
    long division over Fractions; b must be nonzero."""
    a, b = _trim(a), _trim(b)
    quot = [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    rem = list(a)
    while len(rem) >= len(b):
        c = rem[-1] / b[-1]
        shift = len(rem) - len(b)
        quot[shift] = c
        for j, y in enumerate(b):
            rem[shift + j] -= c * y
        rem = _trim(rem)
    return _trim(quot), rem


def euclid_gcd(a, b):
    """Monic gcd of ascending coefficient lists by Euclid's algorithm over
    Fractions; the empty list for gcd(0, 0)."""
    a, b = _trim(a), _trim(b)
    while b:
        a, b = b, fraction_divmod(a, b)[1]
    return [c / a[-1] for c in a]


def _derivative_gcds(f):
    """[D_1, D_2, ..., [1]] for a nonzero f, where D_k = gcd(f, f', ...,
    f^(k-1)) is monic: in characteristic 0 a root of multiplicity m is a
    root of f^(j) of multiplicity m - j, so D_k holds it max(m - k + 1, 0)
    times."""
    f = _trim(f)
    gcds, deriv = [[c / f[-1] for c in f]], f
    while len(gcds[-1]) > 1:
        deriv = [k * c for k, c in enumerate(deriv)][1:]
        gcds.append(euclid_gcd(gcds[-1], deriv))
    return gcds


def _exact_layers(at_least):
    """{k: at_least[k] / at_least[k + 1]} for the nonconstant quotients of
    a divisor chain, over Fractions."""
    out = {}
    for k in range(len(at_least) - 1):
        piece, rem = fraction_divmod(at_least[k], at_least[k + 1])
        assert not rem
        if len(piece) > 1:
            out[k] = piece
    return out


def squarefree_by_derivative_gcds(f):
    """(unit, {multiplicity: monic piece}) of a nonzero polynomial by
    repeated gcds with its higher derivatives: D_k / D_(k+1) holds the
    roots of multiplicity at least k, and two consecutive such quotients
    divide to the roots of multiplicity exactly k."""
    f = _trim(f)
    gcds = _derivative_gcds(f)
    at_least = [fraction_divmod(gcds[k], gcds[k + 1])[0] for k in range(len(gcds) - 1)]
    layers = _exact_layers(at_least + [[Fraction(1)]])
    return f[-1], {k + 1: piece for k, piece in layers.items()}


def valuation_layers(f, modulus):
    """{v: monic piece} splitting a squarefree modulus by the multiplicity v
    of its roots in a nonzero f: the roots of valuation at least v >= 1 are
    those of gcd(modulus, D_v), with D_v from _derivative_gcds."""
    h = _trim(modulus)
    at_least = [[c / h[-1] for c in h]]
    at_least += [euclid_gcd(h, d) for d in _derivative_gcds(f)]
    return _exact_layers(at_least)


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


def root_valuation(coeffs, r):
    """Multiplicity of r as a root of a polynomial by repeated exact
    division by t - r over Fractions; None for the zero polynomial."""
    f, v = _trim(coeffs), 0
    if not f:
        return None
    while True:
        quot, rem = fraction_divmod(f, [-Fraction(r), 1])
        if rem:
            return v
        f, v = quot, v + 1


def tate_symbol(v4, v6, vd):
    """Kodaira symbol of a place of y^2 = x^3 + a4 x + a6 from the
    valuations of a4, a6 and Delta (None: the coefficient is zero), by
    Tate's table in characteristic 0; "non-minimal" when v4 >= 4 and
    v6 >= 6."""
    big = 10 ** 9
    v4, v6 = big if v4 is None else v4, big if v6 is None else v6
    if v4 >= 4 and v6 >= 6:
        return "non-minimal"
    if vd == 0:
        return "I0"
    if min(v4, v6) == 0:
        # 4 a4^3 = -27 a6^2 at a root of Delta: a4 and a6 vanish together
        assert v4 == v6 == 0, (v4, v6, vd)
        return f"I{vd}"
    if (v4, v6) == (2, 3) and vd > 6:
        return f"I{vd - 6}*"
    return {2: "II", 3: "III", 4: "IV", 6: "I0*", 8: "IV*", 9: "III*", 10: "II*"}[vd]


def weierstrass_symbols(a4, a6):
    """{place: Kodaira symbol} of y^2 = x^3 + a4 x + a6, for a4 and a6
    given as ascending integer lists of degree at most 8 and 12, at every
    rational root of Delta = -16 (4 a4^3 + 27 a6^2) and, under the key
    "inf", at infinity when Delta has degree below 24.  Valuations come
    from root_valuation; at infinity they are 8 - deg a4, 12 - deg a6
    and 24 - deg Delta."""
    delta = weierstrass_discriminant(a4, a6)
    content = math.gcd(*[int(c) for c in delta])
    symbols = {r: tate_symbol(root_valuation(a4, r), root_valuation(a6, r),
                              root_valuation(delta, r))
               for r in divisor_rational_roots([c / content for c in delta])}
    if len(delta) < 25:
        a4, a6 = _trim(a4), _trim(a6)
        symbols["inf"] = tate_symbol(9 - len(a4) if a4 else None,
                                     13 - len(a6) if a6 else None, 25 - len(delta))
    return symbols


def slot_walk(edges, fixed, order=7):
    """The exponent walk kept per (curve, slot): the reference for walk_chain.

    Every curve that is not pointwise fixed gets two slots, its edges
    padded with free endpoints; each slot carries its own exponent, the
    two slots of such a curve are tied by negation and the two ends of
    an edge sum to 1 mod order.  Returns (consistent, fixed curves,
    sorted (curves, exponents) of the points)."""
    edge_list = sorted({tuple(sorted(e)) for e in edges})
    fixed_set = frozenset(fixed)
    names = set(fixed_set)
    for a, b in edge_list:
        if a == b:
            raise ValueError(f"curve {a} cannot intersect itself here")
        names.update((a, b))

    incident = {c: [] for c in sorted(names)}
    for edge in edge_list:
        for c in edge:
            incident[c].append(edge)

    conflicts = []
    slots = {}
    for c, touching in incident.items():
        if c in fixed_set or len(touching) > 2:
            if c not in fixed_set:
                conflicts.append(f"{c} carries {len(touching)} fixed points")
            slots[c] = list(touching)
            continue
        slots[c] = list(touching) + [("free", c, k) for k in range(2 - len(touching))]

    expo = {}
    stack = [(c, slot, 0) for c in sorted(fixed_set) for slot in slots[c]]
    while stack:
        curve, slot, value = stack.pop()
        value %= order
        key = (curve, slot)
        if key in expo:
            if expo[key] != value:
                conflicts.append(f"{curve} gets two exponents at {slot}")
            continue
        if (curve in fixed_set) != (value == 0):
            conflicts.append(f"{curve} gets exponent {value} at {slot}")
            continue
        expo[key] = value
        if len(slot) == 2:
            other = slot[1] if slot[0] == curve else slot[0]
            stack.append((other, slot, 1 - value))
        if curve not in fixed_set and len(slots[curve]) == 2:
            pair = slots[curve]
            stack.append((curve, pair[1] if slot == pair[0] else pair[0], -value))

    if any((c, slot) not in expo for c, cslots in slots.items() for slot in cslots):
        conflicts.append("unreached slot")

    points = []
    for edge in edge_list:
        a, b = edge
        if (a, edge) in expo and (b, edge) in expo:
            points.append((edge, tuple(sorted((expo[(a, edge)], expo[(b, edge)])))))
    for c, cslots in slots.items():
        for slot in cslots:
            if len(slot) == 3 and (c, slot) in expo:
                value = expo[(c, slot)]
                if value in (0, 1):
                    conflicts.append(f"free endpoint of {c} has exponent {value}")
                    continue
                points.append(((c,), tuple(sorted((value, (1 - value) % order)))))
    points.sort(key=lambda p: p[0])
    return not conflicts, tuple(sorted(fixed_set)), points


def _zeta_product(a, b):
    """Product of two coefficient lists of length 7 in Q[z]/(z^7 - 1)."""
    out = [Fraction(0)] * 7
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[(i + j) % 7] += x * y
    return out


def _zeta_inverse_one_minus(i):
    """1/(1 - z^i) in Q(z) = Q[z]/Phi_7, from 1/(1 - z) = -(1/7) sum k z^k."""
    out = [Fraction(0)] * 7
    for k in range(7):
        out[i * k % 7] += Fraction(-k, 7)
    return out


def holomorphic_lefschetz_sides(counts, curves):
    """Both sides of the holomorphic Lefschetz identity of an order-7
    purely non-symplectic action, with z a primitive 7th root of unity:

        1 + z^6 = sum n_ij / ((1 - z^i)(1 - z^j)) + s (1 + z) / (1 - z)^2

    counts are the isolated-point counts (n26, n35, n44) and s is the sum
    of 1 - g over the genera g in curves.  Each side is returned as its
    coordinates on 1, z, ..., z^5, read off a list mod z^7 - 1 through
    z^6 = -(1 + z + ... + z^5); the identity holds iff the two agree."""
    lhs = [1, 0, 0, 0, 0, 0, 1]
    rhs = [Fraction(0)] * 7
    inverse = _zeta_inverse_one_minus
    for n, (i, j) in zip(counts, ((2, 6), (3, 5), (4, 4))):
        term = _zeta_product(inverse(i), inverse(j))
        rhs = [x + n * y for x, y in zip(rhs, term)]
    s = sum(1 - g for g in curves)
    term = _zeta_product([1, 1, 0, 0, 0, 0, 0], _zeta_product(inverse(1), inverse(1)))
    rhs = [x + s * y for x, y in zip(rhs, term)]
    return (tuple([x - lhs[6] for x in lhs[:6]]),
            tuple([x - rhs[6] for x in rhs[:6]]))


def ext_gcd(a, b):
    """(g, x, y) with g = gcd(a, b) >= 0 and x*a + y*b = g."""
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


def hermite_by_gcd_steps(m):
    """The Hermite form (h, u) of an IntMatrix m as nested tuples, with the
    2x2 extended-gcd step on every nonzero entry below a pivot: the
    reference for intmat.hermite_normal_form (h always, u when m is square
    and nonsingular, where u is unique)."""
    a = [list(row) for row in m.entries]
    u = [[1 if i == j else 0 for j in range(m.rows)] for i in range(m.rows)]
    r = 0
    for c in range(m.cols):
        piv = next((i for i in range(r, m.rows) if a[i][c] != 0), None)
        if piv is None:
            continue
        if piv != r:
            a[r], a[piv] = a[piv], a[r]
            u[r], u[piv] = u[piv], u[r]
        for i in range(r + 1, m.rows):
            if a[i][c] == 0:
                continue
            g, x, y = ext_gcd(a[r][c], a[i][c])
            p, q = a[r][c] // g, a[i][c] // g
            a[r], a[i] = (
                [x * a[r][k] + y * a[i][k] for k in range(m.cols)],
                [-q * a[r][k] + p * a[i][k] for k in range(m.cols)],
            )
            u[r], u[i] = (
                [x * u[r][k] + y * u[i][k] for k in range(m.rows)],
                [-q * u[r][k] + p * u[i][k] for k in range(m.rows)],
            )
        if a[r][c] < 0:
            a[r] = [-x for x in a[r]]
            u[r] = [-x for x in u[r]]
        for i in range(r):
            f = a[i][c] // a[r][c]
            if f != 0:
                a[i] = [a[i][k] - f * a[r][k] for k in range(m.cols)]
                u[i] = [u[i][k] - f * u[r][k] for k in range(m.rows)]
        r += 1
        if r == m.rows:
            break
    return tuple(map(tuple, a)), tuple(map(tuple, u))


def smith_by_general_steps(m):
    """The Smith form (d, left, right) of an IntMatrix m, transforms as
    nested tuples, with every row and column operation done as a general
    2x2 step: the reference for intmat.smith_normal_form, whose transforms
    must match it entry for entry (the discriminant-group generators are
    read off right)."""
    rows, cols = m.rows, m.cols
    a = [list(row) for row in m.entries]
    left = [[1 if i == j else 0 for j in range(rows)] for i in range(rows)]
    right = [[1 if i == j else 0 for j in range(cols)] for i in range(cols)]

    def row_op(i, j, x, y, p, q):
        # rows i, j <- (x*ri + y*rj, p*ri + q*rj); requires x*q - y*p = +-1
        a[i], a[j] = (
            [x * a[i][k] + y * a[j][k] for k in range(cols)],
            [p * a[i][k] + q * a[j][k] for k in range(cols)],
        )
        left[i], left[j] = (
            [x * left[i][k] + y * left[j][k] for k in range(rows)],
            [p * left[i][k] + q * left[j][k] for k in range(rows)],
        )

    def col_op(i, j, x, y, p, q):
        for row in a:
            row[i], row[j] = x * row[i] + y * row[j], p * row[i] + q * row[j]
        for row in right:
            row[i], row[j] = x * row[i] + y * row[j], p * row[i] + q * row[j]

    n = min(rows, cols)
    for t in range(n):
        piv = next(((i, j) for i in range(t, rows) for j in range(t, cols) if a[i][j] != 0), None)
        if piv is None:
            break
        i, j = piv
        if i != t:
            row_op(t, i, 0, 1, 1, 0)
        if j != t:
            col_op(t, j, 0, 1, 1, 0)
        while True:
            for i in range(t + 1, rows):
                if a[i][t] == 0:
                    continue
                if a[i][t] % a[t][t] == 0:
                    row_op(t, i, 1, 0, -(a[i][t] // a[t][t]), 1)
                else:
                    g, x, y = ext_gcd(a[t][t], a[i][t])
                    row_op(t, i, x, y, -(a[i][t] // g), a[t][t] // g)
            for j in range(t + 1, cols):
                if a[t][j] == 0:
                    continue
                if a[t][j] % a[t][t] == 0:
                    col_op(t, j, 1, 0, -(a[t][j] // a[t][t]), 1)
                else:
                    g, x, y = ext_gcd(a[t][t], a[t][j])
                    col_op(t, j, x, y, -(a[t][j] // g), a[t][t] // g)
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
            col_op(t, t + 1, 1, 1, 0, 1)          # col t <- col t + col t+1
            g, s, u = ext_gcd(a[t][t], a[t + 1][t])
            row_op(t, t + 1, s, u, -(a[t + 1][t] // g), a[t][t] // g)
            f = a[t][t + 1] // a[t][t]            # exact: gcd divides the fill-in
            col_op(t, t + 1, 1, 0, -f, 1)         # col t+1 <- col t+1 - f*col t

    # pivots are produced consecutively, so zero factors already trail
    for t in range(n):
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
            left[t] = [-x for x in left[t]]

    d = tuple([a[t][t] for t in range(n)])
    return d, tuple(map(tuple, left)), tuple(map(tuple, right))
