"""Exact univariate polynomials over the rationals.

A Poly is a primitive integer coefficient tuple (ascending, leading entry
positive) times one rational content that carries the sign, so field
equality is polynomial equality; the zero polynomial is () with degree -1.
Poly has no arithmetic operators: by Gauss's lemma products and exact
quotients of primitive polynomials are primitive, so the algorithms loop
over its ints and touch the content once.  Nothing here knows about
elliptic surfaces; this is the arithmetic substrate for discriminant
analysis: products, division, gcd, squarefree splitting, rational roots,
and valuation refinement against squarefree moduli.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import count
from typing import Iterable, Iterator, Sequence, Union

from ._record import Record, set_field

Rational = Union[int, Fraction]


def _exact(value: Rational) -> Rational:
    if isinstance(value, bool) or not isinstance(value, (int, Fraction)):
        raise TypeError(f"expected an exact rational, got {type(value).__name__}")
    return value


def _scaled(cs: list[int], scale: Fraction) -> "Poly":
    """scale * sum(cs[i] * t^i) in normal form; trims cs in place."""
    while cs and cs[-1] == 0:
        cs.pop()
    if not cs:
        return ZERO
    g = math.gcd(*cs) if cs[-1] > 0 else -math.gcd(*cs)
    return Poly(tuple([c // g for c in cs]), scale * g)


def _convolve(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """The coefficient list of the product of two integer coefficient lists."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b, i):
            out[j] += x * y
    return out


def _monic(cs: Sequence[int]) -> "Poly":
    return Poly(tuple(cs), Fraction(1, cs[-1]))


class Poly(Record):
    """content * sum(ints[i] * t^i) in normal form, printed by format_poly;
    build one with of, constant or monomial."""

    __slots__ = ("ints", "content")

    def __init__(self, ints: tuple[int, ...], content: Fraction) -> None:
        set_field(self, "ints", ints)
        set_field(self, "content", content)

    @classmethod
    def of(cls, coeffs: Iterable[Rational]) -> "Poly":
        cs = [_exact(c) for c in coeffs]
        scale = math.lcm(*(c.denominator for c in cs))
        return _scaled([c.numerator * (scale // c.denominator) for c in cs],
                       Fraction(1, scale))

    @classmethod
    def constant(cls, value: Rational) -> "Poly":
        return cls.of((value,))

    @classmethod
    def monomial(cls, degree: int, coeff: Rational = 1) -> "Poly":
        if degree < 0:
            raise ValueError("monomial degree must be non-negative")
        return ZERO if _exact(coeff) == 0 else cls((0,) * degree + (1,), Fraction(coeff))

    @property
    def degree(self) -> int:
        return len(self.ints) - 1

    @property
    def is_zero(self) -> bool:
        return not self.ints

    @property
    def leading(self) -> Fraction:
        if self.is_zero:
            raise ValueError("the zero polynomial has no leading coefficient")
        return self.content * self.ints[-1]

    def derivative(self) -> "Poly":
        return _scaled([k * c for k, c in enumerate(self.ints)][1:], self.content)


ZERO = Poly((), Fraction(0))


def _divide(a: Sequence[int], b: Sequence[int]) -> tuple[list[int], list[int]]:
    """Integer lists q and r with a = q*b + r and len(r) < len(b);
    ValueError when a coefficient of q is not an integer.  A primitive b
    that divides a primitive a over Q leaves r = 0 and a primitive q."""
    rem, lead, n = list(a), b[-1], len(b) - 1
    quot = [0] * max(len(a) - n, 0)
    for k in range(len(quot) - 1, -1, -1):
        c, r = divmod(rem[k + n], lead)
        if r:
            raise ValueError("the divisor does not divide exactly")
        quot[k] = c
        for j in range(n):
            rem[k + j] -= c * b[j]
    return quot, rem[:n]


def _primitive_remainder(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Primitive part, positive leading entry, of a pseudo-remainder of a
    by b, for integer coefficient lists (ascending, nonzero leading entry,
    len(a) >= len(b)); [] when b divides a."""
    r, lead, n = list(a), b[-1], len(b) - 1
    while len(r) > n:
        g = math.gcd(lead, r[-1])
        u, v = lead // g, r[-1] // g
        shift = len(r) - 1 - n
        # u*r - v*t^shift*b, whose top entry cancels
        r = [u * x for x in r[:shift]] + [u * x - v * y for x, y in zip(r[shift:-1], b)]
        while r and r[-1] == 0:
            r.pop()
    content = math.gcd(*r)
    return [x // content for x in r] if r and r[-1] > 0 else [-x // content for x in r]


_IMAGE_PRIME = 32749  # the largest prime below 2^15


def _constant_image(x: Sequence[int], y: Sequence[int]) -> bool:
    """Whether gcd(x mod p, y mod p) over GF(p) is a nonzero constant.

    With p < 2^15 every product of two residues in the Euclid loop is
    below 2^30, one CPython digit, so the loop never builds a
    multi-digit int.
    """
    p = _IMAGE_PRIME
    a, b = [c % p for c in x], [c % p for c in y]
    while b and b[-1] == 0:
        b.pop()
    while b:
        inv, n = pow(b[-1], -1, p), len(b) - 1
        while len(a) > n:
            c, shift = a.pop() * inv % p, len(a) - n
            for j in range(n):
                a[shift + j] = (a[shift + j] - c * b[j]) % p
            while a and a[-1] == 0:
                a.pop()
        a, b = b, a
    return len(a) == 1


def _gcd_ints(x: Sequence[int], y: Sequence[int]) -> Sequence[int]:
    """Primitive gcd of nonzero primitive integer lists with positive
    leading entries.

    t is prime in Z[t], so the common power of t splits off first.  A
    common factor g of the rest has lc(g) | lc(x), so when p does not
    divide lc(x) g keeps its degree mod p, and a constant gcd mod p proves
    g = 1 (Brown's lucky primes; von zur Gathen and Gerhard, Modern
    Computer Algebra, 6.4).  This holds for any prime p; a small one only
    makes an inconclusive image a little more likely.  Otherwise Brown's
    primitive pseudo-remainder sequence (J. ACM 1971) finds the gcd with
    small coefficients.
    """
    a = next(i for i, c in enumerate(x) if c)
    b = next(i for i, c in enumerate(y) if c)
    x, y = x[a:], y[b:]
    if len(x) < len(y):
        x, y = y, x
    if len(y) == 1 or x[-1] % _IMAGE_PRIME and _constant_image(x, y):
        y = [1]
    else:
        while r := _primitive_remainder(x, y):
            x, y = y, r
    return [0] * min(a, b) + list(y)


def squarefree_parts(f: Poly) -> tuple[Fraction, list[tuple[Poly, int]]]:
    """Yun decomposition f = unit * prod(piece^mult) with squarefree,
    pairwise coprime monic pieces, returned in increasing multiplicity."""
    if f.is_zero:
        raise ValueError("cannot decompose the zero polynomial")
    if f.degree == 0:
        return f.leading, []
    g = _gcd_ints(f.ints, f.derivative().ints)
    if len(g) == 1:
        return f.leading, [(_monic(f.ints), 1)]
    w = _divide(f.ints, g)[0]
    out, mult = [], 1
    while len(w) > 1:
        y = _gcd_ints(w, g)
        piece = _divide(w, y)[0]
        if len(piece) > 1:
            out.append((_monic(piece), mult))
        w, g = y, _divide(g, y)[0]
        mult += 1
    return f.leading, out


def uniform_valuations(f: Poly, modulus: Poly) -> list[tuple[Poly, int]]:
    """Split a squarefree modulus into monic pieces on whose roots f has
    constant valuation; returns (piece, valuation) pairs covering every
    root, one piece per valuation, in increasing valuation."""
    if f.is_zero:
        raise ValueError("valuations of the zero polynomial are undefined")
    if modulus.is_zero:
        raise ValueError("cannot split the zero modulus")
    pieces = []
    current, h, v = f.ints, modulus.ints, 0
    while len(h) > 1:
        g = _gcd_ints(current, h)
        stays = _divide(h, g)[0]
        if len(stays) > 1:
            pieces.append((_monic(stays), v))
        current, h, v = _divide(current, g)[0], g, v + 1
    return pieces


def _value_mod(cs: list[int], x: int, m: int) -> int:
    acc = 0
    for c in reversed(cs):
        acc = (acc * x + c) % m
    return acc


def _primes() -> Iterator[int]:
    return (n for n in count(2) if all(n % d for d in range(2, math.isqrt(n) + 1)))


def _simple_roots_mod_p(cs: list[int], deriv: list[int]) -> tuple[int, list[int]]:
    """The smallest prime p not dividing the leading coefficient at which
    every root of cs mod p is simple, with those roots.

    Only primes dividing the discriminant have a repeated root, so the
    search ends for squarefree cs; for cs with a repeated rational root it
    never ends, which is why the caller must prove squarefreeness first.
    """
    for p in _primes():
        if cs[-1] % p == 0:
            continue
        roots = [x for x in range(p) if _value_mod(cs, x, p) == 0]
        if all(_value_mod(deriv, x, p) for x in roots):
            return p, roots


def _rational_from_residue(x: int, m: int, bound: int) -> tuple[int, int]:
    """(a, b) with a = b*x mod m, |a| <= bound and b > 0, read off the
    half-extended Euclidean remainder sequence of (m, x).  When some a/b in
    lowest terms with |a| <= bound and 0 < b <= m / (bound + 1) has
    a = b*x mod m, this is it (von zur Gathen and Gerhard, Modern Computer
    Algebra, Thm. 5.26)."""
    r0, r1, t0, t1 = m, x, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        t0, t1 = t1, t0 - q * t1
    return (r1, t1) if t1 > 0 else (-r1, -t1)


def _homogeneous(cs: Sequence[int], a: int, b: int) -> int:
    """sum cs[i] * a^i * b^(n-i) for n = len(cs) - 1, i.e. b^n * cs(a/b)."""
    acc, power = cs[-1], 1
    for c in reversed(cs[:-1]):
        power *= b
        acc = acc * a + c * power
    return acc


def squarefree_rational_roots(f: Poly) -> tuple[list[Fraction], Poly]:
    """Rational roots of f and the rootless cofactor, for an f the caller
    knows to be squarefree (a Yun piece or a factor of one); nothing here
    checks that, and a repeated rational root makes the prime search run
    forever.

    The roots come from p-adic lifting (Loos, SIAM J. Comput. 1983): every
    rational root a/b of the primitive form c_0..c_n has a | c_0 and
    b | c_n, so it reduces to a simple root mod a prime p not dividing c_n.
    Newton's iteration lifts that root until the modulus exceeds
    2*|c_0|*|c_n|, where a/b is unique and is recovered exactly.  The
    branch for c_0 = 0 serves only extract_rational_roots: the fibration
    path reads t = 0 off the coefficients and never passes a multiple of t.
    """
    if f.is_zero:
        raise ValueError("every rational is a root of the zero polynomial")
    if f.degree == 0:
        return [], f
    cs = list(f.ints)
    roots: list[Fraction] = []
    if cs[0] == 0:
        roots.append(Fraction(0))
        cs = cs[1:]
    rest, denominators = cs, 1
    if len(cs) > 1:
        deriv = [k * c for k, c in enumerate(cs)][1:]
        p, residues = _simple_roots_mod_p(cs, deriv)
        bound = 2 * abs(cs[0]) * cs[-1]
        for x in residues:
            m = p
            while m <= bound:
                m *= m
                x = (x - _value_mod(cs, x, m)
                     * pow(_value_mod(deriv, x, m), -1, m)) % m
            a, b = _rational_from_residue(x, m, abs(cs[0]))
            if b <= cs[-1] and _homogeneous(cs, a, b) == 0:
                roots.append(Fraction(a, b))
                rest = _divide(rest, (-a, b))[0]
                denominators *= b
    if not roots:
        return [], f
    # dividing by the monic factors t - r keeps the leading coefficient of f
    return sorted(roots), _scaled(rest, f.content * denominators)


def extract_rational_roots(f: Poly) -> tuple[list[Fraction], Poly]:
    """Rational roots of a squarefree polynomial and the rootless cofactor,
    as squarefree_rational_roots, after one gcd(f, f') proves f squarefree;
    a polynomial that is not squarefree raises ValueError."""
    if f.degree > 0 and len(_gcd_ints(f.ints, f.derivative().ints)) > 1:
        raise ValueError("rational roots need a squarefree polynomial")
    return squarefree_rational_roots(f)


def format_poly(f: Poly) -> str:
    """Human formatting, descending powers: "t^7 - 2", "27*t^7 + 4"."""
    n, d = f.content.numerator, f.content.denominator
    terms = []
    for k in range(f.degree, -1, -1):
        c = n * f.ints[k]
        if c == 0:
            continue
        g = math.gcd(c, d)
        size = str(abs(c) // g) if d == g else f"{abs(c) // g}/{d // g}"
        power = "t" if k == 1 else f"t^{k}"
        body = size if k == 0 else power if abs(c) == d else f"{size}*{power}"
        terms.append(f"{'-' if c < 0 else '+'} {body}")
    text = " ".join(terms) or "+ 0"
    return text[2:] if text[0] == "+" else f"-{text[2:]}"
