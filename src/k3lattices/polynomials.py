"""Exact univariate polynomials over the rationals.

Coefficients are Fractions stored in ascending order with trailing
zeros stripped, so tuple equality is polynomial equality.  The zero
polynomial has degree -1 by convention.  Nothing here knows about
elliptic surfaces; this is the arithmetic substrate for discriminant
analysis: division, gcd, squarefree splitting, rational roots, and
valuation refinement against squarefree moduli.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Union

Rational = Union[int, Fraction]


def _coerce(value: Rational) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected an exact rational, got {type(value).__name__}")


@dataclass(frozen=True)
class Poly:
    coeffs: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        cs = [_coerce(c) for c in self.coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    @classmethod
    def of(cls, coeffs: Iterable[Rational]) -> "Poly":
        return cls(tuple(_coerce(c) for c in coeffs))

    @classmethod
    def constant(cls, value: Rational) -> "Poly":
        return cls((_coerce(value),))

    @classmethod
    def monomial(cls, degree: int, coeff: Rational = 1) -> "Poly":
        if degree < 0:
            raise ValueError("monomial degree must be non-negative")
        return cls((Fraction(0),) * degree + (_coerce(coeff),))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def leading(self) -> Fraction:
        if self.is_zero:
            raise ValueError("the zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __add__(self, other: "Poly") -> "Poly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        return Poly(tuple(x + y for x, y in zip(a, b)) + a[len(b):])

    def __neg__(self) -> "Poly":
        return Poly(tuple(-c for c in self.coeffs))

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: Union["Poly", Rational]) -> "Poly":
        if not isinstance(other, Poly):
            scalar = _coerce(other)
            return Poly(tuple(c * scalar for c in self.coeffs))
        if self.is_zero or other.is_zero:
            return Poly(())
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return Poly(tuple(out))

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "Poly":
        if exponent < 0:
            raise ValueError("negative powers are not polynomials")
        out = Poly.constant(1)
        for _ in range(exponent):
            out = out * self
        return out

    def __divmod__(self, other: "Poly") -> tuple["Poly", "Poly"]:
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        quot = [Fraction(0)] * max(len(self.coeffs) - len(other.coeffs) + 1, 0)
        rem = list(self.coeffs)
        lead = other.leading
        for k in range(len(quot) - 1, -1, -1):
            c = rem[k + other.degree] / lead
            if c == 0:
                continue
            quot[k] = c
            for j, b in enumerate(other.coeffs):
                rem[k + j] -= c * b
        return Poly(tuple(quot)), Poly(tuple(rem))

    def __floordiv__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[0]

    def __mod__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[1]

    def evaluate(self, x: Rational) -> Fraction:
        x = _coerce(x)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def derivative(self) -> "Poly":
        return Poly(tuple(k * c for k, c in enumerate(self.coeffs) if k))

    def monic(self) -> "Poly":
        if self.is_zero:
            raise ValueError("cannot normalize the zero polynomial")
        return self * (1 / self.leading)

    def __str__(self) -> str:
        return format_poly(self)


def _integer_coeffs(f: Poly) -> list[int]:
    """Coprime integer coefficients, positive leading one, proportional to
    a nonzero f."""
    scale = math.lcm(*(c.denominator for c in f.coeffs))
    ints = [c.numerator * (scale // c.denominator) for c in f.coeffs]
    content = math.gcd(*ints)
    if ints[-1] < 0:
        content = -content
    return [c // content for c in ints]


def _primitive_remainder(a: list[int], b: list[int]) -> list[int]:
    """Primitive part of a pseudo-remainder of a by b, for integer
    coefficient lists (ascending, nonzero leading entry, len(a) >= len(b));
    [] when b divides a."""
    r = list(a)
    lead = b[-1]
    while len(r) >= len(b):
        g = math.gcd(lead, r[-1])
        u, v = lead // g, r[-1] // g
        shift = len(r) - len(b)
        r = [u * x for x in r]
        for j, y in enumerate(b):
            r[shift + j] -= v * y
        while r and r[-1] == 0:
            r.pop()
    content = math.gcd(*r)
    return [x // content for x in r]


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic greatest common divisor; gcd(0, 0) is 0.

    Denominators are cleared once; the primitive pseudo-remainder sequence
    of Brown (J. ACM 1971) then runs over int, dividing every remainder
    by its content so that coefficients stay small.
    """
    if a.is_zero or b.is_zero:
        rest = b if a.is_zero else a
        return rest if rest.is_zero else rest.monic()
    x, y = _integer_coeffs(a), _integer_coeffs(b)
    if len(x) < len(y):
        x, y = y, x
    while True:
        r = _primitive_remainder(x, y)
        if not r:
            return Poly.of(y).monic()
        x, y = y, r


def squarefree_parts(f: Poly) -> tuple[Fraction, list[tuple[Poly, int]]]:
    """Yun decomposition f = unit * prod(piece^mult) with squarefree,
    pairwise coprime monic pieces, returned in increasing multiplicity."""
    if f.is_zero:
        raise ValueError("cannot decompose the zero polynomial")
    unit = f.leading
    f = f.monic()
    if f.degree == 0:
        return unit, []
    g = poly_gcd(f, f.derivative())
    w = f // g
    out = []
    mult = 1
    while w.degree > 0:
        y = poly_gcd(w, g)
        piece = w // y
        if piece.degree > 0:
            out.append((piece, mult))
        w = y
        g = g // y
        mult += 1
    return unit, out


def uniform_valuations(f: Poly, modulus: Poly) -> list[tuple[Poly, int]]:
    """Split a squarefree modulus into monic pieces on whose roots f has
    constant valuation; returns (piece, valuation) pairs covering every
    root, sorted by (valuation, text)."""
    if f.is_zero:
        raise ValueError("valuations of the zero polynomial are undefined")

    def refine(current: Poly, h: Poly) -> list[tuple[Poly, int]]:
        if h.degree <= 0:
            return []
        g = poly_gcd(current, h)
        pieces = []
        stays = h // g
        if stays.degree > 0:
            pieces.append((stays, 0))
        if g.degree > 0:
            pieces.extend((p, v + 1) for p, v in refine(current // g, g))
        return pieces

    result = refine(f, modulus.monic())
    return sorted(result, key=lambda pv: (pv[1], format_poly(pv[0])))


def primitive_integer(f: Poly) -> Poly:
    """The integer polynomial with coprime coefficients and positive
    leading coefficient proportional to f."""
    if f.is_zero:
        raise ValueError("the zero polynomial has no primitive form")
    return Poly.of(_integer_coeffs(f))


def _value_mod(cs: list[int], x: int, m: int) -> int:
    acc = 0
    for c in reversed(cs):
        acc = (acc * x + c) % m
    return acc


def _primes() -> Iterator[int]:
    n = 2
    while True:
        if all(n % d for d in range(2, math.isqrt(n) + 1)):
            yield n
        n += 1


def _simple_roots_mod_p(cs: list[int], deriv: list[int]) -> tuple[int, list[int]]:
    """The smallest prime p not dividing the leading coefficient at which
    every root of cs mod p is simple, with those roots.

    Only primes dividing the discriminant have a repeated root, so the
    search ends for squarefree input; anything else is caught by one gcd
    the first time a repeated root shows up.
    """
    checked = False
    for p in _primes():
        if cs[-1] % p == 0:
            continue
        roots = [x for x in range(p) if _value_mod(cs, x, p) == 0]
        if all(_value_mod(deriv, x, p) for x in roots):
            return p, roots
        if not checked:
            if poly_gcd(Poly.of(cs), Poly.of(deriv)).degree > 0:
                raise ValueError("rational roots need a squarefree polynomial")
            checked = True


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


def _vanishes_at(cs: list[int], a: int, b: int) -> bool:
    """Whether sum cs[i] * a^i * b^(n-i) is zero, i.e. cs has the root a/b."""
    acc, power = cs[-1], 1
    for c in reversed(cs[:-1]):
        power *= b
        acc = acc * a + c * power
    return acc == 0


def _divide_linear(cs: list[int], a: int, b: int) -> list[int]:
    """Exact quotient of cs by b*t - a."""
    quot, acc = [], 0
    for c in reversed(cs[1:]):
        acc = (c + a * acc) // b
        quot.append(acc)
    return quot[::-1]


def extract_rational_roots(f: Poly) -> tuple[list[Fraction], Poly]:
    """Rational roots of a squarefree polynomial and the rootless cofactor.

    The roots come from p-adic lifting (Loos, SIAM J. Comput. 1983): every
    rational root a/b of the primitive form c_0..c_n has a | c_0 and
    b | c_n, so it reduces to a simple root mod a prime p not dividing c_n.
    Newton's iteration lifts that root until the modulus exceeds
    2*|c_0|*|c_n|, where a/b is unique and is recovered exactly.  A
    repeated rational root raises ValueError.
    """
    if f.is_zero:
        raise ValueError("every rational is a root of the zero polynomial")
    if f.degree == 0:
        return [], f
    cs = _integer_coeffs(f)
    roots: list[Fraction] = []
    if cs[0] == 0:
        roots.append(Fraction(0))
        cs = cs[1:]
        if cs[0] == 0:
            raise ValueError("rational roots need a squarefree polynomial")
    rest = cs
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
            if b <= cs[-1] and _vanishes_at(cs, a, b):
                roots.append(Fraction(a, b))
                rest = _divide_linear(rest, a, b)
    if not roots:
        return [], f
    # dividing by the monic factors t - r keeps the leading coefficient of f
    return sorted(roots), Poly.of(rest) * (f.leading / rest[-1])


def format_poly(f: Poly, var: str = "t") -> str:
    """Human formatting, descending powers: "t^7 - 2", "27*t^7 + 4"."""
    if f.is_zero:
        return "0"
    terms = []
    for k in range(f.degree, -1, -1):
        c = f.coeffs[k]
        if c == 0:
            continue
        if k == 0:
            body = str(abs(c))
        else:
            power = var if k == 1 else f"{var}^{k}"
            body = power if abs(c) == 1 else f"{abs(c)}*{power}"
        terms.append(("-" if c < 0 else "+", body))
    sign, head = terms[0]
    text = head if sign == "+" else f"-{head}"
    for sign, body in terms[1:]:
        text += f" {sign} {body}"
    return text
