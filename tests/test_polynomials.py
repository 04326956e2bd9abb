"""Tests for the exact polynomial toolkit."""

import math
import random
from fractions import Fraction

import pytest

from k3lattices.polynomials import (
    Poly,
    _gcd_ints,
    _monic,
    extract_rational_roots,
    format_poly,
    squarefree_parts,
    uniform_valuations,
)

from oracles import fraction_divmod


def t_power(k, coeff=1):
    return Poly.monomial(k, coeff)


T = t_power(1)
ONE = Poly.constant(1)


def power(f, k):
    return math.prod([f] * k, start=ONE)


def random_poly(rng, max_degree=6):
    degree = rng.randrange(-1, max_degree + 1)
    if degree < 0:
        return Poly.of([])
    coeffs = [Fraction(rng.randrange(-9, 10), rng.randrange(1, 5))
              for _ in range(degree)]
    coeffs.append(Fraction(rng.randrange(1, 10)))
    return Poly.of(coeffs)


def test_normalization_strips_trailing_zeros():
    assert Poly.of([1, 2, 0, 0]).coeffs == (Fraction(1), Fraction(2))
    assert Poly.of([0, 0]).is_zero
    assert Poly.of([]).degree == -1
    assert Poly.of([0, 0, 3]).degree == 2


def test_coefficients_must_be_exact():
    with pytest.raises(TypeError):
        Poly.of([0.5])
    with pytest.raises(TypeError):
        Poly.of([True, 1])


def test_arithmetic_identities():
    f = Poly.of([1, 0, 1])          # t^2 + 1
    g = Poly.of([-1, 1])            # t - 1
    assert f * g == Poly.of([-1, 1, -1, 1])
    assert f + g == Poly.of([0, 1, 1])
    assert f - f == Poly.of([])
    assert 3 * g == Poly.of([-3, 3])
    assert power(T + ONE, 4) == Poly.of([1, 4, 6, 4, 1])


def test_gcd_divides_common_factor():
    rng = random.Random(23)
    for _ in range(40):
        f = random_poly(rng, 3)
        g = random_poly(rng, 3)
        h = random_poly(rng, 3)
        if h.is_zero or f.is_zero or g.is_zero:
            continue
        d = _monic(_gcd_ints((f * h).ints, (g * h).ints))
        assert not fraction_divmod(d.coeffs, h.coeffs)[1]


def test_gcd_edge_cases():
    assert _monic(_gcd_ints(Poly.of([2]).ints, (T * 5).ints)) == ONE


def test_derivative_and_monic():
    f = Poly.of([0, -2, 0, 1])      # t^3 - 2t
    assert f.derivative() == Poly.of([-2, 0, 3])
    assert _monic((f * 4).ints) == f


def test_uniform_valuations_counts_multiplicity_at_a_root():
    f = power(T - 2 * ONE, 3) * (T + ONE)
    assert uniform_valuations(f, T - 2 * ONE) == [(T - 2 * ONE, 3)]
    assert uniform_valuations(f, T + ONE) == [(T + ONE, 1)]
    assert uniform_valuations(f, T) == [(T, 0)]
    with pytest.raises(ValueError):
        uniform_valuations(Poly.of([]), T - ONE)


def test_squarefree_parts_reconstructs():
    f = t_power(3) * power(T - ONE, 2) * (T + 2 * ONE) * 6
    unit, parts = squarefree_parts(f)
    assert unit == 6
    assert [(str(p), m) for p, m in parts] == [("t + 2", 1), ("t - 1", 2), ("t", 3)]
    rebuilt = Poly.constant(unit)
    for piece, mult in parts:
        rebuilt = rebuilt * power(piece, mult)
    assert rebuilt == f


def test_squarefree_parts_trivial_cases():
    unit, parts = squarefree_parts(Poly.constant(-5))
    assert unit == -5 and parts == []
    with pytest.raises(ValueError):
        squarefree_parts(Poly.of([]))


def test_uniform_valuations_splits_modulus():
    seventh = t_power(7) - 2 * ONE
    f = t_power(3) * seventh * seventh * (T + ONE)
    modulus = T * seventh * (T + ONE) * (T - 5 * ONE)
    split = uniform_valuations(f, modulus)
    assert [(str(p), v) for p, v in split] == [
        ("t - 5", 0), ("t + 1", 1), ("t^7 - 2", 2), ("t", 3)]
    # pieces jointly recover the modulus
    product = ONE
    for piece, _ in split:
        product = product * piece
    assert product == _monic(modulus.ints)


def test_uniform_valuations_nonvanishing():
    split = uniform_valuations(ONE * 3, T * (T - ONE))
    assert [(str(p), v) for p, v in split] == [("t^2 - t", 0)]
    with pytest.raises(ValueError):
        uniform_valuations(Poly.of([]), T)
    with pytest.raises(ValueError):
        uniform_valuations(T, Poly.of([]))


def test_extract_rational_roots():
    f = T * (T - 2 * ONE) * (2 * T + ONE) * (T * T + ONE)
    roots, cofactor = extract_rational_roots(f)
    assert roots == [Fraction(-1, 2), Fraction(0), Fraction(2)]
    assert _monic(cofactor.ints) == T * T + ONE
    roots, cofactor = extract_rational_roots(T * T + ONE)
    assert roots == [] and cofactor == T * T + ONE


def test_format_poly():
    assert format_poly(t_power(7) - 2 * ONE) == "t^7 - 2"
    assert format_poly(t_power(7, 27) + 4 * ONE) == "27*t^7 + 4"
    assert format_poly(Poly.of([])) == "0"
    assert format_poly(Poly.constant(-5)) == "-5"
    assert format_poly(t_power(14, -432) + t_power(7, 864)) == "-432*t^14 + 864*t^7"
    assert format_poly(ONE - T) == "-t + 1"
    assert format_poly(Poly.of([Fraction(-5, 3), 0, Fraction(2, 9)])) == "2/9*t^2 - 5/3"
    assert format_poly(Poly.of([0, Fraction(-1, 2)])) == "-1/2*t"
    assert format_poly(Poly.of([Fraction(3, 7)])) == "3/7"
    assert format_poly(Poly.of([Fraction(1, 6), Fraction(-1, 4), Fraction(2, 3)])) \
        == "2/3*t^2 - 1/4*t + 1/6"
    assert str(t_power(2)) == "t^2"
