"""Tests for the exact polynomial toolkit."""

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

from oracles import coefficients, fraction_divmod, fraction_product


def t_power(k, coeff=1):
    return Poly.monomial(k, coeff)


T = t_power(1)
ONE = Poly.constant(1)
T_MINUS_2 = Poly.of([-2, 1])
T_PLUS_1 = Poly.of([1, 1])


def product(*factors):
    """The product of coefficient lists by the Fraction oracle, as a Poly."""
    return Poly.of(fraction_product(*factors))


def random_poly(rng, max_degree=6):
    degree = rng.randrange(-1, max_degree + 1)
    if degree < 0:
        return Poly.of([])
    coeffs = [Fraction(rng.randrange(-9, 10), rng.randrange(1, 5))
              for _ in range(degree)]
    coeffs.append(Fraction(rng.randrange(1, 10)))
    return Poly.of(coeffs)


def test_normalization_strips_trailing_zeros():
    assert coefficients(Poly.of([1, 2, 0, 0])) == [Fraction(1), Fraction(2)]
    assert Poly.of([0, 0]).is_zero
    assert Poly.of([]).degree == -1
    assert Poly.of([0, 0, 3]).degree == 2


def test_coefficients_must_be_exact():
    with pytest.raises(TypeError):
        Poly.of([0.5])
    with pytest.raises(TypeError):
        Poly.of([True, 1])


def test_gcd_divides_common_factor():
    rng = random.Random(23)
    for _ in range(40):
        f = random_poly(rng, 3)
        g = random_poly(rng, 3)
        h = random_poly(rng, 3)
        if h.is_zero or f.is_zero or g.is_zero:
            continue
        fh = product(coefficients(f), coefficients(h))
        gh = product(coefficients(g), coefficients(h))
        d = _monic(_gcd_ints(fh.ints, gh.ints))
        assert not fraction_divmod(coefficients(d), coefficients(h))[1]


def test_gcd_edge_cases():
    assert _monic(_gcd_ints(Poly.of([2]).ints, Poly.of([0, 5]).ints)) == ONE


def test_derivative_and_monic():
    f = Poly.of([0, -2, 0, 1])      # t^3 - 2t
    assert f.derivative() == Poly.of([-2, 0, 3])
    assert _monic(Poly.of([0, -8, 0, 4]).ints) == f


def test_uniform_valuations_counts_multiplicity_at_a_root():
    f = product([-2, 1], [-2, 1], [-2, 1], [1, 1])   # (t - 2)^3 (t + 1)
    assert uniform_valuations(f, T_MINUS_2) == [(T_MINUS_2, 3)]
    assert uniform_valuations(f, T_PLUS_1) == [(T_PLUS_1, 1)]
    assert uniform_valuations(f, T) == [(T, 0)]
    with pytest.raises(ValueError):
        uniform_valuations(Poly.of([]), Poly.of([-1, 1]))


def test_squarefree_parts_reconstructs():
    f = product([0, 0, 0, 6], [-1, 1], [-1, 1], [2, 1])   # 6 t^3 (t - 1)^2 (t + 2)
    unit, parts = squarefree_parts(f)
    assert unit == 6
    assert [(format_poly(p), m) for p, m in parts] == [("t + 2", 1), ("t - 1", 2), ("t", 3)]
    rebuilt = product([unit], *[coefficients(piece) for piece, mult in parts
                                for _ in range(mult)])
    assert rebuilt == f


def test_squarefree_parts_trivial_cases():
    unit, parts = squarefree_parts(Poly.constant(-5))
    assert unit == -5 and parts == []
    with pytest.raises(ValueError):
        squarefree_parts(Poly.of([]))


def test_uniform_valuations_splits_modulus():
    seventh = [-2, 0, 0, 0, 0, 0, 0, 1]   # t^7 - 2
    f = product([0, 0, 0, 1], seventh, seventh, [1, 1])
    modulus = product([0, 1], seventh, [1, 1], [-5, 1])
    split = uniform_valuations(f, modulus)
    assert [(format_poly(p), v) for p, v in split] == [
        ("t - 5", 0), ("t + 1", 1), ("t^7 - 2", 2), ("t", 3)]
    # pieces jointly recover the modulus
    assert product(*[coefficients(piece) for piece, _ in split]) == _monic(modulus.ints)


def test_uniform_valuations_nonvanishing():
    split = uniform_valuations(Poly.constant(3), Poly.of([0, -1, 1]))
    assert [(format_poly(p), v) for p, v in split] == [("t^2 - t", 0)]
    with pytest.raises(ValueError):
        uniform_valuations(Poly.of([]), T)
    with pytest.raises(ValueError):
        uniform_valuations(T, Poly.of([]))


def test_extract_rational_roots():
    t2_plus_1 = Poly.of([1, 0, 1])
    f = product([0, 1], [-2, 1], [1, 2], [1, 0, 1])   # t (t - 2) (2t + 1) (t^2 + 1)
    roots, cofactor = extract_rational_roots(f)
    assert roots == [Fraction(-1, 2), Fraction(0), Fraction(2)]
    assert _monic(cofactor.ints) == t2_plus_1
    roots, cofactor = extract_rational_roots(t2_plus_1)
    assert roots == [] and cofactor == t2_plus_1


def test_format_poly():
    assert format_poly(Poly.of([-2, 0, 0, 0, 0, 0, 0, 1])) == "t^7 - 2"
    assert format_poly(Poly.of([4, 0, 0, 0, 0, 0, 0, 27])) == "27*t^7 + 4"
    assert format_poly(Poly.of([])) == "0"
    assert format_poly(Poly.constant(-5)) == "-5"
    assert format_poly(Poly.of([0] * 7 + [864] + [0] * 6 + [-432])) == "-432*t^14 + 864*t^7"
    assert format_poly(Poly.of([1, -1])) == "-t + 1"
    assert format_poly(Poly.of([Fraction(-5, 3), 0, Fraction(2, 9)])) == "2/9*t^2 - 5/3"
    assert format_poly(Poly.of([0, Fraction(-1, 2)])) == "-1/2*t"
    assert format_poly(Poly.of([Fraction(3, 7)])) == "3/7"
    assert format_poly(Poly.of([Fraction(1, 6), Fraction(-1, 4), Fraction(2, 3)])) \
        == "2/3*t^2 - 1/4*t + 1/6"
    assert format_poly(t_power(2)) == "t^2"
