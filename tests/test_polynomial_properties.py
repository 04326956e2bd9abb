"""Generated checks of Poly normal forms, gcd, Yun splitting, valuation
refinement and the rational-root cofactor against the Fraction oracles.

The polynomials have rational content other than 1 and, half the time, a
negative leading coefficient: the integer-plus-content storage keeps the
content and the sign apart from the coefficients, and that bookkeeping is
what these tests compare with term-by-term Fraction arithmetic.
"""

from fractions import Fraction

from hypothesis import assume, given, settings, strategies as st

from k3lattices.polynomials import (
    Poly,
    _gcd_ints,
    _monic,
    extract_rational_roots,
    squarefree_parts,
    uniform_valuations,
)

from oracles import (
    coefficients,
    divisor_rational_roots,
    euclid_gcd,
    fraction_divmod,
    fraction_product,
    fraction_sum,
    squarefree_by_derivative_gcds,
    valuation_layers,
)

contents = st.builds(Fraction, st.integers(-60, 60).filter(bool), st.integers(1, 60))
integer_lists = st.lists(st.integers(-9, 9), max_size=6)
rational_lists = st.builds(lambda cs, c, k: [Fraction(x * k) * c for x in cs],
                           integer_lists, contents, st.sampled_from([1, 2, 6, 35]))
# pairwise coprime irreducible factors, so products of distinct ones are squarefree
IRREDUCIBLE = [[0, 1], [-1, 1], [2, 1], [-1, 2], [3, 5], [-2, 0, 1], [1, 0, 1],
               [-3, 0, 0, 1], [1, 1, 1], [7, 0, 0, 0, 3]]
multiplicities = st.dictionaries(st.integers(0, len(IRREDUCIBLE) - 1),
                                 st.integers(1, 3), max_size=3)


def coeffs_of(p):
    """The coefficient list of a Poly, checking that each is a Fraction and
    that p is stored in the one normal form Poly.of gives."""
    cs = coefficients(p)
    assert all(type(c) is Fraction for c in cs)
    assert Poly.of(cs) == p
    return cs


def power_product(mults, content):
    factors = [IRREDUCIBLE[i] for i, m in mults.items() for _ in range(m)]
    return [c * content for c in fraction_product(*factors)]


@settings(deadline=None, max_examples=120)
@given(a=rational_lists, b=rational_lists, common=rational_lists)
def test_gcd_matches_fraction_euclid(a, b, common):
    # the normal form of Poly.of: the trimmed list, its monic form and leading entry
    f = Poly.of(a)
    assert coeffs_of(f) == fraction_sum(a, [])
    if not f.is_zero:
        assert coeffs_of(_monic(f.ints)) == [c / f.leading for c in coeffs_of(f)]
        assert f.leading == fraction_sum(a, [])[-1]
    f, g = Poly.of(fraction_product(a, common)), Poly.of(fraction_product(b, common))
    assume(not f.is_zero and not g.is_zero)
    assert coeffs_of(_monic(_gcd_ints(f.ints, g.ints))) == euclid_gcd(coeffs_of(f), coeffs_of(g))


@settings(deadline=None, max_examples=100)
@given(mults=multiplicities, content=contents, extra=rational_lists)
def test_squarefree_parts_match_derivative_gcds(mults, content, extra):
    f = power_product(mults, content)
    if any(extra):
        f = fraction_product(f, extra)
    unit, pieces = squarefree_parts(Poly.of(f))
    want_unit, want_pieces = squarefree_by_derivative_gcds(f)
    assert type(unit) is Fraction and unit == want_unit
    assert [m for _, m in pieces] == sorted(want_pieces)
    assert {m: coeffs_of(p) for p, m in pieces} == want_pieces


@settings(deadline=None, max_examples=100)
@given(mults=multiplicities, content=contents, chosen=st.sets(st.integers(0, 9), min_size=1),
       modulus_content=contents, extra=rational_lists)
def test_uniform_valuations_match_derivative_gcds(mults, content, chosen,
                                                   modulus_content, extra):
    f = power_product(mults, content)
    if any(extra):
        f = fraction_product(f, extra)
    modulus = [c * modulus_content for c in fraction_product(*[IRREDUCIBLE[i] for i in chosen])]
    split = uniform_valuations(Poly.of(f), Poly.of(modulus))
    assert [v for _, v in split] == sorted({v for _, v in split})
    assert {v: coeffs_of(p) for p, v in split} == valuation_layers(f, modulus)


linear_roots = st.sets(st.tuples(st.integers(-12, 12), st.integers(1, 8)).map(
    lambda ab: Fraction(*ab)), max_size=4)


@settings(deadline=None, max_examples=100)
@given(roots=linear_roots, cofactor=integer_lists, content=contents)
def test_rational_root_cofactor_matches_division(roots, cofactor, content):
    lines = [[-r.numerator, r.denominator] for r in roots]
    f = [c * content for c in fraction_product(*lines, cofactor)]
    assume(f and len(euclid_gcd(f, [k * c for k, c in enumerate(f)][1:])) == 1)
    found, rest = extract_rational_roots(Poly.of(f))
    assert found == sorted(roots | set(divisor_rational_roots(cofactor)))
    quot, rem = fraction_divmod(f, fraction_product(*[[-r, 1] for r in found]))
    assert not rem
    assert coeffs_of(rest) == quot
    assert all(type(r) is Fraction for r in found)
