"""Generated checks of the integer discriminant-form path against oracles."""

import math
from fractions import Fraction
from functools import lru_cache
from operator import mul

from hypothesis import assume, given, settings, strategies as st

from k3lattices.intmat import IntMatrix, hermite_normal_form
from k3lattices.lattices import direct_sum, discriminant_group, make_named
from k3lattices.sublattices import _adjoin, enumerate_even_overlattices

from oracles import gram_form, overlattice_glue_walk

NAMES = ([f"A{n}" for n in range(1, 8)] + ["D4", "D5", "E6", "E7", "K7"]
         + [f"U({m})" for m in range(2, 8)] + [f"Z({2 * k})" for k in range(1, 9)])

lattice_names = st.lists(st.sampled_from(NAMES), min_size=1, max_size=3).map(tuple)


@lru_cache(maxsize=None)
def lattice_and_group(names):
    l = direct_sum(*(make_named(n) for n in names))
    return l, discriminant_group(l)


def coefficient_tuples(group):
    return st.tuples(*(st.integers(-3 * d, 3 * d) for d in group.invariant_factors))


@settings(deadline=None, max_examples=60)
@given(names=lattice_names, data=st.data())
def test_q_and_order_on_coefficients_match_the_oracle(names, data):
    l, group = lattice_and_group(names)
    assert group.order == abs(l.det)
    coeffs = data.draw(coefficient_tuples(group))
    rows = l.gram.to_lists()
    v, q = group.vector(coeffs)
    assert group.q(coeffs) == gram_form(rows, v, v) / q ** 2 % 2
    factors = group.invariant_factors
    order = next(k for k in range(1, group.order + 1)
                 if all(k * c % d == 0 for c, d in zip(coeffs, factors)))
    assert group.order_of(coeffs) == order


def generators(group):
    """The generators as Fraction vectors: numerator columns over their orders."""
    return [[Fraction(x, d) for x in group.numerators.col(i)]
            for i, d in enumerate(group.invariant_factors)]


@settings(deadline=None, max_examples=60)
@given(names=lattice_names, data=st.data())
def test_vector_is_over_its_least_denominator(names, data):
    l, group = lattice_and_group(names)
    coeffs = data.draw(coefficient_tuples(group))
    gens = generators(group)
    want = [sum((c * g[k] for c, g in zip(coeffs, gens)), Fraction(0)) for k in range(l.rank)]
    v, q = group.vector(coeffs)
    assert q == math.lcm(*(x.denominator for x in want))
    assert [Fraction(x, q) for x in v] == want


def test_vector_of_a15_multiples():
    _, group = lattice_and_group(("A15",))
    assert group.vector((0,)) == ((0,) * 15, 1)
    # 16 g is a lattice vector, 8 g a half-integral one
    assert [group.vector((k,))[1] for k in (16, 8, 4, 12, 2, 3)] == [1, 2, 4, 4, 8, 16]


@settings(deadline=None, max_examples=80)
@given(names=lattice_names, data=st.data())
def test_overlattices_match_the_exhaustive_walk(names, data):
    l, group = lattice_and_group(names)
    assume(group.order <= 2048)     # the whole-group walk stopped at 2048 elements
    e = group.exponent
    index = data.draw(st.sampled_from([k for k in range(e, 0, -1) if e % k == 0]))
    rows = l.gram.to_lists()
    want = overlattice_glue_walk(rows, group.invariant_factors, generators(group), index)
    got = enumerate_even_overlattices(l, index)
    assert [tuple([Fraction(x, o.scale) for x in o.glue]) for o in got] == want
    for o, v in zip(got, want):
        q = o.scale
        assert o.index == index and q == math.lcm(*(x.denominator for x in v))
        stacked = [[q if i == j else 0 for j in range(l.rank)] for i in range(l.rank)]
        h, _ = hermite_normal_form(IntMatrix.from_rows(stacked + [list(o.glue)]))
        scaled = _adjoin(l, o.glue, q)
        assert scaled.entries == h.entries[:l.rank]
        left = [[sum(map(mul, row, col)) for col in zip(*rows)] for row in scaled.entries]
        assert o.gram.to_lists() == [[Fraction(sum(map(mul, a, b)), q * q)
                                      for b in scaled.entries] for a in left]


rationals = st.fractions(min_value=-20, max_value=20, max_denominator=30)


@settings(deadline=None, max_examples=60)
@given(names=lattice_names, data=st.data())
def test_pairing_matches_the_oracle(names, data):
    l, _ = lattice_and_group(names)
    v = data.draw(st.lists(rationals | st.integers(-9, 9), min_size=l.rank, max_size=l.rank))
    w = data.draw(st.lists(rationals, min_size=l.rank, max_size=l.rank))
    value = l.pairing(v, w)
    assert isinstance(value, Fraction)
    assert value == gram_form(l.gram.to_lists(), v, w)
