"""Generated checks of the integer discriminant-form path against oracles."""

from fractions import Fraction
from functools import lru_cache

from hypothesis import given, settings, strategies as st

from k3lattices.lattices import direct_sum, discriminant_group, make_named

from oracles import gram_form

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
    v = group.vector(coeffs)
    assert group.q(coeffs) == gram_form(rows, v, v) % 2
    factors = group.invariant_factors
    order = next(k for k in range(1, group.order + 1)
                 if all(k * c % d == 0 for c, d in zip(coeffs, factors)))
    assert group.order_of(coeffs) == order


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
