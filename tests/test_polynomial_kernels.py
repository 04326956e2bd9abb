"""Generated checks of the integer root and gcd kernels against the
divisor-enumeration and Fraction-Euclid oracles."""

import random
import signal
from contextlib import contextmanager
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from k3lattices import fibration, polynomials
from k3lattices.fibration import WeierstrassModel
from k3lattices.fixtures import NS_RANK
from k3lattices.polynomials import Poly, extract_rational_roots, squarefree_parts

from oracles import (
    coefficients,
    divisor_rational_roots,
    euclid_gcd,
    fraction_divmod,
    fraction_product,
)


def kernel_gcd(a, b):
    """The monic gcd of two nonzero polynomials by the package's gcd kernel."""
    return polynomials._monic(polynomials._gcd_ints(a.ints, b.ints))


def product(factors):
    """The product of polynomials by the Fraction product oracle."""
    return Poly.of(fraction_product(*[coefficients(f) for f in factors]))


def exact_quotient(f, g):
    """f / g by the Fraction long division oracle, for a g that divides f."""
    quot, rem = fraction_divmod(coefficients(f), coefficients(g))
    assert not rem
    return Poly.of(quot)


def linear(a, b):
    """b*t - a, whose root is a/b."""
    return Poly.of([-a, b])


class NoAnswer(BaseException):
    """A BaseException, so Hypothesis reports it at once instead of
    shrinking through one more wait per candidate."""


@contextmanager
def ends_within(seconds=20):
    """Fail the test when the block runs longer than seconds, so a root
    search on non-squarefree input that never ends fails the suite
    instead of hanging it."""
    def expire(signum, frame):
        raise NoAnswer(f"no answer within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def check_roots(f, expected):
    """extract_rational_roots(f) against the expected roots, or, when f is
    not squarefree, against the documented ValueError."""
    if len(euclid_gcd(coefficients(f), coefficients(f.derivative()))) > 1:
        with ends_within(), pytest.raises(ValueError, match="squarefree"):
            extract_rational_roots(f)
        return
    roots, cofactor = extract_rational_roots(f)
    assert roots == expected
    rebuilt = product([cofactor] + [Poly.of([-r, 1]) for r in roots])
    assert rebuilt == f
    assert cofactor.leading == f.leading


small = st.integers(-9, 9)
cofactors = st.lists(small, min_size=2, max_size=3).flatmap(
    lambda low: st.sampled_from([1, 2, 3, 6, 30030, 2 * 30030]).map(
        lambda lead: Poly.of(low + [lead])))
linear_factors = st.lists(st.tuples(st.integers(-12, 12), st.integers(1, 8)),
                          max_size=4)
scales = st.sampled_from([Fraction(1), Fraction(-1), Fraction(3, 7), Fraction(-30030, 11)])


@settings(deadline=None, max_examples=80)
@given(factors=linear_factors, cofactor=cofactors, scale=scales)
def test_roots_of_linear_factors_times_a_cofactor(factors, cofactor, scale):
    f = product([linear(a, b) for a, b in factors] + [cofactor, Poly.constant(scale)])
    expected = {Fraction(a, b) for a, b in factors}
    expected |= set(divisor_rational_roots(coefficients(cofactor)))
    check_roots(f, sorted(expected))


prime_powers = st.tuples(st.sampled_from([2, 3, 5, 7, 11, 13]), st.integers(0, 6)).map(
    lambda pe: pe[0] ** pe[1])


@settings(deadline=None, max_examples=60)
@given(roots=st.lists(st.tuples(prime_powers, prime_powers, st.sampled_from([1, -1])),
                      min_size=1, max_size=3),
       cofactor=cofactors)
def test_roots_with_prime_power_numerators_and_denominators(roots, cofactor):
    f = product([linear(sign * a, b) for a, b, sign in roots] + [cofactor])
    expected = {Fraction(sign * a, b) for a, b, sign in roots}
    expected |= set(divisor_rational_roots(coefficients(cofactor)))
    check_roots(f, sorted(expected))


@settings(deadline=None, max_examples=80)
@given(coeffs=st.lists(st.integers(-40, 40), min_size=1, max_size=7))
def test_roots_of_random_integer_polynomials(coeffs):
    f = Poly.of(coeffs)
    if f.is_zero:
        with pytest.raises(ValueError):
            extract_rational_roots(f)
        return
    check_roots(f, divisor_rational_roots(coefficients(f)))


def test_prime_search_skips_primes_dividing_the_leading_coefficient():
    # every prime up to 13 divides 30030, so the search starts at 17
    rng = random.Random(5)
    for _ in range(40):
        factors = [(rng.randint(-50, 50), rng.choice([1, 7, 11, 13, 143, 1001]))
                   for _ in range(rng.randint(1, 3))]
        cofactor = Poly.of([rng.randint(1, 99), 0, 30030])
        f = product([linear(a, b) for a, b in factors] + [cofactor])
        expected = sorted({Fraction(a, b) for a, b in factors})
        check_roots(f, expected)


def test_squarefree_input_with_repeated_roots_mod_small_primes():
    # t^2 + 1 = (t + 1)^2 mod 2, so the search skips 2 and answers mod 3
    f = Poly.of(fraction_product([-2, 1], [1, 0, 1]))
    roots, cofactor = extract_rational_roots(f)
    assert roots == [Fraction(2)]
    assert cofactor == Poly.of([1, 0, 1])


@pytest.mark.parametrize("f", [
    Poly.of(fraction_product([0, 1], [0, 1], [-1, 1], [-1, 1], [-1, 1], [1, 0, 1])),
    Poly.of(fraction_product([-1, 1], [-1, 1])),
    Poly.of(fraction_product([0, 1], [0, 1], [5, 1])),
    Poly.of(fraction_product([-1, 3], [-1, 3], [2, 0, 30030])),
], ids=["t2-t1cubed-t2p1", "t1-squared", "t-squared", "third-squared-30030"])
def test_repeated_rational_root_raises(f):
    with ends_within(), pytest.raises(ValueError, match="squarefree"):
        extract_rational_roots(f)


def test_repeated_irrational_factor_ends():
    # no repeated rational root, so the prime search alone would answer;
    # the gcd up front rejects it all the same
    f = Poly.of(fraction_product([1, 0, 1], [1, 0, 1], [-3, 1]))
    with ends_within(), pytest.raises(ValueError, match="squarefree"):
        extract_rational_roots(f)


def random_poly(rng, degree):
    if degree < 0:
        return Poly.of([])
    coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(degree)]
    return Poly.of(coeffs + [Fraction(rng.choice([1, -2, 3, 30030]), rng.randint(1, 4))])


def test_gcd_matches_fraction_euclid_on_shared_factors():
    rng = random.Random(17)
    for _ in range(150):
        f, g, h = (random_poly(rng, rng.randint(-1, 4)) for _ in range(3))
        a, b = product([f, h]), product([g, h])
        if a.is_zero or b.is_zero:
            continue
        assert coefficients(kernel_gcd(a, b)) == euclid_gcd(coefficients(a), coefficients(b))
        assert coefficients(kernel_gcd(b, a)) == euclid_gcd(coefficients(b), coefficients(a))


@pytest.mark.parametrize("a, b", [
    ([], []), ([], [0, 3]), ([Fraction(5, 2)], []), ([], [Fraction(-4, 3), 2]),
    ([7], [0, 0, 30030]), ([1, 2, 1], [-1, 0, 1]),
])
def test_gcd_with_zero_and_constant_arguments(a, b):
    f, g = Poly.of(a), Poly.of(b)
    if f.is_zero or g.is_zero:
        # the kernel takes nonzero arguments; gcd(f, 0) is f made monic
        rest = g if f.is_zero else f
        assert euclid_gcd(a, b) == ([] if rest.is_zero else coefficients(polynomials._monic(rest.ints)))
    else:
        assert coefficients(kernel_gcd(f, g)) == euclid_gcd(a, b)


fraction_coeffs = st.lists(st.fractions(min_value=-20, max_value=20, max_denominator=12),
                           max_size=5)


@settings(deadline=None, max_examples=80)
@given(f=fraction_coeffs, g=fraction_coeffs, h=fraction_coeffs)
def test_gcd_matches_fraction_euclid_generated(f, g, h):
    a, b = Poly.of(fraction_product(f, h)), Poly.of(fraction_product(g, h))
    assume(not a.is_zero and not b.is_zero)
    assert coefficients(kernel_gcd(a, b)) == euclid_gcd(coefficients(a), coefficients(b))


# --- the gcd's shortcuts: powers of t, and one image mod p ------------------------

P = polynomials._IMAGE_PRIME


@settings(deadline=None, max_examples=80)
@given(a=st.integers(0, 4), b=st.integers(0, 4),
       f=fraction_coeffs, g=fraction_coeffs, h=fraction_coeffs)
def test_gcd_with_powers_of_t_matches_fraction_euclid(a, b, f, g, h):
    x = Poly.of(fraction_product([0] * a + [1], f, h))
    y = Poly.of(fraction_product([0] * b + [1], g, h))
    assume(not x.is_zero and not y.is_zero)
    assert coefficients(kernel_gcd(x, y)) == euclid_gcd(coefficients(x), coefficients(y))


@pytest.mark.parametrize("a, b, gcd", [
    # coprime over Z, equal mod p: the image is not constant
    ([0, 1], [-P, 1], [1]),
    ([1, 1], [1 - P, 1], [1]),
    ([1, 1, 1], [1 - P, 1 - P, 1], [1]),
    # p divides a leading entry, so the image proves nothing
    ([1, P], [1, 1], [1]),
    ([2, 2 * P + 1, P], [1, P], [Fraction(1, P), 1]),
    ([3, 3 * P + 1, P], [1, 1], [1]),
    # the shorter argument is constant mod p
    ([1, 0, 1], [1, P], [1]),
    ([0, 0, 1, 0, 1], [0, 1, P], [0, 1]),
    # constant arguments
    ([5], [1, 2, 1], [1]),
    ([Fraction(-3, 7)], [P], [1]),
    ([0, 0, 1], [7], [1]),
    # shared powers of t
    ([0, 0, 0, 1], [0, 0, 2, 6], [0, 0, 1]),
    ([0, 0, 0, 1, 1], [0, 1, 2, 1], [0, 1, 1]),
])
def test_gcd_cases_the_image_must_not_decide_alone(a, b, gcd):
    for x, y in ((a, b), (b, a)):
        assert coefficients(kernel_gcd(Poly.of(x), Poly.of(y))) == gcd
        assert euclid_gcd(x, y) == gcd


@pytest.fixture
def remainder_calls(monkeypatch):
    calls = []
    remainder = polynomials._primitive_remainder

    def counted(a, b):
        calls.append((a, b))
        return remainder(a, b)

    monkeypatch.setattr(polynomials, "_primitive_remainder", counted)
    return calls


GENERIC = WeierstrassModel(Poly.of([3, -1, 0, 2, 0, 0, 1, 0, -2]),
                           Poly.of([1, 0, 4, -3, 0, 0, 0, 2, 0, 0, -1, 0, 5]))
ADDITIVE = WeierstrassModel(Poly.of([0, 0, -1, 0, 3, 0, 1, 2]),
                            Poly.of([0, 0, 0, 2, 1, 0, 0, -1, 0, 0, 0, 3]))


@pytest.mark.parametrize("model, parts", [(GENERIC, [(24, 1)]), (ADDITIVE, [(16, 1), (1, 6)])],
                         ids=["squarefree", "t6-times-squarefree"])
def test_discriminant_gcds_need_no_remainder_sequence(remainder_calls, model, parts):
    delta = model.discriminant
    g = kernel_gcd(delta, delta.derivative())
    _, pieces = squarefree_parts(delta)
    assert g == Poly.monomial(parts[-1][1] - 1)
    assert [(piece.degree, mult) for piece, mult in pieces] == parts
    assert remainder_calls == []
    # a common factor other than a power of t still runs the sequence
    assert kernel_gcd(Poly.of([2, 3, 1]), Poly.of([3, 4, 1])) == Poly.of([1, 1])
    assert remainder_calls


@pytest.mark.parametrize("model", [GENERIC, ADDITIVE], ids=["squarefree", "t6-times-squarefree"])
def test_classification_splits_only_additive_places(monkeypatch, model):
    # v(Delta) = 1 fixes (v(a4), v(a6)) = (0, 0), and the place t = 0 of
    # ADDITIVE, where v(Delta) = 6, is read off the low-order coefficients,
    # so neither model is split by v(a4) or v(a6), and Yun's loop never
    # sees the factor t^6
    calls, decomposed = [], []
    split, parts = fibration.uniform_valuations, fibration.squarefree_parts

    def counted(f, modulus):
        calls.append(modulus)
        return split(f, modulus)

    def recorded(f):
        decomposed.append(f)
        return parts(f)

    monkeypatch.setattr(fibration, "uniform_valuations", counted)
    monkeypatch.setattr(fibration, "squarefree_parts", recorded)
    analysis = fibration.analyze_k3(model, NS_RANK)
    assert calls == []
    assert [f.ints[0] != 0 for f in decomposed] == [True]
    assert [(r.kodaira, r.count) for r in analysis.fibers if r.place != "inf"] == \
        ([("I1", 24)] if model is GENERIC else [("I0*", 1), ("I1", 16)])


# --- one squarefree proof per piece ---------------------------------------------------

SQUAREFREE_24 = WeierstrassModel(Poly.of([1, 0, 0, 0, 0, 0, 0, 0, 1]),
                                 Poly.of([1] + [0] * 11 + [1]))


def test_a_squarefree_discriminant_is_proved_squarefree_once(monkeypatch):
    # a4 = 1 + t^8, a6 = 1 + t^12: Delta is squarefree of degree 24 and
    # has repeated roots mod small primes, yet only Yun's gcd(Delta,
    # Delta') may build an image mod p
    calls = []
    image = polynomials._constant_image

    def counted(x, y):
        calls.append((x, y))
        return image(x, y)

    monkeypatch.setattr(polynomials, "_constant_image", counted)
    analysis = fibration.analyze_k3(SQUAREFREE_24, NS_RANK)
    assert len(calls) == 1
    assert [(r.kodaira, r.count) for r in analysis.fibers] == [("I1", 24)]


def full_yun_loop(f):
    """Yun's loop with every step run, also when gcd(f, f') = 1."""
    g = kernel_gcd(f, f.derivative())
    w, out, mult = exact_quotient(f, g), [], 1
    while w.degree > 0:
        y = kernel_gcd(w, g)
        piece = exact_quotient(w, y)
        if piece.degree > 0:
            out.append((polynomials._monic(piece.ints), mult))
        w, g, mult = y, exact_quotient(g, y), mult + 1
    return f.leading, out


@pytest.mark.parametrize("model", [SQUAREFREE_24, ADDITIVE],
                         ids=["squarefree", "t6-times-squarefree"])
def test_squarefree_parts_match_the_full_yun_loop(model):
    delta = model.discriminant
    assert squarefree_parts(delta) == full_yun_loop(delta)
