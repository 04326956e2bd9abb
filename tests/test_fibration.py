"""Tests for Weierstrass models, fiber classification, and the
intersection-lattice builder."""

import json
import re
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from k3lattices.fibration import (
    FiberSpec,
    FibrationModel,
    FiberGraph,
    NonMinimalModelError,
    WeierstrassModel,
    _valuations_at_zero,
    analyze_k3,
    build_neron_severi,
    check_affine,
    extract_chain,
    fiber_graph,
    fiber_specs_from_json,
    kodaira_data,
    weierstrass_from_data,
)
from k3lattices.fixtures import (
    CHAINS,
    NS_RANK,
    reference_fibration,
    reference_neron_severi,
    weierstrass_model,
)
from k3lattices.lattices import make_named, signature
from k3lattices.polynomials import Poly

from oracles import (
    coefficients,
    fraction_product,
    fraction_sum,
    gauss_det,
    weierstrass_discriminant,
    weierstrass_symbols,
)

T = Poly.monomial(1)
ONE = Poly.constant(1)


def value_at(f, x):
    """f(x), one Fraction term per coefficient."""
    return sum(c * x ** k for k, c in enumerate(coefficients(f)))


# --- discriminants -------------------------------------------------------

def test_discriminant_first_model():
    w = weierstrass_model("i7e8")
    delta = w.discriminant
    assert {k: int(c) for k, c in enumerate(coefficients(delta)) if c} == {7: 864, 14: -432}
    # independent check: at t = 2, -432*t^7*(t^7 - 2) = -432 * 128 * 126
    assert value_at(delta, 2) == -432 * 128 * 126
    assert value_at(delta, 0) == 0


def test_discriminant_second_model():
    delta = weierstrass_model("e7e6").discriminant
    assert {k: int(c) for k, c in enumerate(coefficients(delta)) if c} == {9: -64, 16: -432}
    # -16 * (4*t^9 + 27*t^16) at t = 1
    assert value_at(delta, 1) == -16 * 31


def test_discriminant_constant_model():
    w = WeierstrassModel(ONE, Poly.constant(0))
    assert w.discriminant == Poly.constant(-64)
    w = WeierstrassModel(Poly.constant(0), ONE)
    assert w.discriminant == Poly.constant(-432)


exact_rationals = st.one_of(
    st.integers(-99, 99),
    st.integers(-10 ** 40, 10 ** 40),
    st.fractions(min_value=-99, max_value=99, max_denominator=10 ** 6))
a4_scales = st.sampled_from([1, 2, -1, Fraction(-27, 4), Fraction(5, 12), 10 ** 30])


@settings(deadline=None, max_examples=200)
@given(a4=st.lists(exact_rationals, max_size=9), a6=st.lists(exact_rationals, max_size=13),
       a4_scale_cubed=a4_scales, a4_cubed=st.one_of(st.none(), exact_rationals))
@example(a4=[], a6=[0, Fraction(1, 3)], a4_scale_cubed=2, a4_cubed=None)
@example(a4=[Fraction(-5, 7)], a6=[0, 0], a4_scale_cubed=1, a4_cubed=None)
@example(a4=[], a6=[], a4_scale_cubed=1, a4_cubed=None)
@example(a4=[0], a6=[0, 0], a4_scale_cubed=Fraction(-27, 4), a4_cubed=None)
@example(a4=[], a6=[], a4_scale_cubed=1, a4_cubed=0)
def test_discriminant_matches_the_fraction_oracle(a4, a6, a4_scale_cubed, a4_cubed):
    # a4 of degree <= 8 and a6 of degree <= 12, with integer or rational
    # coefficients, either one or both zero, and models built by from_a4_cubed
    if a4_cubed is None:
        def build():
            return WeierstrassModel(Poly.of(a4), Poly.of(a6), "", a4_scale_cubed)
    else:
        def build():
            return WeierstrassModel.from_a4_cubed(a4_cubed, Poly.of(a6))
        a4, a4_scale_cubed = [1 if a4_cubed else 0], a4_cubed or 1
    expected = weierstrass_discriminant(a4, a6, a4_scale_cubed)
    if not expected:
        with pytest.raises(ValueError, match="the discriminant vanishes identically"):
            build()
        return
    assert build().discriminant == Poly.of(expected)


def test_model_validation():
    with pytest.raises(ValueError):
        WeierstrassModel(Poly.monomial(9), ONE)
    with pytest.raises(ValueError):
        WeierstrassModel(Poly.constant(0), Poly.monomial(13))
    with pytest.raises(ValueError):
        # 4 a4^3 + 27 a6^2 = 0 identically
        WeierstrassModel(Poly.constant(-3), Poly.constant(2))
    with pytest.raises(ValueError, match="a4_scale_cubed must be nonzero"):
        WeierstrassModel(ONE, ONE, "", 0)


def test_a4_scale_changes_the_discriminant_not_the_valuations():
    # y^2 = x^3 + c t x + t^2 with c^3 = 2: Delta = -16 (8 t^3 + 27 t^4)
    w = WeierstrassModel(T, Poly.monomial(2), "", 2)
    assert w.discriminant == Poly.of([0, 0, 0, -128, -432])
    assert [(r.place, r.kodaira) for r in analyze_k3(w, NS_RANK).fibers] \
        == [("-8/27", "I1"), ("0", "III")]


# --- Kodaira classification ----------------------------------------------

def _place(w, place):
    [report] = [r for r in analyze_k3(w, NS_RANK).fibers if r.place == place]
    return report


def test_classify_known_places():
    w = weierstrass_model("i7e8")
    zero = _place(w, "0")
    assert (zero.kodaira, *kodaira_data(zero.kodaira)) == ("I7", 7, 7, "A6")
    inf = _place(w, "inf")
    assert (inf.kodaira, *kodaira_data(inf.kodaira)) == ("II*", 10, 9, "E8")

    w = weierstrass_model("e7e6")
    zero = _place(w, "0")
    euler, _, root = kodaira_data(zero.kodaira)
    assert (zero.kodaira, euler, root) == ("III*", 9, "E7")
    inf = _place(w, "inf")
    euler, _, root = kodaira_data(inf.kodaira)
    assert (inf.kodaira, euler, root) == ("IV*", 8, "E6")


def test_classify_a4_identically_zero():
    # y^2 = x^3 + t^5: valuations (inf, 5, 10) at the origin
    w = WeierstrassModel(Poly.constant(0), Poly.monomial(5))
    report = _place(w, "0")
    assert (report.kodaira, kodaira_data(report.kodaira)[0]) == ("II*", 10)


def test_non_minimal_place_raises_with_hint():
    w = WeierstrassModel(Poly.monomial(4), Poly.monomial(6))
    with pytest.raises(NonMinimalModelError, match="x -> u\\^2 x"):
        analyze_k3(w, NS_RANK)


def test_non_minimal_at_infinity_becomes_note():
    w = WeierstrassModel(Poly.of([1, 0, 0, 0, 1]), Poly.monomial(6))
    analysis = analyze_k3(w, NS_RANK)
    assert any("infinity" in note for note in analysis.notes)
    assert not analysis.euler_ok
    assert not analysis.consistent


def test_kodaira_catalog():
    assert kodaira_data("I0") == (0, 1, None)
    assert kodaira_data("I1") == (1, 1, None)
    assert kodaira_data("I2") == (2, 2, "A1")
    assert kodaira_data("I7") == (7, 7, "A6")
    assert kodaira_data("II") == (2, 1, None)
    assert kodaira_data("III") == (3, 2, "A1")
    assert kodaira_data("IV") == (4, 3, "A2")
    assert kodaira_data("I0*") == (6, 5, "D4")
    assert kodaira_data("I3*") == (9, 8, "D7")
    assert kodaira_data("IV*") == (8, 7, "E6")
    assert kodaira_data("III*") == (9, 8, "E7")
    assert kodaira_data("II*") == (10, 9, "E8")
    with pytest.raises(ValueError):
        kodaira_data("V")
    with pytest.raises(ValueError):
        kodaira_data("I-1")


# --- full analyses --------------------------------------------------------

def test_analyze_first_model():
    analysis = analyze_k3(weierstrass_model("i7e8"), NS_RANK)
    shape = [(r.place, r.kodaira, r.count) for r in analysis.fibers]
    assert shape == [("0", "I7", 1), ("t^7 - 2", "I1", 7), ("inf", "II*", 1)]
    assert analysis.euler_total == 24
    assert analysis.mw_rank == 0
    assert analysis.consistent


def test_analyze_second_model():
    analysis = analyze_k3(weierstrass_model("e7e6"), NS_RANK)
    shape = [(r.place, r.kodaira, r.count) for r in analysis.fibers]
    assert shape == [("0", "III*", 1), ("27*t^7 + 4", "I1", 7), ("inf", "IV*", 1)]
    assert analysis.euler_total == 24
    assert analysis.mw_rank == 1
    assert analysis.consistent


def test_analyze_rational_singular_points():
    # y^2 = x^3 + x + t^2: nodal fibers where -16(4 + 27 t^4) has roots;
    # all roots are irrational, so one handle of four I1 fibers remains
    w = WeierstrassModel(ONE, Poly.monomial(2))
    analysis = analyze_k3(w, NS_RANK)
    assert [(r.place, r.kodaira, r.count) for r in analysis.fibers] \
        == [("27*t^4 + 4", "I1", 4)]
    assert analysis.euler_total == 4
    assert not analysis.consistent


def test_analyze_trivial_model_flags():
    w = WeierstrassModel(ONE, Poly.constant(0))
    analysis = analyze_k3(w, NS_RANK)
    assert analysis.euler_total == 0
    assert not analysis.euler_ok
    assert not analysis.consistent


def _reports(analysis):
    return [(r.place, r.kodaira, *kodaira_data(r.kodaira), r.count)
            for r in analysis.fibers]


def test_analyze_piece_with_rational_and_irrational_roots():
    # Delta = -8 t^2 (t^2 + 1)^2 (216 t^4 + ...): one Yun piece of
    # multiplicity 2 holds both the root 0 and the factor t^2 + 1
    w = weierstrass_from_data(
        {"a4": ["0", "1/2", "0", "1/2"], "a6": ["0", "8", "8", "10", "8", "2"]})
    analysis = analyze_k3(w, NS_RANK)
    assert _reports(analysis) == [
        ("0", "II", 2, 1, None, 1),
        ("216*t^4 + 1729*t^3 + 5184*t^2 + 6913*t + 3456", "I1", 1, 1, None, 4),
        ("t^2 + 1", "II", 2, 1, None, 2),
    ]
    assert analysis.euler_total == 10
    assert analysis.mw_rank == 14
    assert analysis.notes == ("place at infinity skipped: model is not minimal "
                              "here; substitute x -> u^2 x, y -> u^3 y to divide "
                              "(a4, a6) by (u^4, u^6) and retry",)


A4_ZERO = {"a4": [], "a6": ["4", "2", "6", "3", "0", "0", "-2", "-1"]}


def test_analyze_model_without_a4():
    w = weierstrass_from_data(A4_ZERO)
    analysis = analyze_k3(w, NS_RANK)
    assert _reports(analysis) == [
        ("-2", "II", 2, 1, None, 1),
        ("t^2 + 1", "IV", 4, 3, "A2", 2),
        ("t^2 - 2", "II", 2, 1, None, 2),
        ("inf", "II*", 10, 9, "E8", 1),
    ]
    assert (analysis.euler_total, analysis.mw_rank, analysis.notes) == (24, 2, ())


def test_discriminant_is_built_once_per_model():
    w = weierstrass_model("i7e8")
    assert w.discriminant is w.discriminant


# --- fiber graphs ---------------------------------------------------------

def test_fiber_graphs_satisfy_affine_balance():
    for tag in ("I1", "I2", "I3", "I4", "I7", "II", "III", "IV",
                "I0*", "I1*", "I4*", "IV*", "III*", "II*"):
        check_affine(fiber_graph(tag))


def test_fiber_graph_counts_match_catalog():
    for tag in ("I1", "I2", "I3", "I5", "III", "IV", "I0*", "I1*", "I2*", "I3*", "I4*",
                "IV*", "III*", "II*"):
        graph = fiber_graph(tag)
        assert len(graph.multiplicities) == kodaira_data(tag)[1]


_CHAIN = ((0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 4, 1), (4, 5, 1), (5, 6, 1), (6, 7, 1),
          (7, 8, 1))

# tag: (kodaira_data, multiplicities, edges) as literals, so that any change to the
# Kodaira catalogue shows here
PINNED_CATALOGUE = {
    "I1": ((1, 1, None), (1,), ()),
    "I2": ((2, 2, "A1"), (1, 1), ((0, 1, 2),)),
    "I3": ((3, 3, "A2"), (1, 1, 1), ((0, 1, 1), (1, 2, 1), (0, 2, 1))),
    "I4": ((4, 4, "A3"), (1,) * 4, _CHAIN[:3] + ((3, 0, 1),)),
    "I5": ((5, 5, "A4"), (1,) * 5, _CHAIN[:4] + ((4, 0, 1),)),
    "I6": ((6, 6, "A5"), (1,) * 6, _CHAIN[:5] + ((5, 0, 1),)),
    "I7": ((7, 7, "A6"), (1,) * 7, _CHAIN[:6] + ((6, 0, 1),)),
    "I8": ((8, 8, "A7"), (1,) * 8, _CHAIN[:7] + ((7, 0, 1),)),
    "I9": ((9, 9, "A8"), (1,) * 9, _CHAIN + ((8, 0, 1),)),
    "I0*": ((6, 5, "D4"), (1, 1, 2, 1, 1),
            ((0, 2, 1), (1, 2, 1), (2, 3, 1), (2, 4, 1))),
    "I1*": ((7, 6, "D5"), (1, 1, 2, 2, 1, 1),
            ((0, 2, 1), (1, 2, 1), (2, 3, 1), (3, 4, 1), (3, 5, 1))),
    "I2*": ((8, 7, "D6"), (1, 1, 2, 2, 2, 1, 1),
            ((0, 2, 1), (1, 2, 1), (2, 3, 1), (3, 4, 1), (4, 5, 1), (4, 6, 1))),
    "I3*": ((9, 8, "D7"), (1, 1, 2, 2, 2, 2, 1, 1),
            ((0, 2, 1), (1, 2, 1), (2, 3, 1), (3, 4, 1), (4, 5, 1), (5, 6, 1),
             (5, 7, 1))),
    "I4*": ((10, 9, "D8"), (1, 1, 2, 2, 2, 2, 2, 1, 1),
            ((0, 2, 1), (1, 2, 1), (2, 3, 1), (3, 4, 1), (4, 5, 1), (5, 6, 1),
             (6, 7, 1), (6, 8, 1))),
    "II": ((2, 1, None), (1,), ()),
    "III": ((3, 2, "A1"), (1, 1), ((0, 1, 2),)),
    "IV": ((4, 3, "A2"), (1, 1, 1), ((0, 1, 1), (1, 2, 1), (0, 2, 1))),
    "IV*": ((8, 7, "E6"), (1, 2, 3, 2, 1, 2, 1),
            ((0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 4, 1), (2, 5, 1), (5, 6, 1))),
    "III*": ((9, 8, "E7"), (1, 2, 3, 4, 3, 2, 1, 2), _CHAIN[:6] + ((3, 7, 1),)),
    "II*": ((10, 9, "E8"), (1, 2, 3, 4, 5, 6, 4, 2, 3), _CHAIN[:7] + ((5, 8, 1),)),
}


@pytest.mark.parametrize("tag", PINNED_CATALOGUE)
def test_catalogue_is_pinned(tag):
    data, multiplicities, edges = PINNED_CATALOGUE[tag]
    assert kodaira_data(tag) == data
    assert fiber_graph(tag) == FiberGraph(multiplicities, edges)


def test_i0_has_no_dual_graph():
    with pytest.raises(ValueError, match=r"^no dual graph for 'I0'$"):
        fiber_graph("I0")


@pytest.mark.parametrize("tag", ["I١٢", "I06", "I7\n", "I00", "I01*", "V",
                                 "I-1", "i7", " I7", "II**", ""])
def test_non_canonical_tags_are_unknown(tag):
    message = f"^unknown Kodaira type {re.escape(repr(tag))}$"
    with pytest.raises(ValueError, match=message):
        kodaira_data(tag)
    with pytest.raises(ValueError, match=message):
        fiber_graph(tag)


def test_corrupted_graph_fails_affine_check():
    graph = fiber_graph("II*")
    bad = FiberGraph(multiplicities=graph.multiplicities[:-1] + (7,),
                     edges=graph.edges)
    with pytest.raises(ValueError):
        check_affine(bad)


# --- fibration models and the intersection lattice ------------------------

def test_fiber_spec_validation():
    with pytest.raises(ValueError):
        FiberSpec("0", "I2", count=3)       # reducible fibers can't bundle
    with pytest.raises(ValueError):
        FiberSpec("0", "I1", count=0)
    with pytest.raises(ValueError):
        FiberSpec("0", "I2", identity="a", components=("a",))
    with pytest.raises(ValueError):
        FiberSpec("0", "I2", identity="a", components=("a", "a"))
    with pytest.raises(ValueError):
        FiberSpec("0", "I2", identity="S", components=("S", "b"))
    with pytest.raises(ValueError):
        FiberSpec("0", "I2", identity="c", components=("a", "b"))
    with pytest.raises(ValueError):
        # II* component T6 has multiplicity 6, so it cannot meet the section
        FiberSpec("0", "II*", identity="T6",
                  components=tuple(f"T{i}" for i in range(1, 10)))
    with pytest.raises(ValueError):
        FiberSpec("0", "I1", identity="x")


def test_fibration_model_validation():
    i1 = FiberSpec("1", "I1", count=14)
    ii_star = FiberSpec("0", "II*")
    assert FibrationModel((ii_star, i1), 0).ns_rank == 10
    with pytest.raises(ValueError):
        # a lone I7 falls far short of the Euler budget of 24
        FibrationModel((FiberSpec("0", "I7"),), 0)
    with pytest.raises(ValueError):
        FibrationModel((ii_star, i1), -1)
    with pytest.raises(ValueError):
        FibrationModel((ii_star, FiberSpec("0", "I1", count=14)), 0)
    with pytest.raises(ValueError):
        FibrationModel((ii_star, FiberSpec("1", "I1", count=13)), 0)
    with pytest.raises(ValueError):
        # 24 in Euler but two fibers claiming one component label
        FibrationModel((
            FiberSpec("0", "II*", identity="a",
                      components=("a", "b", "c", "d", "e", "f", "g", "h", "i")),
            FiberSpec("1", "II*", identity="a",
                      components=("a", "j", "k", "l", "m", "n", "o", "p", "q")),
            FiberSpec("2", "I1", count=4)), 0)


def test_reference_fibration_is_read_off_the_model():
    assert reference_fibration() == FibrationModel((
        FiberSpec("0", "I7", identity="G7",
                  components=("G1", "G2", "G3", "G4", "G5", "G6", "G7")),
        FiberSpec("t^7 - 2", "I1", count=7),
        FiberSpec("inf", "II*", identity="T1",
                  components=("T1", "T2", "T3", "T4", "T5", "T6", "T7",
                              "T8", "T9")),
    ), mw_rank=0)


def test_reference_neron_severi_invariants():
    ns = reference_neron_severi()
    lat = ns.lattice
    assert lat.rank == 16
    assert lat.det == -7
    assert gauss_det(lat.gram.to_lists()) == -7
    assert lat.is_even
    assert signature(lat) == (1, 15, 0)
    # the basis starts S, F: their classes are the first two unit vectors
    assert ns.vectors["S"] == (1,) + (0,) * 15
    assert ns.vectors["F"] == (0, 1) + (0,) * 14


def test_reference_neron_severi_pairings():
    ns = reference_neron_severi()
    pair = ns.lattice.pairing
    v = ns.vectors
    assert pair(v["S"], v["S"]) == -2
    assert pair(v["S"], v["F"]) == 1
    assert pair(v["F"], v["F"]) == 0
    # the section meets exactly the identity component of each fiber
    assert pair(v["S"], v["G7"]) == 1
    assert pair(v["S"], v["T1"]) == 1
    assert pair(v["S"], v["G1"]) == 0
    assert pair(v["S"], v["T9"]) == 0
    # identity components are honest (-2)-classes with the right neighbors
    assert pair(v["G7"], v["G7"]) == -2
    assert pair(v["G7"], v["G1"]) == 1
    assert pair(v["G7"], v["G6"]) == 1
    assert pair(v["G7"], v["G3"]) == 0
    assert pair(v["T1"], v["T1"]) == -2
    assert pair(v["T1"], v["T2"]) == 1
    assert pair(v["T1"], v["T9"]) == 0
    assert pair(v["T9"], v["T6"]) == 1
    assert pair(v["T9"], v["T8"]) == 0
    # every component is vertical: zero against the fiber class
    for label in ("G1", "G7", "T1", "T9"):
        assert pair(v["F"], v[label]) == 0


def test_build_rejects_positive_mw_rank():
    base = reference_fibration()
    model = FibrationModel(base.fibers, mw_rank=1)
    with pytest.raises(ValueError):
        build_neron_severi(model)


def test_build_needs_component_labels():
    model = FibrationModel(
        (FiberSpec("0", "II*"), FiberSpec("1", "I1", count=14)), 0)
    with pytest.raises(ValueError):
        build_neron_severi(model)


def test_extract_chain_accepts_both_candidates():
    ns = reference_neron_severi()
    expected = make_named("A15").gram
    for labels in CHAINS.values():
        assert extract_chain(ns, labels).induced_gram() == expected


def test_extract_chain_rejects_non_chains():
    ns = reference_neron_severi()
    with pytest.raises(ValueError):
        extract_chain(ns, ("T2", "T4"))     # not adjacent
    with pytest.raises(ValueError):
        extract_chain(ns, ("S", "F"))       # F is not a (-2)-class
    with pytest.raises(ValueError):
        extract_chain(ns, ("T5", "T6", "T9", "T7"))  # T9 . T7 = 0
    with pytest.raises(ValueError):
        extract_chain(ns, ("G1", "nope"))


# --- JSON ------------------------------------------------------------------

def test_weierstrass_json_rejects_malformed():
    for text in ("{}", '{"a6": [1]}', '{"a4": [1], "a4_cubed": "1", "a6": ["1"]}',
                 '{"a4": [0.5], "a6": ["1"]}', '{"a4": "1", "a6": ["1"]}'):
        with pytest.raises(ValueError):
            weierstrass_from_data(json.loads(text))


def test_fibration_json_rejects_malformed():
    for text in ("[]", '{"fibers": [], "mw_rank": true}',
                 '{"fibers": [{"place": "0"}], "mw_rank": 0}',
                 '{"fibers": {}, "mw_rank": 0}'):
        with pytest.raises(ValueError):
            fiber_specs_from_json(json.loads(text))


ADDITIVE_ORDERS = [(1, 1), (1, 2), (2, 2), (2, 3), (3, 4), (3, 5)]


def times_t_minus_1(coeffs, n):
    """coeffs * (t - 1)^n, ascending."""
    for _ in range(n):
        coeffs = fraction_product(coeffs, [-1, 1])
    return coeffs


@st.composite
def weierstrass_coefficients(draw):
    """(a4, a6) as ascending integer lists: generic; t^i * f and t^j * g,
    additive at 0 when f(0) g(0) != 0, and non-minimal there when i >= 4
    and j >= 6; t^i (t - 1)^i * f and t^j (t - 1)^j * g, where 0 and 1
    share one multiplicity of Delta; a zero a4 or a6 beside t^j * g or
    t^i * f; or -3 h^2 and 2 h^3 + t^n * g, where
    Delta = -432 t^n g (4 h^3 + t^n g) makes 0 a place of type I_n when
    h(0) g(0) != 0."""
    small = st.lists(st.integers(-3, 3), min_size=1, max_size=5)
    kind = draw(st.sampled_from(["generic", "additive", "non-minimal", "shared",
                                 "zero", "multiplicative"]))
    if kind == "multiplicative":
        h, g, n = draw(small)[:3], draw(small), draw(st.integers(1, 6))
        a4 = [-3 * c for c in fraction_product(h, h)]
        a6 = fraction_sum([2 * c for c in fraction_product(fraction_product(h, h), h)],
                          [0] * n + g)
        return a4, a6
    if kind == "shared":
        i, j = draw(st.sampled_from(ADDITIVE_ORDERS))
        return (times_t_minus_1([0] * i + draw(small)[:3], i),
                times_t_minus_1([0] * j + draw(small)[:3], j))
    if kind == "zero":
        if draw(st.booleans()):
            return [], [0] * draw(st.integers(1, 7)) + draw(small)
        return [0] * draw(st.integers(1, 4)) + draw(small), []
    if kind == "non-minimal":
        return [0] * 4 + draw(small), [0] * draw(st.integers(6, 7)) + draw(small) + [1]
    i, j = (0, 0) if kind == "generic" else draw(st.sampled_from(ADDITIVE_ORDERS))
    return [0] * i + draw(small), [0] * j + draw(small) + draw(small)[:2]


@settings(deadline=None, max_examples=200)
@given(coeffs=weierstrass_coefficients())
def test_analyze_k3_matches_the_valuation_oracle(coeffs):
    a4, a6 = coeffs
    try:
        w = WeierstrassModel(Poly.of(a4), Poly.of(a6))
    except ValueError:      # the discriminant vanishes identically
        assume(False)
    expected = weierstrass_symbols(a4, a6)
    if "non-minimal" in [s for place, s in expected.items() if place != "inf"]:
        with pytest.raises(NonMinimalModelError):
            analyze_k3(w, NS_RANK)
        return
    analysis = analyze_k3(w, NS_RANK)
    if expected.get("inf") == "non-minimal":
        del expected["inf"]
        assert [n.split(":")[0] for n in analysis.notes] == ["place at infinity skipped"]
    rational = {r.place if r.place == "inf" else Fraction(r.place): r.kodaira
                for r in analysis.fibers if "t" not in r.place or r.place == "inf"}
    assert rational == expected
    finite = [r for r in analysis.fibers if r.place != "inf"]
    euler = sum(kodaira_data(r.kodaira)[0] * r.count for r in finite)
    assert euler == w.discriminant.degree


def test_valuations_at_zero_are_read_off_the_low_order_coefficients():
    assert _valuations_at_zero(weierstrass_model("i7e8")) == (0, 0, 7)
    assert _valuations_at_zero(weierstrass_model("e7e6")) == (3, 8, 9)
    assert _valuations_at_zero(WeierstrassModel(Poly.of([]), Poly.monomial(5))) == (None, 5, 10)
