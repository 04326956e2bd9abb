"""Tests for the derived fixed-locus rows and the exponent-walk engine."""

from functools import cache

import pytest
from hypothesis import given, settings, strategies as st

from k3lattices.fixedlocus import (
    FixedLocusProfile,
    count_check,
    fixed_locus_table,
    fixed_pair_search,
    lefschetz_check,
    linear_chain_edges,
    walk_chain,
)
from k3lattices.fixtures import (
    INVARIANT_LATTICES,
    reference_curve_edges,
)
from k3lattices.lattices import discriminant_group, make_named

from oracles import holomorphic_lefschetz_sides, minor_gcd, slot_walk

# the known placement of the thirteen isolated points on the reference
# configuration, grouped by local exponent pair, listed by carrier curves
PLACEMENT_26 = (("G1", "G2"), ("G5", "G6"), ("S", "T1"),
                ("T4", "T5"), ("T7", "T8"), ("T9",))
PLACEMENT_35 = (("G2", "G3"), ("G4", "G5"), ("T1", "T2"),
                ("T3", "T4"), ("T8",))
PLACEMENT_44 = (("G3", "G4"), ("T2", "T3"))


def derived_rows():
    return [fixed_locus_table(make_named(name)) for name in INVARIANT_LATTICES]


# --- rows derived from the invariant lattices -------------------------------

def test_derived_rows_match_the_classification():
    assert list(zip(INVARIANT_LATTICES, derived_rows())) == [
        ("U + K7", FixedLocusProfile(4, 2, 1, 0, (1,))),
        ("U(7) + K7", FixedLocusProfile(4, 2, 1, 0, ())),
        ("U + E8", FixedLocusProfile(10, 4, 3, 1, (1, 0))),
        ("U(7) + E8", FixedLocusProfile(10, 4, 3, 1, (0,))),
        ("U + E8 + A6", FixedLocusProfile(16, 6, 5, 2, (0, 0))),
    ]


def test_table_point_counts():
    expected = {
        "U + K7": (2, 1, 0),
        "U(7) + K7": (2, 1, 0),
        "U + E8": (4, 3, 1),
        "U(7) + E8": (4, 3, 1),
        "U + E8 + A6": (6, 5, 2),
    }
    assert set(INVARIANT_LATTICES) == set(expected)
    for name, counts in expected.items():
        profile = fixed_locus_table(make_named(name))
        assert (profile.n26, profile.n35, profile.n44) == counts


def test_table_totals():
    assert [profile.points for profile in derived_rows()] == [3, 3, 8, 8, 13]


def test_table_matches_rank_formulas():
    for p in derived_rows():
        r = p.rank
        assert p.n26 == (r + 2) // 3 and (r + 2) % 3 == 0
        assert p.n35 == (r - 1) // 3 and (r - 1) % 3 == 0
        assert p.n44 == (r - 4) // 6 and (r - 4) % 6 == 0


# each lattice fails exactly one condition of the classification
@pytest.mark.parametrize("name", [
    "U + A6",                        # 22 - 8 is not a multiple of 6
    "Z(7) + Z(-1) + Z(-1) + Z(-1)",  # odd
    "U + U + U + U + U",             # signature (5, 5)
    "U(49) + K7",                    # invariant factors 7, 49, 49
    "U + K7 + K7 + K7 + K7",         # a = 4 above m = 2
], ids=["rank", "odd", "signature", "not-7-elementary", "a-above-m"])
def test_table_rejects_a_lattice_outside_the_classification(name):
    with pytest.raises(ValueError):
        fixed_locus_table(make_named(name))


def test_a_and_m_agree_mod_2_on_every_row():
    for name in INVARIANT_LATTICES:
        lattice = make_named(name)
        a = len(discriminant_group(lattice).invariant_factors)
        assert (22 - lattice.rank) // 6 % 2 == a % 2


def test_derived_counts_satisfy_the_holomorphic_lefschetz_identity():
    for profile in derived_rows():
        counts = (profile.n26, profile.n35, profile.n44)
        lhs, rhs = holomorphic_lefschetz_sides(counts, profile.curves)
        assert lhs == rhs
        lhs, rhs = holomorphic_lefschetz_sides(counts, profile.curves + (0,))
        assert lhs != rhs


def test_holomorphic_lefschetz_identity_forces_the_point_counts():
    # the three point terms are linearly independent over Q, so for a
    # given sum of 1 - g over the curves at most one (n26, n35, n44) fits
    terms = [holomorphic_lefschetz_sides(unit, ())[1]
             for unit in ((1, 0, 0), (0, 1, 0), (0, 0, 1))]
    assert minor_gcd([[int(49 * x) for x in term] for term in terms], 3) != 0


def test_euler_counts_two_minus_twice_the_genus_per_curve():
    assert FixedLocusProfile(4, 1, 1, 1, (2,)).euler == 1
    assert FixedLocusProfile(4, 1, 1, 1, (1, 0)).euler == 5


# --- Lefschetz consistency --------------------------------------------------

def test_lefschetz_all_rows():
    for profile in derived_rows():
        assert lefschetz_check(profile)


def test_lefschetz_rejects_corrupted_profile():
    bad = FixedLocusProfile(10, 5, 3, 1, (0,))
    assert not lefschetz_check(bad)


def test_lefschetz_needs_six_block_rank():
    profile = FixedLocusProfile(9, 3, 2, 1, (0,))
    with pytest.raises(ValueError):
        lefschetz_check(profile)


# --- the reference walk ------------------------------------------------------

@cache
def reference_walk():
    """The walk from the one pair of fixed curves the search finds on i7e8."""
    edges = reference_curve_edges()
    (fixed,) = fixed_pair_search(edges)
    return walk_chain(edges, fixed)


def test_reference_walk_is_consistent():
    walk = reference_walk()
    assert walk.consistent
    assert walk.conflicts == ()
    assert walk.fixed_curves == ("G7", "T6")
    assert walk.counts() == (6, 5, 2, 2)


def test_reference_walk_placement():
    walk = reference_walk()
    assert walk.isolated("P26") == PLACEMENT_26
    assert walk.isolated("P35") == PLACEMENT_35
    assert walk.isolated("P44") == PLACEMENT_44


def test_reference_walk_exponent_arithmetic():
    for point in reference_walk().points:
        a, b = point.exponents
        assert (a + b) % 7 == 1
        if point.kind != "curve":
            assert point.exponents in ((2, 6), (3, 5), (4, 4))


def test_reference_walk_matches_table_row():
    walk = reference_walk()
    assert count_check(walk, fixed_locus_table(make_named("U + E8 + A6")))
    assert not count_check(walk, fixed_locus_table(make_named("U + E8")))


# the curve graph of i7e8: the I7 cycle, the II* tree and the section
WALK_EDGES = (
    ("G1", "G2"), ("G2", "G3"), ("G3", "G4"), ("G4", "G5"),
    ("G5", "G6"), ("G6", "G7"), ("G7", "G1"),
    ("G7", "S"), ("S", "T1"),
    ("T1", "T2"), ("T2", "T3"), ("T3", "T4"), ("T4", "T5"),
    ("T5", "T6"), ("T6", "T7"), ("T7", "T8"), ("T6", "T9"),
)
# the two pointwise fixed curves of the known placement
WALK_FIXED = ("G7", "T6")


def test_curve_edges_read_off_the_neron_severi_lattice():
    derived = reference_curve_edges()
    assert len(derived) == len(WALK_EDGES)
    assert {frozenset(e) for e in derived} == {frozenset(e) for e in WALK_EDGES}


def test_walk_rebuilt_from_raw_edges():
    walk = walk_chain(WALK_EDGES, WALK_FIXED)
    assert walk.consistent
    assert walk.counts() == (6, 5, 2, 2)


# --- small synthetic configurations -----------------------------------------

def test_single_fixed_curve_with_one_neighbor():
    walk = walk_chain([("A", "B")], ["A"])
    assert walk.consistent
    assert walk.counts() == (1, 0, 0, 1)
    isolated = walk.isolated("P26")
    assert isolated == (("B",),)
    curve_points = [p for p in walk.points if p.kind == "curve"]
    assert [(p.curves, p.exponents) for p in curve_points] \
        == [(("A", "B"), (0, 1))]


def test_adjacent_fixed_curves_conflict():
    walk = walk_chain([("A", "B")], ["A", "B"])
    assert not walk.consistent


def test_unseeded_component_is_flagged():
    walk = walk_chain(linear_chain_edges(3), [])
    assert not walk.consistent
    assert any("no exponent reaches" in c for c in walk.conflicts)


def test_overcrowded_free_curve_is_flagged():
    walk = walk_chain([("X", "A"), ("X", "B"), ("X", "C")], ["A", "B", "C"])
    assert not walk.consistent
    assert any("carries 3" in c for c in walk.conflicts)


def test_self_intersection_rejected():
    with pytest.raises(ValueError):
        walk_chain([("A", "A")], ["A"])


def test_empty_configuration():
    walk = walk_chain([], [])
    assert walk.consistent
    assert walk.counts() == (0, 0, 0, 0)
    assert not count_check(walk, fixed_locus_table(make_named("U + E8 + A6")))


# --- exhaustive chain placement ----------------------------------------------

def test_linear_chain_edges():
    assert linear_chain_edges(4) == (("C1", "C2"), ("C2", "C3"), ("C3", "C4"))


def test_fixed_pair_search_on_fifteen_chain():
    valid = fixed_pair_search(linear_chain_edges(15))
    # labels sort as strings, so each pair lists the far curve first
    assert valid == [("C10", "C3"), ("C11", "C4"), ("C12", "C5"), ("C13", "C6")]


def test_fixed_pair_search_on_the_reference_configuration():
    assert fixed_pair_search(WALK_EDGES) == [WALK_FIXED]
    assert fixed_pair_search(reference_curve_edges()) == [WALK_FIXED]


def test_fixed_pair_separation_six_fails():
    edges = linear_chain_edges(15)
    walk = walk_chain(edges, ("C3", "C9"))
    assert not walk.consistent
    assert not count_check(walk, fixed_locus_table(make_named("U + E8 + A6")))


def test_fixed_pair_search_smaller_chains():
    # on an 8-chain the separation-7 placement needs both ends free of
    # overhang, which forces the pair onto the boundary positions
    assert fixed_pair_search(linear_chain_edges(8)) == [("C1", "C8")]
    assert fixed_pair_search(linear_chain_edges(2)) == []


# --- the per-curve walk against the per-slot reference ----------------------

def assert_walk_matches_slot_walk(edges, fixed):
    walk = walk_chain(edges, fixed)
    consistent, fixed_curves, points = slot_walk(edges, fixed)
    assert walk.consistent == consistent
    assert walk.fixed_curves == fixed_curves
    if consistent:
        assert [(p.curves, p.exponents) for p in walk.points] == points
    return consistent


CURVES = [f"C{i}" for i in range(10)]
curve_graphs = st.lists(st.tuples(st.sampled_from(CURVES), st.sampled_from(CURVES))
                        .filter(lambda e: e[0] != e[1]), max_size=14)


@settings(deadline=None, max_examples=400)
@given(edges=curve_graphs, fixed=st.lists(st.sampled_from(CURVES), max_size=4))
def test_walk_matches_slot_walk_on_generated_graphs(edges, fixed):
    assert_walk_matches_slot_walk(edges, fixed)


@settings(deadline=None, max_examples=300)
@given(edges=curve_graphs)
def test_fixed_pair_search_matches_walking_every_pair(edges):
    curves = sorted({c for edge in edges for c in edge})
    every = [(p, q) for i, p in enumerate(curves) for q in curves[i + 1:]
             if walk_chain(edges, (p, q)).consistent]
    assert fixed_pair_search(edges) == every


def test_walk_matches_slot_walk_on_every_chain_pair_placement():
    consistent = 0
    for n in range(1, 22):
        edges = linear_chain_edges(n)
        for p in range(1, n + 1):
            for q in range(p, n + 1):
                fixed = {f"C{p}", f"C{q}"}
                consistent += assert_walk_matches_slot_walk(edges, fixed)
    assert consistent > 0


def test_walk_matches_slot_walk_on_the_reference_configuration():
    assert assert_walk_matches_slot_walk(WALK_EDGES, WALK_FIXED)
