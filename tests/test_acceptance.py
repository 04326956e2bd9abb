"""Acceptance gate: thirteen criteria, one pass/fail line each.

Every criterion is checked with exact arithmetic and zero tolerance.
Derived quantities are cross-checked against the independent oracles in
oracles.py wherever one exists.
"""

from contextlib import contextmanager
from fractions import Fraction
from itertools import product

from k3lattices.cli import main
from k3lattices.fibration import analyze_k3
from k3lattices.fixedlocus import fixed_locus_table, fixed_pair_search, \
    lefschetz_check, linear_chain_edges, walk_chain
from k3lattices.fixtures import CHAINS, INVARIANT_LATTICES, NS_RANK, chain_glue, \
    chain_sublattice, glue_target, overlattice_pair, reference_curve_edges, \
    reference_neron_severi, weierstrass_model
from k3lattices.intmat import IntMatrix, det_exact, solve_rational
from k3lattices.lattices import direct_sum, discriminant_group, make_named, \
    signature
from k3lattices.polynomials import Poly
from k3lattices.sublattices import _adjoin, enumerate_even_overlattices, \
    is_primitive
from k3lattices.verify import _overlattice_contains

from oracles import definiteness_sign, gauss_det, half_integral_subsets


@contextmanager
def criterion(num, text):
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {num:02d}: {text}")
        raise
    print(f"[PASS] criterion {num:02d}: {text}")


def test_c01_a15_determinant_and_group():
    with criterion(1, "A15 has |det| = 16 and discriminant group Z/16"):
        a15 = make_named("A15")
        assert abs(a15.det) == 16
        assert gauss_det(a15.gram.to_lists()) == a15.det
        assert discriminant_group(a15).invariant_factors == (16,)


def test_c02_hyperbolic_sum_invariants():
    with criterion(2, "U + E8 + A6 has |det| = 7, signature (1, 15), even"):
        lattice = direct_sum(make_named("U"), make_named("E8"), make_named("A6"))
        assert abs(lattice.det) == 7
        assert gauss_det(lattice.gram.to_lists()) == lattice.det
        assert signature(lattice) == (1, 15, 0)
        assert lattice.is_even


def test_c03_rank_two_gram():
    with criterion(3, "K7 = [[-4, 1], [1, -2]] is even, negative definite, "
                      "|det| = 7"):
        k7 = make_named("K7")
        assert k7.gram.to_lists() == [[-4, 1], [1, -2]]
        assert k7.is_even
        assert definiteness_sign(k7.gram.to_lists()) == -1
        assert abs(k7.det) == 7


def test_c04_first_model_classification():
    with criterion(4, "first model: I7 at 0, II* at infinity, I1 at the seven "
                      "roots of t^7 = 2, Euler 24, MW rank 0"):
        w = weierstrass_model("i7e8")
        # -432 t^7 (t^7 - 2)
        assert w.discriminant == Poly.of([0] * 7 + [864] + [0] * 6 + [-432])
        analysis = analyze_k3(w, NS_RANK)
        shape = [(r.place, r.kodaira, r.count) for r in analysis.fibers]
        assert shape == [("0", "I7", 1), ("t^7 - 2", "I1", 7), ("inf", "II*", 1)]
        assert analysis.euler_total == 24
        assert analysis.mw_rank == 0


def test_c05_second_model_classification():
    with criterion(5, "second model: III* at 0, IV* at infinity, seven I1 on "
                      "27 t^7 + 4 = 0, MW rank 1"):
        analysis = analyze_k3(weierstrass_model("e7e6"), NS_RANK)
        shape = [(r.place, r.kodaira, r.count) for r in analysis.fibers]
        assert shape == [("0", "III*", 1), ("27*t^7 + 4", "I1", 7),
                         ("inf", "IV*", 1)]
        assert analysis.euler_total == 24
        assert analysis.mw_rank == 1


def test_c06_neron_severi_invariants():
    with criterion(6, "the built intersection lattice has rank 16, |det| = 7, "
                      "even"):
        ns = reference_neron_severi()
        assert ns.lattice.rank == 16
        assert abs(ns.lattice.det) == 7
        assert gauss_det(ns.lattice.gram.to_lists()) == ns.lattice.det
        assert ns.lattice.is_even


def test_c07_chains_are_primitive_a15():
    with criterion(7, "both candidate chains induce A15, primitively, with no "
                      "half-integral subset sums"):
        expected = make_named("A15").gram
        for name in CHAINS:
            sub = chain_sublattice(name)
            assert sub.induced_gram() == expected
            primitive = is_primitive(sub)
            assert primitive
            # no even invariant factor, so no half-integral subset sum
            assert all(d % 2 for d in sub.smith[0])
        # independent exhaustive confirmation on the first chain
        columns = [list(chain_sublattice("a15-chain-1").generator(j))
                   for j in range(15)]
        assert half_integral_subsets(columns) == []


def test_c08_glue_solution_clauses():
    with criterion(8, "glue: n = 16, H^2 = 112, 16 H^2 = 7 n^2, a_i = i a1, "
                      "a1 = +-3 mod 16, h+ integral, full basis determinant"):
        ns = reference_neron_severi()
        for name in CHAINS:
            sol = chain_glue(name)
            assert sol.n == 16
            h_sq = ns.lattice.pairing(sol.H, sol.H)
            assert h_sq == 112
            assert 16 * h_sq == 7 * sol.n**2
            a1 = sol.a[0]
            assert a1 % 16 in (3, 13)
            assert all(sol.a[i] == (i + 1) * a1 % 16 for i in range(15))
            # h+ = (H + a1 * sum(i C_i)) / 16 is integral and completes the
            # chain to a basis of the full lattice
            chain = chain_sublattice(name)
            numerator = [x + a1 * sum((j + 1) * chain.coords[i, j] for j in range(15))
                         for i, x in enumerate(sol.H)]
            assert all(x % 16 == 0 for x in numerator)
            basis = IntMatrix.from_rows(
                [[chain.coords[i, j] for j in range(15)] + [numerator[i] // 16]
                 for i in range(16)])
            gram = (basis.transpose() @ ns.lattice.gram @ basis).to_lists()
            assert det_exact(IntMatrix.from_rows(gram)) == ns.lattice.det
            assert gauss_det(gram) == ns.lattice.det


def _mirror(vector):
    return tuple(vector[14 - i] for i in range(15)) + (vector[15],)


def _contains(m, over, glue, scale):
    scaled = [Fraction(x * over.scale, scale) for x in glue]
    if any(x.denominator != 1 for x in scaled):
        return False
    solution = solve_rational(_adjoin(m, over.glue, over.scale).transpose(), scaled)
    return solution is not None and \
        all(x.denominator == 1 for x in solution)


def test_c09_overlattice_enumeration():
    with criterion(9, "A15 + Z(112) has exactly two even index-16 "
                      "overlattices, swapped by the Dynkin involution"):
        pair = overlattice_pair()
        assert len(pair) == 2
        one, two = pair
        assert one.index == two.index == 16
        base = glue_target()
        for over in pair:
            assert abs(det_exact(over.gram)) == \
                abs(base.det) // (over.index ** 2)
        assert _contains(base, two, _mirror(one.glue), one.scale)
        assert _contains(base, one, _mirror(two.glue), two.scale)
        assert not _contains(base, one, _mirror(one.glue), one.scale)
        assert not _contains(base, two, _mirror(two.glue), two.scale)



def test_coset_membership_matches_the_fraction_oracle():
    # every discriminant-group vector of a few direct sums, tested against
    # every even overlattice of the given index over that sum
    found = set()
    for names, index in ((("A7",), 2), (("U(4)",), 4), (("D4", "D4"), 2),
                         (("A1", "A7"), 4), (("U(6)",), 3), (("Z(16)", "U(2)"), 4)):
        m = direct_sum(*(make_named(n) for n in names))
        group = discriminant_group(m)
        overlattices = enumerate_even_overlattices(m, index)
        assert overlattices
        for coeffs in product(*(range(d) for d in group.invariant_factors)):
            v, q = group.vector(coeffs)
            for over in overlattices:
                inside = _overlattice_contains(over, v, q)
                assert inside == _contains(m, over, v, q)
                found.add(inside)
    assert found == {True, False}

def test_c10_fixed_locus_table():
    with criterion(10, "fixed-locus rows count (2,1,0), (2,1,0), (4,3,1), "
                       "(4,3,1), (6,5,2), totals 3, 3, 8, 8, 13"):
        expected = [("U + K7", (2, 1, 0), 3),
                    ("U(7) + K7", (2, 1, 0), 3),
                    ("U + E8", (4, 3, 1), 8),
                    ("U(7) + E8", (4, 3, 1), 8),
                    ("U + E8 + A6", (6, 5, 2), 13)]
        assert list(INVARIANT_LATTICES) == [name for name, _, _ in expected]
        for name, counts, total in expected:
            profile = fixed_locus_table(make_named(name))
            assert (profile.n26, profile.n35, profile.n44) == counts
            assert profile.points == total


def test_c11_lefschetz_rows():
    with criterion(11, "Lefschetz consistency holds on all five rows"):
        for name in INVARIANT_LATTICES:
            assert lefschetz_check(fixed_locus_table(make_named(name)))


def test_c12_walk_placement_and_search():
    with criterion(12, "the walk reproduces the known placement (6 + 5 + 2 "
                       "points, fixed curves at positions 6 and 13); chain "
                       "search finds only separation-7 pairs"):
        edges = reference_curve_edges()
        assert fixed_pair_search(edges) == [("G7", "T6")]
        walk = walk_chain(edges, ("G7", "T6"))
        assert walk.consistent
        assert walk.counts() == (6, 5, 2, 2)
        assert walk.isolated("P26") == (("G1", "G2"), ("G5", "G6"),
                                        ("S", "T1"), ("T4", "T5"),
                                        ("T7", "T8"), ("T9",))
        assert walk.isolated("P35") == (("G2", "G3"), ("G4", "G5"),
                                        ("T1", "T2"), ("T3", "T4"), ("T8",))
        assert walk.isolated("P44") == (("G3", "G4"), ("T2", "T3"))
        assert fixed_pair_search(linear_chain_edges(15)) == [
            ("C10", "C3"), ("C11", "C4"), ("C12", "C5"), ("C13", "C6")]


def test_c13_perturb_negative_control(capsys):
    with criterion(13, "--perturb makes the full verification exit 1"):
        assert main(["verify-all", "--perturb"]) == 1
        assert main(["verify-all"]) == 0
        capsys.readouterr()
