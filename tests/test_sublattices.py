"""Tests for sublattice machinery: complements, indices, glue, overlattices."""

import math
import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from k3lattices.intmat import (
    IntMatrix,
    hermite_normal_form,
    solve_rational,
)
from k3lattices.fixtures import chain_glue, chain_sublattice
from k3lattices.lattices import Lattice, direct_sum, make_named
from k3lattices.sublattices import (
    GlueSolution,
    _adjoin,
    Sublattice,
    enumerate_even_overlattices,
    is_primitive,
    orthogonal_complement,
    solve_glue,
)

from oracles import gauss_det, half_integral_subsets, minor_gcd


def columns(vectors):
    return IntMatrix.from_rows([list(row) for row in zip(*vectors)],
                               cols=len(vectors))


def test_sublattice_validation():
    u = make_named("U")
    with pytest.raises(ValueError):
        Sublattice(u, IntMatrix.from_rows([[1], [2], [3]]))
    with pytest.raises(ValueError):
        Sublattice(u, IntMatrix.from_rows([[1, 2], [1, 2]]))


def test_complement_of_summand():
    amb = direct_sum(make_named("U"), make_named("E8"))
    u_part = Sublattice(amb, columns([(1,) + (0,) * 9, (0, 1) + (0,) * 8]))
    comp = orthogonal_complement(u_part)
    assert comp.rank == 8
    assert comp.induced_gram() == make_named("E8").gram
    # complement twice returns the original span
    back = orthogonal_complement(comp)
    assert hermite_normal_form(back.coords.transpose())[0] == \
        hermite_normal_form(u_part.coords.transpose())[0]

    assert orthogonal_complement(Sublattice(amb, IntMatrix.identity(amb.rank))).rank == 0
    with pytest.raises(ValueError):
        orthogonal_complement(Sublattice(Lattice(IntMatrix.zeros(2, 2)),
                                          IntMatrix.identity(2)))


def test_is_primitive():
    line = Lattice(IntMatrix.from_rows([[2]]))
    assert is_primitive(Sublattice(line, IntMatrix.from_rows([[2]]))) is False

    u = make_named("U")
    assert is_primitive(Sublattice(u, columns([(1, 1)]))) is True


def test_is_primitive_agrees_with_index_of_closure():
    # independent columns span a primitive sublattice iff their k x k minors
    # have gcd 1, i.e. the closure has index 1 over them
    rng = random.Random(31)
    amb = direct_sum(make_named("U"), make_named("A3"))
    seen = set()
    for _ in range(60):
        k = rng.randint(1, amb.rank)
        coords = IntMatrix.from_rows(
            [[rng.randint(-3, 3) for _ in range(k)] for _ in range(amb.rank)])
        try:
            s = Sublattice(amb, coords)
        except ValueError:
            continue
        prim = is_primitive(s)
        assert prim == (minor_gcd(coords.to_lists(), k) == 1)
        seen.add(prim)
    assert seen == {True, False}


def rm13_codewords():
    gens = [(1,) * 8,
            (0, 1, 0, 1, 0, 1, 0, 1),
            (0, 0, 1, 1, 0, 0, 1, 1),
            (0, 0, 0, 0, 1, 1, 1, 1)]
    words = set()
    for picks in product((0, 1), repeat=4):
        w = tuple(sum(p * g[i] for p, g in zip(picks, gens)) % 2 for i in range(8))
        words.add(w)
    return words


def glued_a1_8_model():
    """E8 built from eight orthogonal (-2)-classes glued along the [8,4] code.

    Returns the glued lattice and the coordinates of the eight classes.
    """
    q = 2
    rows = [[q if i == j else 0 for j in range(8)] for i in range(8)]
    for w in sorted(rm13_codewords() - {(0,) * 8}):
        rows.append(list(w))
    h, _ = hermite_normal_form(IntMatrix.from_rows(rows, cols=8))
    basis = [[Fraction(h[i, j], q) for j in range(8)] for i in range(8)]
    gram = [[sum(-2 * basis[i][k] * basis[j][k] for k in range(8))
             for j in range(8)] for i in range(8)]
    assert all(x.denominator == 1 for row in gram for x in row)
    glued = Lattice(IntMatrix.from_rows([[int(x) for x in row] for row in gram],
                                        cols=8))
    doubled = IntMatrix.from_rows([[h[i, j] for j in range(8)] for i in range(8)])
    cols = []
    for i in range(8):
        target = [Fraction(2 if k == i else 0) for k in range(8)]
        sol = solve_rational(doubled.transpose(), target)
        assert sol is not None
        assert all(x.denominator == 1 for x in sol)
        cols.append(tuple(int(x) for x in sol))
    return glued, columns(cols)


def half_sum_count(s):
    """2^e - 1 for e even invariant factors of s, the half-sum count of check 07."""
    return 2 ** sum(1 for d in s.smith[0] if d % 2 == 0) - 1


def test_half_sum_matches_code_supports():
    glued, coords = glued_a1_8_model()
    # gluing eight A1's along the extended [8,4] code gives a unimodular lattice
    assert abs(glued.det) == 1
    assert glued.is_even
    sub = Sublattice(glued, coords)
    for j in range(8):
        g = sub.generator(j)
        assert glued.pairing(g, g) == -2
    # the integral half-sums are the supports of the 15 nonzero codewords:
    # 14 of weight 4 and the all-ones word
    found = half_integral_subsets([sub.generator(j) for j in range(8)])
    expected = sorted(
        tuple(i for i in range(8) if w[i]) for w in rm13_codewords() if any(w))
    assert sorted(found) == expected
    assert sorted(len(j) for j in found) == [4] * 14 + [8]
    assert len(found) == half_sum_count(sub) == 15


@st.composite
def doubled_sublattices(draw):
    """Independent columns in Z^r, r <= 6, some of them doubled, so that
    even invariant factors occur."""
    r = draw(st.integers(1, 6))
    k = draw(st.integers(1, r))
    cols = [[draw(st.integers(-3, 3)) for _ in range(r)] for _ in range(k)]
    for j in draw(st.sets(st.integers(0, k - 1))):
        cols[j] = [2 * x for x in cols[j]]
    coords = columns(cols)
    assume(minor_gcd(coords.to_lists(), k) != 0)
    return Sublattice(Lattice(IntMatrix.identity(r)), coords)


@settings(deadline=None, max_examples=150)
@given(s=doubled_sublattices())
@example(s=Sublattice(make_named("U"), columns([(1, -1)])))
def test_half_sum_search_matches_subset_enumeration(s):
    # the half-sums of independent generators are integral exactly on the
    # mod-2 span of the right-transform columns with even invariant factor
    naive = half_integral_subsets([s.generator(j) for j in range(s.rank)])
    assert len(naive) == half_sum_count(s)


def test_solve_glue_toy_case():
    u = make_named("U")
    delta = Sublattice(u, columns([(1, -1)]))
    sol = solve_glue(delta)
    assert sol == GlueSolution(n=2, H=(1, 1), h=(1, 0), a=(1,))
    # n*h = H + a1*C1 exactly here
    assert tuple(2 * x for x in sol.h) == tuple(
        h + c for h, c in zip(sol.H, delta.generator(0)))


def chain_h_plus(name):
    # (H + a1 * sum((j+1) * C_j)) / n, the generator check 08 completes each chain with
    sol, chain = chain_glue(name), chain_sublattice(name)
    numerator = [x + sum((j + 1) * sol.a[0] * chain.coords[i, j] for j in range(chain.rank))
                 for i, x in enumerate(sol.H)]
    assert all(x % sol.n == 0 for x in numerator)
    return tuple(x // sol.n for x in numerator)


def test_chain_glue_values_are_pinned():
    a = (13, 10, 7, 4, 1, 14, 11, 8, 5, 2, 15, 12, 9, 6, 3)
    assert chain_glue("a15-chain-1") == GlueSolution(
        n=16,
        H=(21, 42, -18, -15, -12, -9, -6, -3, -21, -42, -63, -84, -105, -70, -35, -56),
        h=(2, 4, -2, -1, -1, -1, -1, -1, -2, -4, -5, -7, -9, -6, -3, -5),
        a=a)
    assert chain_h_plus("a15-chain-1") == (
        7, 14, -6, -5, -4, -3, -2, -1, -7, -14, -21, -28, -35, -19, -3, -23)
    assert chain_glue("a15-chain-2") == GlueSolution(
        n=16,
        H=(21, 42, -3, -6, -9, -12, -15, -18, -21, -42, -63, -84, -105, -70, -35, -56),
        h=(2, 4, -1, -1, -1, -1, -1, -2, -2, -4, -5, -7, -9, -6, -3, -5),
        a=a)
    assert chain_h_plus("a15-chain-2") == (
        7, 14, -1, -2, -3, -4, -5, -6, -7, -14, -21, -28, -35, -19, -3, -23)


def in_random_basis(draw, gram, kept):
    """The lattice of gram written in a random basis, from at most 3n
    elementary column steps, with the sublattice spanned by the original
    basis vectors listed in kept; their coordinates follow through the
    inverse."""
    n = len(gram)
    u = IntMatrix.identity(n).to_lists()
    inverse = IntMatrix.identity(n).to_lists()
    steps = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1),
                      st.sampled_from([-2, -1, 1, 2]))
    for i, j, c in draw(st.lists(steps, max_size=3 * n)):
        if i == j:
            continue
        # u <- u @ E with E adding c * column i to column j; inverse <- E^-1 @ inverse
        for row in u:
            row[j] += c * row[i]
        inverse[i] = [x - c * y for x, y in zip(inverse[i], inverse[j])]
    u = IntMatrix.from_rows(u)
    ambient = Lattice(u.transpose() @ IntMatrix.from_rows(gram) @ u)
    coords = IntMatrix.from_rows([[row[j] for j in kept] for row in inverse], cols=len(kept))
    return ambient, Sublattice(ambient, coords)


@st.composite
def a_k_chains(draw):
    """An A_k chain, k <= 6, in an ambient spanned by the chain and one
    vector with pairings in [-3, 3] and an even square, written in a
    random basis."""
    k = draw(st.integers(1, 6))
    v = [draw(st.integers(-3, 3)) for _ in range(k)]
    gram = [list(row) + [x] for row, x in zip(make_named(f"A{k}").gram.entries, v)]
    gram.append(v + [2 * draw(st.integers(-3, 3))])
    assume(gauss_det(gram) != 0)
    return in_random_basis(draw, gram, range(k))


@st.composite
def dropped_basis_vectors(draw):
    """A named lattice in a random basis, with the primitive corank-1
    sublattice spanned by all but one of its original basis vectors; in
    general not a chain."""
    name = draw(st.sampled_from(["A3", "A4", "A5", "D4", "E6", "U + A2", "A2 + A2",
                                 "U(7) + K7", "U + E8 + A6"]))
    gram = make_named(name).gram.to_lists()
    drop = draw(st.integers(0, len(gram) - 1))
    return in_random_basis(draw, gram, [j for j in range(len(gram)) if j != drop])


def assert_glue_witnesses(ambient, delta, sol):
    n, k = sol.n, delta.rank
    gens = [delta.generator(i) for i in range(k)]
    assert all(ambient.pairing(sol.H, c) == 0 for c in gens)
    assert math.gcd(*sol.H) == 1
    assert n == abs(gauss_det([list(row) + [x] for row, x in zip(delta.coords.entries, sol.H)]))
    assert tuple([n * x for x in sol.h]) == tuple(
        [x + sum(a * c[i] for a, c in zip(sol.a, gens)) for i, x in enumerate(sol.H)])
    assert all(0 <= a < n for a in sol.a)
    assert abs(gauss_det([list(row) + [x] for row, x in zip(delta.coords.entries, sol.h)])) == 1


@settings(deadline=None, max_examples=150)
@given(case=a_k_chains())
def test_solve_glue_on_generated_chains(case):
    ambient, chain = case
    sol = solve_glue(chain)
    assert_glue_witnesses(ambient, chain, sol)
    # a theorem about chains: the residues are the multiples of the first
    assert all(sol.a[i] == (i + 1) * sol.a[0] % sol.n for i in range(chain.rank))


@settings(deadline=None, max_examples=100)
@given(case=dropped_basis_vectors())
def test_solve_glue_on_generated_primitive_corank_one_sublattices(case):
    ambient, delta = case
    # delta + ZH has full rank exactly when the form on delta is nondegenerate
    if gauss_det(delta.induced_gram().to_lists()) == 0:
        with pytest.raises(ValueError):
            solve_glue(delta)
        assume(False)
    assert_glue_witnesses(ambient, delta, solve_glue(delta))


def test_solve_glue_sign_normalization():
    u = make_named("U")
    delta = Sublattice(u, columns([(1, -1)]))
    sol = solve_glue(delta, positive_against=(0, 1))
    assert u.pairing(sol.H, (0, 1)) > 0
    sol = solve_glue(delta, positive_against=(0, -1))
    assert u.pairing(sol.H, (0, -1)) > 0


def test_solve_glue_rejections():
    u = make_named("U")
    with pytest.raises(ValueError):
        solve_glue(Sublattice(u, columns([(2, -2)])))
    amb = direct_sum(make_named("U"), make_named("A1"))
    with pytest.raises(ValueError):
        solve_glue(Sublattice(amb, columns([(1, -1, 0)])))
    # an isotropic line is its own complement, so delta + ZH has rank 1
    with pytest.raises(ValueError):
        solve_glue(Sublattice(u, columns([(1, 0)])))


def test_overlattices_of_index_one():
    u = make_named("U")
    results = enumerate_even_overlattices(u, 1)
    assert len(results) == 1
    assert results[0].gram == u.gram
    assert results[0].index == 1
    assert _adjoin(u, results[0].glue, results[0].scale) == IntMatrix.identity(2)
    assert results[0].scale == 1


def test_no_even_overlattice_of_two_a1():
    m = direct_sum(make_named("A1"), make_named("A1"))
    assert enumerate_even_overlattices(m, 2) == []


def test_overlattice_guards():
    with pytest.raises(ValueError):
        enumerate_even_overlattices(Lattice(IntMatrix.from_rows([[3]])), 2)
    with pytest.raises(ValueError):
        enumerate_even_overlattices(make_named("A2"), 0)
    with pytest.raises(ValueError):
        enumerate_even_overlattices(Lattice(IntMatrix.zeros(2, 2)), 2)


def test_walk_bound_counts_only_the_index_torsion():
    # A1^12 has 4096 elements killed by 2; Z(4096) has 4096 elements, two
    # of them killed by 2
    with pytest.raises(ValueError, match="2048"):
        enumerate_even_overlattices(make_named(" + ".join(["A1"] * 12)), 2)
    [over] = enumerate_even_overlattices(make_named("Z(4096)"), 2)
    assert over.gram == IntMatrix.from_rows([[1024]])
    assert (over.glue, over.scale) == ((1,), 2)


def in_overlattice(m, over, glue, scale):
    target = [Fraction(x * over.scale, scale) for x in glue]
    sol = solve_rational(_adjoin(m, over.glue, over.scale).transpose(), target)
    return sol is not None and all(x.denominator == 1 for x in sol)


def test_chain15_plus_line_overlattices():
    m = direct_sum(make_named("A15"), make_named("Z(112)"))
    results = enumerate_even_overlattices(m, 16)
    assert len(results) == 2
    for over in results:
        assert over.index == 16
        lat = Lattice(over.gram)
        assert lat.is_even
        assert abs(lat.det) == 7
        assert abs(m.det) == 16 * 16 * abs(lat.det)
    # the mirror that reverses the chain and fixes the line swaps the two
    perm = list(range(16))
    perm[:15] = [14 - i for i in range(15)]
    first, second = results
    mirrored = tuple(first.glue[perm[i]] for i in range(16))
    assert in_overlattice(m, second, mirrored, first.scale)
    assert not in_overlattice(m, first, mirrored, first.scale)
    mirrored2 = tuple(second.glue[perm[i]] for i in range(16))
    assert in_overlattice(m, first, mirrored2, second.scale)
