"""Tests for the exact integer/rational linear algebra kernel."""

import random
from fractions import Fraction

import pytest

from k3lattices.intmat import (
    IntMatrix,
    _combine,
    _subtract,
    det_exact,
    hermite_normal_form,
    integer_kernel,
    mat_vec,
    smith_normal_form,
    solve_rational,
    unimodular_inverse,
)
from k3lattices.fixtures import CHAINS, chain_sublattice
from k3lattices.lattices import make_named

from oracles import (cofactor_det, definiteness_sign, gauss_det, hermite_by_gcd_steps, minor_gcd,
                     smith_by_general_steps)


def chain_gram(n):
    # negated A_n Cartan matrix: -2 on the diagonal, +1 on adjacency
    return [[-2 if i == j else (1 if abs(i - j) == 1 else 0) for j in range(n)]
            for i in range(n)]


def e8_gram():
    # chain on nodes 0..6 with node 7 attached to node 4
    edges = [(i, i + 1) for i in range(6)] + [(4, 7)]
    g = [[-2 if i == j else 0 for j in range(8)] for i in range(8)]
    for i, j in edges:
        g[i][j] = g[j][i] = 1
    return g


def random_matrix(rng, rows, cols, lo=-9, hi=9):
    return IntMatrix.from_rows(
        [[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)])


def test_hnf_identity():
    ident = IntMatrix.identity(3)
    h, u = hermite_normal_form(ident)
    assert h == ident
    assert u == ident


def test_hnf_two_by_two():
    m = IntMatrix.from_rows([[2, 4], [6, 8]])
    h, u = hermite_normal_form(m)
    assert h.to_lists() == [[2, 0], [0, 4]]
    assert u @ m == h
    assert abs(det_exact(u)) == 1


def test_hnf_chain15_pivot_product():
    gram = chain_gram(15)
    assert abs(cofactor_det(gram)) == 16
    h, u = hermite_normal_form(IntMatrix.from_rows(gram))
    assert u @ IntMatrix.from_rows(gram) == h
    product = 1
    for i in range(15):
        product *= h[i, i]
    assert product == 16


def test_hnf_random_shape():
    rng = random.Random(20260814)
    for _ in range(150):
        m = random_matrix(rng, rng.randint(1, 6), rng.randint(1, 6))
        h, u = hermite_normal_form(m)
        assert u @ m == h
        assert abs(det_exact(u)) == 1
        prev_pivot_col = -1
        seen_zero_row = False
        for i in range(h.rows):
            nonzero = [j for j in range(h.cols) if h[i, j] != 0]
            if not nonzero:
                seen_zero_row = True
                continue
            assert not seen_zero_row
            p = nonzero[0]
            assert p > prev_pivot_col
            assert h[i, p] > 0
            for k in range(i):
                assert 0 <= h[k, p] < h[i, p]
            prev_pivot_col = p


def test_snf_divisibility_reorder():
    m = IntMatrix.from_rows([[4, 0], [0, 2]])
    d, left, right = smith_normal_form(m)
    assert d == (2, 4)
    assert (left @ m @ right).to_lists() == [[2, 0], [0, 4]]


def test_snf_chain15_invariant_factors():
    gram = IntMatrix.from_rows(chain_gram(15))
    # cyclic quotient: the 14th determinantal divisor is 1
    assert minor_gcd(gram.to_lists(), 14) == 1
    d, left, right = smith_normal_form(gram)
    assert d == (1,) * 14 + (16,)
    assert left @ gram @ right == IntMatrix.from_rows(
        [[d[i] if i == j else 0 for j in range(15)] for i in range(15)])


def test_snf_random_properties():
    rng = random.Random(99)
    for _ in range(150):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        m = random_matrix(rng, rows, cols)
        d, left, right = smith_normal_form(m)
        assert abs(det_exact(left)) == 1
        assert abs(det_exact(right)) == 1
        prod = left @ m @ right
        for i in range(rows):
            for j in range(cols):
                want = d[i] if i == j and i < len(d) else 0
                assert prod[i, j] == want
        assert all(x >= 0 for x in d)
        for a, b in zip(d, d[1:]):
            assert b == 0 if a == 0 else b % a == 0


def test_det_named_gram_values():
    k7 = IntMatrix.from_rows([[-4, 1], [1, -2]])
    assert det_exact(k7) == 7
    e8 = IntMatrix.from_rows(e8_gram())
    assert gauss_det(e8.to_lists()) == 1
    assert definiteness_sign(e8.to_lists()) == -1
    assert det_exact(e8) == 1
    a6 = IntMatrix.from_rows(chain_gram(6))
    assert cofactor_det(a6.to_lists()) == 7
    assert definiteness_sign(a6.to_lists()) == -1
    assert det_exact(a6) == 7


def test_det_matches_cofactor_up_to_6x6():
    rng = random.Random(5)
    for _ in range(120):
        n = rng.randint(0, 6)
        m = random_matrix(rng, n, n)
        assert det_exact(m) == cofactor_det(m.to_lists())


def test_det_rejects_nonsquare():
    with pytest.raises(ValueError):
        det_exact(IntMatrix.from_rows([[1, 2, 3]]))



@pytest.mark.parametrize("entry", [1.5, "7", Fraction(3), True],
                         ids=["float", "str", "fraction", "bool"])
def test_non_int_entry_is_rejected(entry):
    # from_rows and the constructor share one check and convert nothing
    with pytest.raises(TypeError):
        IntMatrix.from_rows([[1, entry]])
    with pytest.raises(TypeError):
        IntMatrix(1, 2, ((1, entry),))

def test_solve_identity():
    m = IntMatrix.identity(3)
    rhs = [Fraction(1, 2), Fraction(-3), Fraction(7, 5)]
    assert solve_rational(m, rhs) == tuple(rhs)


def test_solve_inconsistent():
    m = IntMatrix.from_rows([[1, 1], [1, 1]])
    assert solve_rational(m, [0, 1]) is None


def test_solve_random_consistent_systems():
    rng = random.Random(11)
    for _ in range(100):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        m = random_matrix(rng, rows, cols)
        x = [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(cols)]
        rhs = [sum(Fraction(m[i, j]) * x[j] for j in range(cols)) for i in range(rows)]
        sol = solve_rational(m, rhs)
        assert sol is not None
        assert [sum(Fraction(m[i, j]) * sol[j] for j in range(cols))
                for i in range(rows)] == rhs


def test_kernel_of_zero_matrix_is_identity():
    k = integer_kernel(IntMatrix.zeros(2, 2))
    assert k == IntMatrix.identity(2)


def test_kernel_is_saturated():
    k = integer_kernel(IntMatrix.from_rows([[2, -2]]))
    assert k.cols == 1
    assert k.col(0) in ((1, 1), (-1, -1))


def test_kernel_random_properties():
    rng = random.Random(13)
    for _ in range(120):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        m = random_matrix(rng, rows, cols)
        k = integer_kernel(m)
        for c in range(k.cols):
            assert all(x == 0 for x in mat_vec(m, [k[i, c] for i in range(cols)]))
        d, _, _ = smith_normal_form(m)
        rank = sum(1 for x in d if x != 0)
        assert k.cols == cols - rank
        if k.cols:
            dk, _, _ = smith_normal_form(k)
            assert all(x == 1 for x in dk)


def test_unimodular_inverse():
    m = IntMatrix.from_rows([[2, 1], [1, 1]])
    assert unimodular_inverse(m) @ m == IntMatrix.identity(2)
    rng = random.Random(29)
    for _ in range(20):
        n = rng.randint(1, 6)
        _, left, right = smith_normal_form(random_matrix(rng, n, n))
        for u in (left, right):
            inv = unimodular_inverse(u)
            assert inv @ u == u @ inv == IntMatrix.identity(n)
    with pytest.raises(ValueError):
        unimodular_inverse(IntMatrix.from_rows([[2, 0], [0, 1]]))
    with pytest.raises(ValueError):
        unimodular_inverse(IntMatrix.from_rows([[1, 1]]))


def test_in_place_row_steps_match_the_out_of_place_formulas():
    rng = random.Random(34)
    for _ in range(200):
        n = rng.randint(1, 12)
        start = rng.randint(0, n)
        ri = [rng.randint(-10 ** 6, 10 ** 6) for _ in range(n)]
        rj = [rng.randint(-10 ** 6, 10 ** 6) for _ in range(n)]
        f, x, y, p, q = [rng.randint(-50, 50) for _ in range(5)]
        target, source = list(ri), list(rj)
        assert _subtract(target, source, f, start) is None
        assert target == ri[:start] + [s - f * t for s, t in zip(ri[start:], rj[start:])]
        assert source == rj
        a, b = list(ri), list(rj)
        assert _combine(a, b, x, y, p, q, start) is None
        assert a == ri[:start] + [x * s + y * t for s, t in zip(ri[start:], rj[start:])]
        assert b == rj[:start] + [p * s + q * t for s, t in zip(ri[start:], rj[start:])]


def _package_shapes():
    """Seeded matrices at the shapes the package works at."""
    rng = random.Random(20261019)
    shapes = {f"{r}x{c}": random_matrix(rng, r, c) for r, c in [(16, 16), (16, 15), (22, 22)]}
    # _adjoin: q times the identity stacked on one glue row
    q = 7
    shapes["adjoin-17x16"] = IntMatrix.from_rows(
        [[q if i == j else 0 for j in range(16)] for i in range(16)]
        + [[rng.randint(-9, 9) for _ in range(16)]])
    shapes["chain15"] = IntMatrix.from_rows(chain_gram(15))
    shapes["U+E8+A6"] = make_named("U + E8 + A6").gram
    # orthogonal_complement in solve_glue: the 15x16 system C^T G of each A15 chain
    for name in CHAINS:
        chain = chain_sublattice(name)
        shapes[name] = chain.coords.transpose() @ chain.ambient.gram
    shapes["0x3"] = IntMatrix.zeros(0, 3)
    shapes["3x0"] = IntMatrix.zeros(3, 0)
    return shapes


PACKAGE_SHAPES = _package_shapes()


@pytest.mark.parametrize("name", PACKAGE_SHAPES)
def test_normal_form_witnesses_at_package_shapes(name):
    m = PACKAGE_SHAPES[name]
    h, u = hermite_normal_form(m)
    assert u @ m == h
    assert abs(gauss_det(u.to_lists())) == 1
    d, left, right = smith_normal_form(m)
    assert left @ m @ right == IntMatrix.from_rows(
        [[d[i] if i == j else 0 for j in range(m.cols)] for i in range(m.rows)], cols=m.cols)
    assert abs(gauss_det(left.to_lists())) == abs(gauss_det(right.to_lists())) == 1
    assert all(x >= 0 for x in d)
    for a, b in zip(d, d[1:]):
        assert b == 0 if a == 0 else b % a == 0
    assert h.entries == hermite_by_gcd_steps(m)[0]
    assert (d, left.entries, right.entries) == smith_by_general_steps(m)
    k = integer_kernel(m)
    assert m @ k == IntMatrix.zeros(m.rows, k.cols)
    assert k.cols == m.cols - sum(1 for x in d if x != 0)
    assert all(x == 1 for x in smith_normal_form(k)[0])
