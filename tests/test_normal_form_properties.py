"""Generated checks of the normal-form witnesses, Bareiss and signature.

Generated matrices stay at most 6x6 so that the cofactor oracle and the
whole file run in a few seconds; the Hermite stress cases check only the
witness conditions, which need no oracle.  Seeded matrices at the shapes
the normal_forms benchmark times, and at 22x21, are compared with the
gcd-step oracles.
"""

import hashlib
import random

import pytest
from hypothesis import given, settings, strategies as st

from k3lattices.intmat import IntMatrix, det_exact, hermite_normal_form, smith_normal_form
from k3lattices.lattices import Lattice, signature

from oracles import (cofactor_det, eigenvalue_signs, gauss_det, hermite_by_gcd_steps,
                     smith_by_general_steps)

entries = st.integers(-9, 9) | st.just(0)
sizes = st.integers(1, 6)


@st.composite
def matrices(draw, square=False):
    rows = draw(sizes)
    cols = rows if square else draw(sizes)
    if draw(st.booleans()):
        # a product through a narrower middle has deficient rank
        k = draw(st.integers(0, min(rows, cols)))
        a = IntMatrix.from_rows([[draw(entries) for _ in range(k)] for _ in range(rows)], cols=k)
        b = IntMatrix.from_rows([[draw(entries) for _ in range(cols)] for _ in range(k)], cols=cols)
        return a @ b
    return IntMatrix.from_rows([[draw(entries) for _ in range(cols)] for _ in range(rows)])


@st.composite
def symmetric_matrices(draw):
    n = draw(sizes)
    upper = {(i, j): draw(entries) for i in range(n) for j in range(i, n)}
    return IntMatrix.from_rows([[upper[min(i, j), max(i, j)] for j in range(n)]
                                for i in range(n)])


@st.composite
def congruent_products(draw):
    """b^T s b for a symmetric s of size k <= n: rank at most k."""
    n = draw(sizes)
    s = draw(symmetric_matrices())
    b = IntMatrix.from_rows([[draw(entries) for _ in range(n)] for _ in range(s.rows)])
    return b.transpose() @ s @ b


def is_unimodular(u):
    return u.rows == u.cols and abs(gauss_det(u.to_lists())) == 1


def sign(x):
    return (x > 0) - (x < 0)


def assert_hermite_witness(m, h, u):
    """u @ m == h with u unimodular and h in Hermite form, which pins h."""
    assert u @ m == h
    assert is_unimodular(u)
    pivots = []
    for i in range(h.rows):
        j = next((j for j in range(h.cols) if h[i, j]), None)
        if j is None:
            assert all(not any(h.row(k)) for k in range(i, h.rows)), "zero rows trail"
            break
        pivots.append((i, j))
    assert [j for _, j in pivots] == sorted({j for _, j in pivots}), "echelon form"
    for i, j in pivots:
        assert h[i, j] > 0
        assert all(0 <= h[r, j] < h[i, j] for r in range(i))


@settings(deadline=None, max_examples=150)
@given(m=matrices())
def test_hermite_form_witness(m):
    assert_hermite_witness(m, *hermite_normal_form(m))


@pytest.mark.parametrize("rows, cols", [(22, 22), (22, 21), (26, 26), (26, 25), (40, 40)])
def test_hermite_form_witness_at_stress_sizes(rows, cols):
    # too large for the gcd-step oracle, whose entries grow to thousands of
    # bits here; the witness conditions pin h by uniqueness instead
    rng = random.Random(rows * 100 + cols)
    m = IntMatrix.from_rows([[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)])
    assert_hermite_witness(m, *hermite_normal_form(m))


# sha256 of repr(u.entries) for the three seeded matrices of each
# rectangular shape below, where the Hermite transform u is one witness
# among many: the row steps fix it, so a change to them shows here
RECTANGULAR_U_SHA256 = {
    (16, 15): ["3580f39b24a64cf1dfe200380a7652fcc6a6945cf7bc21c75e5e07551b13c87c",
               "8fe080c2bcb10694e2b352e83b4db9108f581f1fcf37db46d11b287c4d67b270",
               "28bd066e577db39b4f938a1f8f40a2e733f55794302841ecc191c18db9a54c66"],
    (22, 21): ["94948bd43457adcab11e54247fcf3ae8b027528ca6989c1aaa530d6fdd218afe",
               "03e668233f6ba7301585e048af31942db3be19a1c077513f601cdbed9f217c20",
               "eef4a27cf3d657cdd2495aa0f8ac5116bd27bb44b9287be55c4ab1afcc1c0441"],
}


@pytest.mark.parametrize("rows, cols", [(16, 16), (16, 15), (22, 21)])
def test_normal_forms_match_the_oracles_at_benchmark_shapes(rows, cols):
    rng = random.Random(rows * 100 + cols)
    for k in range(3):
        m = IntMatrix.from_rows([[rng.randint(-9, 9) for _ in range(cols)]
                                 for _ in range(rows)])
        h, u = hermite_normal_form(m)
        want_h, want_u = hermite_by_gcd_steps(m)
        assert h.entries == want_h
        if rows == cols:
            assert gauss_det(m.to_lists()) != 0
            assert u.entries == want_u
        else:
            assert u @ m == h
            digest = hashlib.sha256(repr(u.entries).encode()).hexdigest()
            assert digest == RECTANGULAR_U_SHA256[rows, cols][k]
        d, left, right = smith_normal_form(m)
        assert (d, left.entries, right.entries) == smith_by_general_steps(m)


@pytest.mark.parametrize("rows", [
    [[2, 1], [6, 5]],
    [[6, 1], [2, 5]],
    [[4, 1], [6, 5]],
    [[-4, 3], [6, -5]],
    [[-6, 1], [-2, 7], [3, 0]],
    [[4, 1], [0, 3], [6, 5]],
    [[5, 1, 0], [0, 2, 1], [7, 3, 2], [3, 1, 1]],
    [[3, 1], [-3, 2], [3, 5]],
    [[3, 1, 4], [-3, 2, 0], [3, 5, 1], [-3, 0, 2]],
    [[0, 2], [5, 3], [0, 4]],
    [[0, 2, 1], [0, -4, 3], [0, 6, 5]],
], ids=["first-divides-second", "second-divides-first", "neither-divides", "negative",
        "negative-three-rows", "zero-between", "zero-between-more-rows", "tie",
        "tie-all-four", "single-live-row", "zero-column"])
def test_hermite_pivot_choice_and_two_row_finish(rows):
    m = IntMatrix.from_rows(rows)
    h, u = hermite_normal_form(m)
    assert u @ m == h
    assert is_unimodular(u)
    want_h, want_u = hermite_by_gcd_steps(m)
    assert h.entries == want_h
    if m.rows == m.cols and gauss_det(rows) != 0:
        assert u.entries == want_u
    assert hermite_normal_form(m) == (h, u), "the same input gives the same u"


@settings(deadline=None, max_examples=150)
@given(m=matrices())
def test_smith_form_witness(m):
    d, left, right = smith_normal_form(m)
    assert len(d) == min(m.rows, m.cols)
    diag = IntMatrix.from_rows([[d[i] if i == j and i < len(d) else 0 for j in range(m.cols)]
                                for i in range(m.rows)])
    assert left @ m @ right == diag
    assert is_unimodular(left) and is_unimodular(right)
    assert all(x >= 0 for x in d)
    for x, y in zip(d, d[1:]):
        assert y % x == 0 if x else y == 0


@settings(deadline=None, max_examples=200)
@given(m=matrices())
def test_normal_forms_match_the_gcd_step_oracles(m):
    d, left, right = smith_normal_form(m)
    assert (d, left.entries, right.entries) == smith_by_general_steps(m)
    h, u = hermite_normal_form(m)
    want_h, want_u = hermite_by_gcd_steps(m)
    assert h.entries == want_h
    if m.rows == m.cols and gauss_det(m.to_lists()) != 0:
        assert u.entries == want_u


@settings(deadline=None, max_examples=150)
@given(m=matrices(square=True))
def test_bareiss_matches_oracles(m):
    rows = m.to_lists()
    assert det_exact(m) == cofactor_det(rows) == gauss_det(rows)


@settings(deadline=None, max_examples=150)
@given(g=symmetric_matrices())
def test_signature_counts_and_sign(g):
    lattice = Lattice(g)
    positive, negative, zero = signature(lattice)
    assert min(positive, negative, zero) >= 0
    assert positive + negative + zero == lattice.rank
    d, _, _ = smith_normal_form(g)
    assert zero == lattice.rank - sum(1 for x in d if x)
    if lattice.det != 0:
        assert zero == 0
        assert (-1) ** negative == sign(lattice.det)


@settings(deadline=None, max_examples=150)
@given(g=symmetric_matrices() | congruent_products())
def test_signature_matches_eigenvalue_signs(g):
    assert signature(Lattice(g)) == eigenvalue_signs(g.to_lists())


@pytest.mark.parametrize("rows", [
    [[0, 1], [1, -2]],
    [[0, 1], [1, 2]],
    [[0, 0, 1], [0, 0, 0], [1, 0, -2]],
    [[0, 3, 1], [3, -6, 0], [1, 0, 0]],
    [[1, 1, 0], [1, 1, 1], [0, 1, 0]],
    [[0, 0], [0, 0]],
], ids=["u-minus-2", "u-plus-2", "zero-row-between", "partner-cancels",
        "pivot-zero-after-step", "zero"])
def test_signature_through_zero_pivots(rows):
    # the first sign of the partner congruence would leave a zero pivot
    assert signature(Lattice(IntMatrix.from_rows(rows))) == eigenvalue_signs(rows)
