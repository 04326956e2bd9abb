"""Tests for named lattices, signatures and discriminant forms."""

import json
import random
from fractions import Fraction

import pytest

from k3lattices.intmat import IntMatrix
from k3lattices.lattices import (
    Lattice,
    direct_sum,
    discriminant_group,
    lattice_from_json,
    make_named,
    signature,
)

from oracles import cofactor_det, definiteness_sign, gauss_det


def test_named_gram_matrices():
    assert make_named("K7").gram.to_lists() == [[-4, 1], [1, -2]]
    assert make_named("A(1)").gram.to_lists() == [[-2]]
    assert make_named("U").gram.to_lists() == [[0, 1], [1, 0]]
    assert make_named("U(7)").gram.to_lists() == [[0, 7], [7, 0]]
    assert make_named("Z(112)").gram.to_lists() == [[112]]
    assert make_named("A15").gram == make_named("A(15)").gram


def test_named_rejects_bad_parameters():
    for bad in ("A(0)", "U(0)", "Z(0)", "Z", "E5", "E9", "D2", "K9", "Q3", "A"):
        with pytest.raises(ValueError):
            make_named(bad)


@pytest.mark.parametrize("bad", ["A(15", "A15)", "U(7", "(7)", "U()", "A()",
                                 "A\u0661\u0665", "A(\u0661\u0665)", "Z(\uff12)"])
def test_named_rejects_unpaired_parentheses_and_non_ascii_digits(bad):
    with pytest.raises(ValueError, match="unrecognized lattice name"):
        make_named(bad)


def test_chain_determinants_match_cofactor_oracle():
    for n in range(1, 21):
        l = make_named(f"A({n})")
        oracle = cofactor_det(l.gram.to_lists())
        assert l.det == oracle
        assert abs(oracle) == n + 1
        assert l.is_even


def test_d_and_e_determinants():
    for n in (3, 4, 5, 8):
        l = make_named(f"D({n})")
        assert abs(l.det) == 4
        assert l.det == gauss_det(l.gram.to_lists())
        assert definiteness_sign(l.gram.to_lists()) == -1
    for n, want in ((6, 3), (7, -2), (8, 1)):
        l = make_named(f"E({n})")
        assert l.det == want
        assert l.det == gauss_det(l.gram.to_lists())
        assert definiteness_sign(l.gram.to_lists()) == -1


def test_lattice_validation():
    with pytest.raises(ValueError):
        Lattice(IntMatrix.from_rows([[0, 1], [2, 0]]))
    with pytest.raises(ValueError):
        Lattice(IntMatrix.from_rows([[0, 1, 0], [1, 0, 0]]))


def test_direct_sum_invariants():
    s = direct_sum(make_named("U"), make_named("E8"), make_named("A6"))
    assert s.rank == 16
    assert s.det == -7
    assert s.det == gauss_det(s.gram.to_lists())
    assert s.is_even
    assert signature(s) == (1, 15, 0)

    t = direct_sum(make_named("U"), make_named("U"), make_named("K7"))
    assert t.rank == 6
    assert abs(t.det) == 7
    assert t.is_even

    u = make_named("U")
    assert direct_sum(u, Lattice(IntMatrix.zeros(0, 0))).gram == u.gram


def test_direct_sum_multiplies_dets_and_adds_signatures():
    rng = random.Random(3)
    pool = ["A3", "E8", "U", "U(7)", "K7", "Z(4)", "Z(-6)"]
    for _ in range(25):
        a = make_named(rng.choice(pool))
        b = make_named(rng.choice(pool))
        s = direct_sum(a, b)
        assert s.det == a.det * b.det
        assert signature(s) == tuple(x + y for x, y in zip(signature(a), signature(b)))


def test_signature_basic_shapes():
    assert signature(make_named("E8")) == (0, 8, 0)
    assert signature(make_named("U")) == (1, 1, 0)
    assert signature(Lattice(IntMatrix.zeros(2, 2))) == (0, 0, 2)
    assert signature(Lattice(IntMatrix.from_rows([[0, 2, 0], [2, 0, 0], [0, 0, 0]]))) == (1, 1, 1)


def test_signature_of_diagonal_matches_entry_signs():
    rng = random.Random(41)
    for _ in range(40):
        n = rng.randint(1, 6)
        diag = [rng.randint(-7, 7) for _ in range(n)]
        l = Lattice(IntMatrix.from_rows(
            [[diag[i] if i == j else 0 for j in range(n)] for i in range(n)]))
        positive, negative, zero = signature(l)
        assert positive == sum(1 for x in diag if x > 0)
        assert negative == sum(1 for x in diag if x < 0)
        assert zero == sum(1 for x in diag if x == 0)


def test_discriminant_group_chain15():
    l = make_named("A15")
    group = discriminant_group(l)
    assert group.invariant_factors == (16,)
    assert group.order == abs(l.det) == 16
    # dual vector of an end node of the chain, computed by hand
    end_dual = [Fraction(-(16 - i), 16) for i in range(1, 16)]
    assert l.pairing(end_dual, end_dual) % 2 == Fraction(17, 16)
    # generator choice is only defined up to a unit, so compare q orbits
    units = [k for k in range(1, 16) if k % 2 == 1]
    got = {k * k * group.qvalues[0] % 2 for k in units}
    want = {k * k * Fraction(17, 16) % 2 for k in units}
    assert got == want


def test_discriminant_group_k7():
    l = make_named("K7")
    group = discriminant_group(l)
    assert group.invariant_factors == (7,)
    # first dual basis vector: K7^(-1) column = (-2,-1)/7
    v = [Fraction(-2, 7), Fraction(-1, 7)]
    assert l.pairing(v, v) % 2 == Fraction(12, 7)
    got = {k * k * group.qvalues[0] % 2 for k in range(1, 7)}
    assert got == {Fraction(12, 7), Fraction(10, 7), Fraction(6, 7)}


def test_discriminant_group_unimodular_and_degenerate():
    assert discriminant_group(make_named("E8")).invariant_factors == ()
    with pytest.raises(ValueError):
        discriminant_group(Lattice(IntMatrix.zeros(2, 2)))


def test_discriminant_group_order_always_matches_det():
    for name in ("A3", "A15", "D4", "E6", "E7", "K7", "U(7)", "Z(112)"):
        l = make_named(name)
        assert discriminant_group(l).order == abs(l.det)


def test_qvalue_stable_under_lattice_shifts():
    rng = random.Random(29)
    for name in ("A15", "K7"):
        l = make_named(name)
        group = discriminant_group(l)
        gen, d = group.numerators.col(0), group.invariant_factors[0]
        base = Fraction(l.pairing(gen, gen), d * d) % 2
        for _ in range(20):
            shifted = [g + d * rng.randint(-3, 3) for g in gen]
            assert Fraction(l.pairing(shifted, shifted), d * d) % 2 == base


def test_lattice_json_roundtrip():
    l = make_named("K7")
    back = lattice_from_json(json.dumps({"label": l.label, "gram": l.gram.to_lists()}))
    assert back.gram == l.gram
    assert back.label == "K7"
    for bad in ("[]", '{"label": "x"}', '{"gram": [[1, "a"]]}'):
        with pytest.raises((ValueError, TypeError)):
            lattice_from_json(bad)
