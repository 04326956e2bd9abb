"""Built-in reference scenarios wired through the whole pipeline.

Two rigid elliptic K3 models carry an order-7 action on the base:

  i7e8:  y^2 = x^3 + a4*x + t^7 - 1 with a4^3 = -27/4; fibers I7 over
         t = 0, II* over infinity, seven I1 over t^7 = 2.
  e7e6:  y^2 = x^3 + t^3*x + t^8; fibers III* over t = 0, IV* over
         infinity, seven I1 over 27*t^7 + 4 = 0.

The fibration of i7e8 is read off its Weierstrass model; the component
labels in LABELS are the only hand-given data of its configuration.
It has Mordell-Weil rank 0, so its Neron-Severi lattice is spanned by
the section S, the fiber class F and the fiber components, labeled
G1..G7 (the I7 cycle, G7 meeting S) and T1..T9 (the II* tree, T1..T8 a
chain with T9 attached to T6, T1 meeting S).  The curve graph of the
walk is read off that lattice, and the walk's two pointwise fixed curves
are the one pair that fixed_pair_search finds on it.  The two 15-chains
below are the only ways to run through the components as a linear chain
of (-2)-curves, and both span an A15 sublattice of corank 1."""

from __future__ import annotations

from fractions import Fraction
from functools import cache

from .fibration import (
    FiberSpec,
    FibrationModel,
    NeronSeveri,
    WeierstrassModel,
    analyze_k3,
    build_neron_severi,
    extract_chain,
)
from .intmat import IntMatrix
from .lattices import Lattice, make_named
from .polynomials import Poly
from .sublattices import (
    GlueSolution,
    Overlattice,
    Sublattice,
    enumerate_even_overlattices,
    solve_glue,
)

WEIERSTRASS_NAMES = ("i7e8", "e7e6")

NS_RANK = 16
"""Neron-Severi rank of the paper's K3 surfaces, the Shioda-Tate target."""

# (identity, component labels) of the reducible i7e8 fibers, by place
LABELS: dict[str, tuple[str, tuple[str, ...]]] = {
    "0": ("G7", ("G1", "G2", "G3", "G4", "G5", "G6", "G7")),
    "inf": ("T1", ("T1", "T2", "T3", "T4", "T5", "T6", "T7", "T8", "T9")),
}

CHAINS: dict[str, tuple[str, ...]] = {
    "a15-chain-1": ("G2", "G3", "G4", "G5", "G6", "G7", "S",
                    "T1", "T2", "T3", "T4", "T5", "T6", "T7", "T8"),
    "a15-chain-2": ("G5", "G4", "G3", "G2", "G1", "G7", "S",
                    "T1", "T2", "T3", "T4", "T5", "T6", "T7", "T8"),
}

INVARIANT_LATTICES = ("U + K7", "U(7) + K7", "U + E8", "U(7) + E8", "U + E8 + A6")
"""The five invariant lattices of an order-7 purely non-symplectic action."""

# isolated fixed points of the reference walk, by unordered exponent pair
EXPECTED_P26 = (("G1", "G2"), ("G5", "G6"), ("S", "T1"), ("T4", "T5"),
                ("T7", "T8"), ("T9",))
EXPECTED_P35 = (("G2", "G3"), ("G4", "G5"), ("T1", "T2"), ("T3", "T4"),
                ("T8",))
EXPECTED_P44 = (("G3", "G4"), ("T2", "T3"))


@cache
def weierstrass_model(name: str) -> WeierstrassModel:
    if name == "i7e8":
        return WeierstrassModel.from_a4_cubed(
            Fraction(-27, 4), Poly.of([-1, 0, 0, 0, 0, 0, 0, 1]), name)
    if name == "e7e6":
        return WeierstrassModel(Poly.monomial(3), Poly.monomial(8), name)
    raise ValueError(f"unknown model {name!r}; have {', '.join(WEIERSTRASS_NAMES)}")


@cache
def reference_fibration() -> FibrationModel:
    analysis = analyze_k3(weierstrass_model("i7e8"), NS_RANK)
    return FibrationModel(tuple([
        FiberSpec(r.place, r.kodaira, *LABELS.get(r.place, ("", ())), count=r.count)
        for r in analysis.fibers]), analysis.mw_rank)


@cache
def reference_neron_severi() -> NeronSeveri:
    return build_neron_severi(reference_fibration())


@cache
def chain_sublattice(name: str) -> Sublattice:
    if name not in CHAINS:
        raise ValueError(f"unknown chain {name!r}; have {', '.join(CHAINS)}")
    return extract_chain(reference_neron_severi(), CHAINS[name])


@cache
def chain_glue(name: str) -> GlueSolution:
    ns = reference_neron_severi()
    return solve_glue(chain_sublattice(name), positive_against=ns.vectors["F"])


def reference_curve_edges() -> tuple[tuple[str, str], ...]:
    """Pairs of curves of i7e8 (S and every component) meeting once."""
    ns = reference_neron_severi()
    curves = [c for c in ns.vectors if c != "F"]
    c = IntMatrix.from_rows([ns.vectors[k] for k in curves])
    pairing = c @ ns.lattice.gram @ c.transpose()
    return tuple([(a, b) for i, a in enumerate(curves)
                  for j, b in enumerate(curves) if i < j and pairing[i, j] == 1])


@cache
def glue_target() -> Lattice:
    return make_named("A15 + Z(112)")


@cache
def overlattice_pair() -> tuple[Overlattice, ...]:
    return tuple(enumerate_even_overlattices(glue_target(), 16))
