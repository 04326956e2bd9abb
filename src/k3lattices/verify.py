"""The full verification pipeline behind the command line front end.

Every check recomputes its claim from scratch through the public API
and records the computed values as strings, so the JSON report is
deterministic and loses no precision.  The perturb flag flips one Gram
entry of the A15 chain lattice before checking; it exists as a negative
control for the exit-code contract."""

from __future__ import annotations

import time

from . import __version__
from ._record import Record, set_field
from .intmat import IntMatrix, det_exact, mat_vec
from .lattices import Lattice, discriminant_group, make_named, signature
from .fibration import analyze_k3
from .fixedlocus import (
    count_check,
    fixed_locus_table,
    fixed_pair_search,
    lefschetz_check,
    linear_chain_edges,
    walk_chain,
)
from .fixtures import (
    CHAINS,
    EXPECTED_P26,
    EXPECTED_P35,
    EXPECTED_P44,
    INVARIANT_LATTICES,
    NS_RANK,
    chain_glue,
    chain_sublattice,
    overlattice_pair,
    reference_curve_edges,
    reference_neron_severi,
    weierstrass_model,
)
from .sublattices import Overlattice, is_primitive


class CheckResult(Record):
    __slots__ = ("check_id", "anchor", "passed", "values")

    def __init__(self, check_id: str, anchor: str, passed: bool,
                 values: tuple[tuple[str, str], ...]) -> None:
        set_field(self, "check_id", check_id)
        set_field(self, "anchor", anchor)
        set_field(self, "passed", passed)
        set_field(self, "values", values)


class VerificationReport(Record):
    __slots__ = ("version", "timestamp", "checks")

    def __init__(self, version: str, timestamp: str, checks: tuple[CheckResult, ...]) -> None:
        set_field(self, "version", version)
        set_field(self, "timestamp", timestamp)
        set_field(self, "checks", checks)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "version": self.version,
            "timestamp": self.timestamp,
            "passed": self.passed,
            "checks": [
                {
                    "id": c.check_id,
                    "anchor": c.anchor,
                    "status": "pass" if c.passed else "fail",
                    "values": dict(c.values),
                }
                for c in self.checks
            ],
        }

    def render_text(self) -> str:
        lines = []
        for c in self.checks:
            lines.append(f"{'PASS' if c.passed else 'FAIL'}  {c.check_id}  {c.anchor}")
            if not c.passed:
                for key, value in c.values:
                    lines.append(f"      {key} = {value}")
        verdict = "all checks passed" if self.passed else "verification FAILED"
        lines.append(f"{len(self.checks)} checks: {verdict}")
        return "\n".join(lines)


def _mirror(vector: tuple[int, ...]) -> tuple[int, ...]:
    # the Dynkin involution of the A15 summand; the rank-1 slot stays put
    return tuple([vector[14 - i] for i in range(15)]) + (vector[15],)


def _overlattice_contains(over: Overlattice, vector: tuple[int, ...], scale: int) -> bool:
    # over is m + Z*glue/over.scale with over/m of order index, so vector/scale
    # is in over iff vector/scale - k*glue/over.scale is integral for some k < index
    d = scale * over.scale
    return any(all((x * over.scale - k * g * scale) % d == 0
                   for x, g in zip(vector, over.glue))
               for k in range(over.index))


def run_verification(perturb: bool = False) -> VerificationReport:
    checks: list[CheckResult] = []

    def add(check_id: str, anchor: str, passed: bool, values: dict) -> None:
        pairs = tuple(sorted((k, str(v)) for k, v in values.items()))
        checks.append(CheckResult(check_id, anchor, bool(passed), pairs))

    a15 = make_named("A15")
    if perturb:
        rows = [list(r) for r in a15.gram.entries]
        rows[0][0] = -4
        a15 = Lattice(IntMatrix.from_rows(rows), "A15 (perturbed)")
    group = discriminant_group(a15)
    add("01-a15", "|det A15| = 16 with discriminant group Z/16",
        abs(a15.det) == 16 and group.invariant_factors == (16,),
        {"det": a15.det, "invariant_factors": group.invariant_factors})

    s_lattice = make_named("U + E8 + A6")
    sig = signature(s_lattice)
    add("02-s-lattice", "U + E8 + A6 has det -7, signature (1, 15), and is even",
        s_lattice.det == -7 and (sig.positive, sig.negative, sig.zero) == (1, 15, 0)
        and s_lattice.is_even,
        {"det": s_lattice.det, "signature": (sig.positive, sig.negative, sig.zero),
         "even": s_lattice.is_even})

    k7 = make_named("K7")
    k7_sig = signature(k7)
    add("03-k7", "K7 = [[-4, 1], [1, -2]] is even, negative definite, |det| = 7",
        k7.is_even and (k7_sig.positive, k7_sig.negative) == (0, 2)
        and abs(k7.det) == 7,
        {"det": k7.det, "signature": (k7_sig.positive, k7_sig.negative, k7_sig.zero),
         "even": k7.is_even})

    first = analyze_k3(weierstrass_model("i7e8"), NS_RANK)
    shape = tuple([(r.place, r.kodaira, r.count) for r in first.fibers])
    add("04-fibers-i7e8",
        "i7e8: I7 at t = 0, II* at infinity, 7 I1 on t^7 - 2, Euler 24, MW 0",
        shape == (("0", "I7", 1), ("t^7 - 2", "I1", 7), ("inf", "II*", 1))
        and first.euler_total == 24 and first.mw_rank == 0,
        {"fibers": shape, "euler": first.euler_total, "mw_rank": first.mw_rank})

    second = analyze_k3(weierstrass_model("e7e6"), NS_RANK)
    shape = tuple([(r.place, r.kodaira, r.count) for r in second.fibers])
    add("05-fibers-e7e6",
        "e7e6: III* at t = 0, IV* at infinity, 7 I1 on 27*t^7 + 4, MW 1",
        shape == (("0", "III*", 1), ("27*t^7 + 4", "I1", 7), ("inf", "IV*", 1))
        and second.euler_total == 24 and second.mw_rank == 1,
        {"fibers": shape, "euler": second.euler_total, "mw_rank": second.mw_rank})

    ns = reference_neron_severi()
    ns_sig = signature(ns.lattice)
    add("06-neron-severi",
        "the intersection lattice of i7e8 has rank 16, det -7, and is even",
        ns.lattice.rank == 16 and ns.lattice.det == s_lattice.det
        and ns.lattice.is_even
        and (ns_sig.positive, ns_sig.negative) == (1, 15),
        {"rank": ns.lattice.rank, "det": ns.lattice.det,
         "signature": (ns_sig.positive, ns_sig.negative, ns_sig.zero)})

    chain_ok = True
    chain_values = {}
    a15_gram = make_named("A15").gram
    for name in CHAINS:
        sub = chain_sublattice(name)
        induces_a15 = sub.induced_gram() == a15_gram
        primitive = is_primitive(sub)
        # independent generators: integral half-sums = mod-2 span of right's even-d columns
        half = 2 ** sum(1 for d in sub.smith[0] if d % 2 == 0) - 1
        chain_ok &= induces_a15 and primitive and not half
        chain_values[name] = f"A15={induces_a15} primitive={primitive} half_sums={half}"
    add("07-chains",
        "both 15-chains induce A15 primitively, with no half-integral sums",
        chain_ok, chain_values)

    glue_ok = True
    glue_values = {}
    for name in CHAINS:
        sol = chain_glue(name)
        h_sq = ns.lattice.pairing(sol.H, sol.H)
        a1 = sol.a[0]
        residues = all(sol.a[i] == (i + 1) * a1 % sol.n for i in range(15))
        # h+ = (H + a1 * sum((i+1) * C_i)) / n must complete the chain to a basis
        coords = chain_sublattice(name).coords
        numerator = [x + c for x, c in
                     zip(sol.H, mat_vec(coords, [(i + 1) * a1 for i in range(15)]))]
        h_plus_integral = all(x % sol.n == 0 for x in numerator)
        basis = IntMatrix.from_rows(
            [list(coords.row(i)) + [numerator[i] // sol.n] for i in range(16)])
        basis_det = det_exact(basis.transpose() @ ns.lattice.gram @ basis)
        glue_ok &= (sol.n == 16 and h_sq == 112 and 16 * h_sq == 7 * sol.n ** 2
                    and residues and a1 % 16 in (3, 13)
                    and h_plus_integral and basis_det == ns.lattice.det)
        glue_values[name] = f"n={sol.n} H^2={h_sq} a1={a1} basis_det={basis_det}"
    add("08-glue",
        "index 16, H^2 = 112, 16 H^2 = 7 n^2, a_i = i a1, a1 = +-3 mod 16, "
        "h+ integral, {C_i, h+} spans", glue_ok, glue_values)

    pair = overlattice_pair()
    swapped = False
    if len(pair) == 2:
        one, two = pair
        swapped = (_overlattice_contains(two, _mirror(one.glue), one.scale)
                   and _overlattice_contains(one, _mirror(two.glue), two.scale)
                   and not _overlattice_contains(one, _mirror(one.glue), one.scale)
                   and not _overlattice_contains(two, _mirror(two.glue), two.scale))
    even_dets = all(o.index == 16 and abs(det_exact(o.gram)) == 7 for o in pair)
    add("09-overlattices",
        "A15 + Z(112) has exactly two even index-16 overlattices, swapped by "
        "the Dynkin involution",
        len(pair) == 2 and swapped and even_dets,
        {"count": len(pair), "dynkin_swapped": swapped})

    profiles = {}
    rejected = {}
    for name in INVARIANT_LATTICES:
        try:
            profiles[name] = fixed_locus_table(make_named(name))
        except ValueError as exc:
            rejected[f"rejected {name}"] = exc
    counts = [(p.n26, p.n35, p.n44) for p in profiles.values()]
    totals = [p.points for p in profiles.values()]
    table_ok = (not rejected and totals == [3, 3, 8, 8, 13]
                and counts == [(2, 1, 0), (2, 1, 0), (4, 3, 1), (4, 3, 1), (6, 5, 2)])
    add("10-fixed-locus",
        "the five rows count (2,1,0), (2,1,0), (4,3,1), (4,3,1), (6,5,2) "
        "isolated points, 3 + 3 + 8 + 8 + 13 in total",
        table_ok, {"point_totals": totals, **rejected})

    lefschetz_ok = all(map(lefschetz_check, profiles.values()))
    add("11-lefschetz",
        "the fixed-locus Euler number equals 2 + r - (22 - r)/6 on every row",
        lefschetz_ok, {"rows": len(profiles)})

    edges = reference_curve_edges()
    fixed = fixed_pair_search(edges)
    walk = walk_chain(edges, fixed[0] if fixed else ())
    placement_ok = (fixed == [("G7", "T6")]
                    and walk.consistent
                    and walk.isolated("P26") == EXPECTED_P26
                    and walk.isolated("P35") == EXPECTED_P35
                    and walk.isolated("P44") == EXPECTED_P44
                    and "U + E8 + A6" in profiles
                    and count_check(walk, profiles["U + E8 + A6"]))
    # the chain's curves are C1..C15, so a label maps back to its position
    pairs = sorted(tuple(sorted(int(c[1:]) for c in pair))
                   for pair in fixed_pair_search(linear_chain_edges(15)))
    search_ok = (pairs == [(3, 10), (4, 11), (5, 12), (6, 13)]
                 and all(q - p == 7 for p, q in pairs))
    add("12-walk",
        "the reference walk reproduces the known placement of 13 points and "
        "2 fixed curves; a 15-chain closes only with fixed curves 7 apart",
        placement_ok and search_ok,
        {"counts": walk.counts(), "positions": pairs})

    timestamp = time.strftime("%Y-%m-%dT%H:%M:%S+00:00", time.gmtime())
    return VerificationReport(__version__, timestamp, tuple(checks))
