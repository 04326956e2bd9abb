"""Fixed-locus bookkeeping for an order-7 purely non-symplectic action.

Two independent descriptions of the fixed locus are implemented and can
be played against each other.  fixed_locus_table reads it off the
invariant lattice S (Artebani-Sarti-Taki, Math. Z. 268 (2011)): even,
of signature (1, r-1), with discriminant group (Z/7)^a, and m = (22-r)/6
blocks of dimension 6 in the rest of the second cohomology.  With
s = (r-4)/6 there are 2s+2, 2s+1 and s isolated points of the three
local types below, and fixed curves whose terms 1 - g sum to s: one of
genus g = (m-a)/2 when g >= 1, the rest rational.

The walk engine instead derives the fixed points combinatorially from a
configuration of stable rational curves: at a fixed point on curves C
and D the local exponents satisfy a_C + a_D = 1 mod 7, a pointwise
fixed curve carries exponent 0 along itself, and following a stable,
not pointwise fixed curve from one of its two fixed points to the
other negates the exponent.  Isolated points therefore come in the
three unordered exponent pairs {2,6}, {3,5}, {4,4}.

A free endpoint (a fixed point of a degree-one curve away from any
intersection) is valid only for exponents outside {0, 1}: exponent 0
would force the curve itself to be fixed, exponent 1 would require a
pointwise fixed curve through the point transverse to it, and the
configurations handled here are assumed to contain all fixed curves.
"""

from __future__ import annotations

from typing import Iterable

from ._record import Record, set_field
from .lattices import Lattice, discriminant_group, signature

ORDER = 7


class FixedLocusProfile(Record):
    __slots__ = ("rank", "n26", "n35", "n44", "curves")

    def __init__(self, rank: int, n26: int, n35: int, n44: int,
                 curves: tuple[int, ...]) -> None:
        set_field(self, "rank", rank)
        set_field(self, "n26", n26)
        set_field(self, "n35", n35)
        set_field(self, "n44", n44)
        set_field(self, "curves", curves)

    @property
    def points(self) -> int:
        return self.n26 + self.n35 + self.n44

    @property
    def euler(self) -> int:
        return self.points + sum(2 - 2 * g for g in self.curves)


def fixed_locus_table(invariant: Lattice) -> FixedLocusProfile:
    """The fixed locus of an order-7 purely non-symplectic action with this
    invariant lattice.  By the oddity formula the signature 2 - r mod 8
    makes a and m agree mod 2, so g = (m - a)/2 is exact."""
    r = invariant.rank
    m, rest = divmod(22 - r, ORDER - 1)
    if rest or m < 1:
        raise ValueError(f"22 - {r} is not a positive multiple of {ORDER - 1}")
    if not invariant.is_even:
        raise ValueError(f"{invariant.label} is not even")
    if signature(invariant) != (1, r - 1, 0):
        raise ValueError(f"{invariant.label} does not have signature (1, {r - 1})")
    factors = discriminant_group(invariant).invariant_factors
    if any(d != ORDER for d in factors):
        raise ValueError(f"{invariant.label} is not {ORDER}-elementary: {factors}")
    a = len(factors)
    if a > m:
        raise ValueError(f"{invariant.label} has a = {a} above m = {m}")
    s = (r - 4) // 6
    g = (m - a) // 2
    curves = (g,) + (0,) * (s + g - 1) if g >= 1 else (0,) * s
    return FixedLocusProfile(r, 2 * s + 2, 2 * s + 1, s, curves)


def lefschetz_check(profile: FixedLocusProfile) -> bool:
    """Topological fixed-point count against the eigenvalue bookkeeping.

    The non-invariant part of the second cohomology, of rank 22 - r,
    splits into 6-dimensional blocks each contributing trace -1, so the
    fixed locus must have Euler number 2 + r - (22 - r)/6.
    """
    blocks, rest = divmod(22 - profile.rank, ORDER - 1)
    if rest:
        raise ValueError("the non-invariant rank splits into blocks of 6")
    return profile.euler == 2 + profile.rank - blocks


class FixedPoint(Record):
    __slots__ = ("curves", "exponents")

    def __init__(self, curves: tuple[str, ...], exponents: tuple[int, int]) -> None:
        set_field(self, "curves", curves)
        set_field(self, "exponents", exponents)

    @property
    def kind(self) -> str:
        if 0 in self.exponents:
            return "curve"
        return f"P{self.exponents[0]}{self.exponents[1]}"


class ChainWalk(Record):
    __slots__ = ("fixed_curves", "points", "conflicts")

    def __init__(self, fixed_curves: tuple[str, ...], points: tuple[FixedPoint, ...],
                 conflicts: tuple[str, ...]) -> None:
        set_field(self, "fixed_curves", fixed_curves)
        set_field(self, "points", points)
        set_field(self, "conflicts", conflicts)

    @property
    def consistent(self) -> bool:
        return not self.conflicts

    def counts(self) -> tuple[int, int, int, int]:
        kinds = [p.kind for p in self.points]
        return (kinds.count("P26"), kinds.count("P35"), kinds.count("P44"),
                len(self.fixed_curves))

    def isolated(self, kind: str) -> tuple[tuple[str, ...], ...]:
        return tuple([p.curves for p in self.points if p.kind == kind])


def walk_chain(edges: Iterable[tuple[str, str]], fixed: Iterable[str]) -> ChainWalk:
    """Propagate local exponents over a configuration of stable curves.

    edges are unordered pairs of intersecting curves; fixed lists the
    pointwise fixed ones.  Each curve carries one exponent x: 0 on a
    fixed curve, otherwise its exponent at its first intersection in
    sorted edge order, and -x at its other fixed point.  The walk runs
    breadth-first from the fixed curves.  Inconsistencies are collected
    as conflict messages rather than raised, since an inconsistent walk
    is the expected outcome for impossible fixed-curve placements.
    """
    edge_list = sorted({tuple(sorted(e)) for e in edges})
    fixed_set = frozenset(fixed)
    incident: dict[str, list[tuple[str, str]]] = {c: [] for c in fixed_set}
    for edge in edge_list:
        if edge[0] == edge[1]:
            raise ValueError(f"curve {edge[0]} cannot intersect itself here")
        for c in edge:
            incident.setdefault(c, []).append(edge)

    expo = dict.fromkeys(fixed_set, 0)

    def at(c: str, edge: tuple[str, str]) -> int:
        return expo[c] if incident[c][0] == edge else -expo[c] % ORDER

    conflicts = [f"{c} is not fixed yet carries {len(touching)} fixed points"
                 for c, touching in sorted(incident.items())
                 if c not in fixed_set and len(touching) > 2]
    walked = sorted(fixed_set)
    for c in walked:
        for edge in incident[c]:
            d = edge[1] if edge[0] == c else edge[0]
            if d not in expo:
                # the exponents of two curves at their common point sum to 1
                value = 1 - at(c, edge)
                expo[d] = value % ORDER if incident[d][0] == edge else -value % ORDER
                walked.append(d)

    points = []
    for edge in edge_list:
        if edge[0] in expo:
            pair = tuple(sorted((at(edge[0], edge), at(edge[1], edge))))
            if sum(pair) % ORDER != 1:
                conflicts.append(f"the exponents of {edge} do not sum to 1")
            points.append(FixedPoint(edge, pair))
    for c in walked[len(fixed_set):]:
        free = -expo[c] % ORDER
        if free == 0:
            conflicts.append(f"{c} gets exponent 0 but is not pointwise fixed")
        elif len(incident[c]) == 1:
            if free == 1:
                conflicts.append(f"free endpoint of {c} has exponent 1")
            points.append(FixedPoint((c,), tuple(sorted((free, (1 - free) % ORDER)))))
    unreached = sorted(set(incident) - set(expo))
    if unreached and not conflicts:
        conflicts.append("no exponent reaches " + ", ".join(unreached))
    points.sort(key=lambda p: p.curves)
    return ChainWalk(tuple(sorted(fixed_set)), tuple(points), tuple(conflicts))


def count_check(walk: ChainWalk, profile: FixedLocusProfile) -> bool:
    """Walk-derived counts must reproduce the derived row exactly."""
    expected = (profile.n26, profile.n35, profile.n44, len(profile.curves))
    return walk.consistent and walk.counts() == expected


def linear_chain_edges(n: int) -> tuple[tuple[str, str], ...]:
    return tuple([(f"C{i}", f"C{i + 1}") for i in range(1, n)])


def fixed_pair_search(edges: Iterable[tuple[str, str]]) -> list[tuple[str, str]]:
    """Every pair of curves whose walk, with those two pointwise fixed,
    closes without conflicts; each pair as sorted labels, in sorted order.

    Only the pairs walk_chain cannot reject at sight are walked: two fixed
    curves that meet give exponents 0 + 0 at their common point, and a
    curve meeting three others or more would carry three fixed points
    unless it is fixed itself.
    """
    edges = tuple(edges)
    meets: dict[str, set[str]] = {}
    for a, b in edges:
        meets.setdefault(a, set()).add(b)
        meets.setdefault(b, set()).add(a)
    forced = {c for c, near in meets.items() if len(near) > 2}
    curves = sorted(meets)
    return [(p, q) for i, p in enumerate(curves) for q in curves[i + 1:]
            if q not in meets[p] and forced <= {p, q}
            and walk_chain(edges, (p, q)).consistent]
