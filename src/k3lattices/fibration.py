"""Elliptic K3 bookkeeping over the rational function field of a line.

Three layers live here.  Weierstrass models y^2 = x^3 + a4*x + a6 are
classified place by place through the valuation triple
(v(a4), v(a6), v(Delta)).  The places t = 0 and t = infinity are read
off the two ends of the coefficient tuples: the counts of low-order
zeros, and the K3 degree complements (8, 12, 24).  Every other finite
place is read off the Yun pieces of Delta / t^k.  Classified
configurations are summarized against the Shioda-Tate formula.
Finally, a fibration with labeled components and a zero-section is
turned into its intersection lattice on the basis {S, F, non-identity
components}, from which linear chains of (-2)-curves can be extracted
as sublattices.

The x coefficient is c*a4 for a polynomial a4 and a constant c given
through its cube, a nonzero rational, so that a model whose x coefficient
is only rational after cubing (c^3 = -27/4 for i7e8) stays inside exact
arithmetic.  The constant c changes no valuation, so every place reads
v(a4) off a4 itself.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from functools import cached_property
from itertools import zip_longest
from typing import Mapping, Sequence

from ._record import Record, set_field
from .intmat import IntMatrix
from .lattices import Lattice, _read_decimal
from .polynomials import (
    Poly,
    Rational,
    _convolve,
    _scaled,
    format_poly,
    squarefree_parts,
    squarefree_rational_roots,
    uniform_valuations,
)
from .sublattices import Sublattice


class NonMinimalModelError(ValueError):
    """The model can be rescaled at the place before classification."""


class WeierstrassModel(Record):
    """y^2 = x^3 + c*a4*x + a6, where c^3 = a4_scale_cubed is a nonzero rational."""

    __slots__ = ("a4", "a6", "label", "a4_scale_cubed", "__dict__")

    def __init__(self, a4: Poly, a6: Poly, label: str = "",
                 a4_scale_cubed: Rational = 1) -> None:
        set_field(self, "a4", a4)
        set_field(self, "a6", a6)
        set_field(self, "label", label)
        set_field(self, "a4_scale_cubed", a4_scale_cubed)
        if a4.degree > 8:
            raise ValueError("deg a4 exceeds the K3 bound of 8")
        if a6.degree > 12:
            raise ValueError("deg a6 exceeds the K3 bound of 12")
        if a4_scale_cubed == 0:
            raise ValueError("a4_scale_cubed must be nonzero")
        if self.discriminant.is_zero:
            raise ValueError("the discriminant vanishes identically")

    @cached_property
    def discriminant(self) -> Poly:
        # a4 = p*A and a6 = q*B for integer lists A and B, so Delta is
        # -64 c^3 p^3 A^3 - 432 q^2 B^2 = (u A^3 + v B^2) / d
        a, b = self.a4.ints, self.a6.ints
        f, g = -64 * self.a4_scale_cubed * self.a4.content ** 3, -432 * self.a6.content ** 2
        d = math.lcm(f.denominator, g.denominator)
        u, v = f.numerator * (d // f.denominator), g.numerator * (d // g.denominator)
        return _scaled([u * x + v * y for x, y in zip_longest(
            _convolve(_convolve(a, a), a), _convolve(b, b), fillvalue=0)], Fraction(1, d))

    @classmethod
    def from_a4_cubed(cls, value: Rational, a6: Poly,
                      label: str = "") -> "WeierstrassModel":
        return cls(Poly.constant(1 if value else 0), a6, label, value or 1)


def _infinite_valuations(w: WeierstrassModel) -> tuple[int | None, int | None, int]:
    v4 = None if w.a4.is_zero else 8 - w.a4.degree
    v6 = None if w.a6.is_zero else 12 - w.a6.degree
    return v4, v6, 24 - w.discriminant.degree


def _order_at_zero(f: Poly) -> int | None:
    """The order of f at t = 0, its count of low-order zero coefficients;
    None for the zero polynomial."""
    return None if f.is_zero else next(i for i, c in enumerate(f.ints) if c)


def _valuations_at_zero(w: WeierstrassModel) -> tuple[int | None, int | None, int]:
    return _order_at_zero(w.a4), _order_at_zero(w.a6), _order_at_zero(w.discriminant)


def _kodaira_from_valuations(v4: int | None, v6: int | None, vd: int) -> str:
    """Valuation-triple classification, residue characteristic 0.

    None means infinite valuation (the coefficient vanishes identically).
    """
    big4 = v4 is None or v4 >= 4
    big6 = v6 is None or v6 >= 6
    if big4 and big6:
        raise NonMinimalModelError(
            "model is not minimal here; substitute x -> u^2 x, y -> u^3 y "
            "to divide (a4, a6) by (u^4, u^6) and retry")
    if vd == 0:
        return "I0"
    if v4 == 0:
        return f"I{vd}"
    if v6 == 1:
        return "II"
    if v4 == 1:
        return "III"
    if v6 == 2:
        return "IV"
    if vd == 6:
        return "I0*"
    if v4 == 2:
        return f"I{vd - 6}*"
    if v6 == 4:
        return "IV*"
    if v4 == 3:
        return "III*"
    if v6 == 5:
        return "II*"
    raise ValueError(f"valuation triple ({v4}, {v6}, {vd}) matches no fiber type")


_KODAIRA_IN = re.compile(r"I(0|[1-9][0-9]*)(\*?)")

# (euler number, root-lattice name, multiplicities, weighted edges) of the types outside
# the I_n and I_n* families; I1, I2 and I3 share the dual graphs of II, III and IV
_KODAIRA_TABLE = {
    "II": (2, None, (1,), ()),
    "III": (3, "A1", (1, 1), ((0, 1, 2),)),
    "IV": (4, "A2", (1, 1, 1), ((0, 1, 1), (1, 2, 1), (0, 2, 1))),
    "IV*": (8, "E6", (1, 2, 3, 2, 1, 2, 1),
            ((0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 4, 1), (2, 5, 1), (5, 6, 1))),
    "III*": (9, "E7", (1, 2, 3, 4, 3, 2, 1, 2),
             ((0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 4, 1), (4, 5, 1), (5, 6, 1),
              (3, 7, 1))),
    "II*": (10, "E8", (1, 2, 3, 4, 5, 6, 4, 2, 3),
            ((0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 4, 1), (4, 5, 1), (5, 6, 1),
             (6, 7, 1), (5, 8, 1))),
}


def _kodaira_family(tag: str) -> tuple[int, bool] | None:
    """None for a tag of _KODAIRA_TABLE, else (n, starred) of I_n or I_n*;
    any other tag, a non-canonical spelling of n among them, raises."""
    if tag in _KODAIRA_TABLE:
        return None
    m = _KODAIRA_IN.fullmatch(tag)
    if m is None:
        raise ValueError(f"unknown Kodaira type {tag!r}")
    n, star = m.groups()
    return _read_decimal(n, "the n of Kodaira type I_n"), star == "*"


def kodaira_data(tag: str) -> tuple[int, int, str | None]:
    """(euler number, component count, root-lattice name) of a fiber type."""
    family = _kodaira_family(tag)
    if family is None:
        euler, root, multiplicities, _ = _KODAIRA_TABLE[tag]
        return euler, len(multiplicities), root
    n, starred = family
    if starred:
        return n + 6, n + 5, f"D{n + 4}"
    return n, max(n, 1), f"A{n - 1}" if n >= 2 else None


class FiberReport(Record):
    __slots__ = ("place", "kodaira", "count")

    def __init__(self, place: str, kodaira: str, count: int = 1) -> None:
        set_field(self, "place", place)
        set_field(self, "kodaira", kodaira)
        set_field(self, "count", count)


def _euler_total(fibers: Sequence[FiberReport | FiberSpec]) -> int:
    return sum(kodaira_data(f.kodaira)[0] * f.count for f in fibers)


def _shioda_tate_rank(fibers: Sequence[FiberReport | FiberSpec], mw_rank: int) -> int:
    shifted = sum((kodaira_data(f.kodaira)[1] - 1) * f.count for f in fibers)
    return 2 + shifted + mw_rank


def _fiber_type(v4: int | None, v6: int | None, vd: int) -> str:
    """The tag of a valuation triple, whose Euler number must equal v(Delta)."""
    tag = _kodaira_from_valuations(v4, v6, vd)
    euler = kodaira_data(tag)[0]
    if euler != vd:
        raise ValueError(f"Euler number {euler} of {tag} disagrees with v(Delta) = {vd}")
    return tag


def _split_valuations(f: Poly, modulus: Poly) -> list[tuple[Poly, int | None]]:
    return [(modulus, None)] if f.is_zero else uniform_valuations(f, modulus)


def _uniform_pieces(w: WeierstrassModel, modulus: Poly,
                    vd: int) -> list[tuple[Poly, int | None, int | None]]:
    """The modulus split into pieces (h, v(a4), v(a6)) of constant valuations.

    At a root of Delta = -16 (4 c^3 a4^3 + 27 a6^2), 4 c^3 a4^3 = -27 a6^2,
    so a4 vanishes there iff a6 does.  Hence for vd >= 1 a piece with
    v(a4) = 0 has v(a6) = 0 and needs no a6 split; and vd = 1 means (0, 0),
    since a common root of a4 and a6 has v(a4^3) >= 3 and v(a6^2) >= 2, so
    v(Delta) >= 2.
    """
    if vd == 1:
        return [(modulus, 0, 0)]
    return [(h6, v4, v6) for h4, v4 in _split_valuations(w.a4, modulus)
            for h6, v6 in ([(h4, 0)] if v4 == 0 and vd >= 1
                           else _split_valuations(w.a6, h4))]


def _classify_roots(w: WeierstrassModel, modulus: Poly, vd: int) -> list[FiberReport]:
    """Reports for the roots of a squarefree modulus on which v(Delta) = vd.

    Each piece of constant v(a4) and v(a6) gives one report per rational
    root and one report bundling its conjugate irrational roots, counted
    by degree.
    """
    reports = []
    for h, v4, v6 in _uniform_pieces(w, modulus, vd):
        fiber = _fiber_type(v4, v6, vd)
        roots, rest = squarefree_rational_roots(h)
        reports.extend(FiberReport(str(r), fiber) for r in roots)
        if rest.degree > 0:
            reports.append(FiberReport(format_poly(Poly(rest.ints, Fraction(1))),
                                       fiber, rest.degree))
    return reports


class FibrationAnalysis(Record):
    __slots__ = ("label", "fibers", "euler_total", "ns_rank", "mw_rank", "notes")

    def __init__(self, label: str, fibers: tuple[FiberReport, ...], euler_total: int,
                 ns_rank: int, mw_rank: int, notes: tuple[str, ...] = ()) -> None:
        set_field(self, "label", label)
        set_field(self, "fibers", fibers)
        set_field(self, "euler_total", euler_total)
        set_field(self, "ns_rank", ns_rank)
        set_field(self, "mw_rank", mw_rank)
        set_field(self, "notes", notes)

    @property
    def euler_ok(self) -> bool:
        return self.euler_total == 24

    @property
    def consistent(self) -> bool:
        return self.euler_ok and self.mw_rank >= 0


def _report_key(r: FiberReport):
    if r.place == "inf":
        return (2, "")
    try:
        return (0, Fraction(r.place))
    except ValueError:
        return (1, r.place)


def analyze_k3(w: WeierstrassModel, ns_rank: int) -> FibrationAnalysis:
    """Classify every singular place and run the Shioda-Tate accounting.

    The place t = 0 is read off the low-order zeros of a4, a6 and
    Delta = t^k * rest, and infinity off their degrees; the other finite
    places are the roots of the Yun pieces of rest.  Conjugate irrational
    places are bundled per irreducible-factor handle with a count.  A
    model that is not minimal at a finite place raises
    NonMinimalModelError; at infinity it only leaves a note.  The
    reported Mordell-Weil rank is the one implied by the target
    Neron-Severi rank; a negative value or an Euler sum other than 24
    marks the model as inconsistent with that target.
    """
    reports: list[FiberReport] = []
    notes: list[str] = []
    delta = w.discriminant
    v4, v6, k = _valuations_at_zero(w)
    if k > 0:
        reports.append(FiberReport("0", _fiber_type(v4, v6, k)))
    _, pieces = squarefree_parts(Poly(delta.ints[k:], delta.content))
    for piece, mult in pieces:
        reports.extend(_classify_roots(w, piece, mult))
    if 24 - delta.degree > 0:
        try:
            reports.append(FiberReport("inf", _fiber_type(*_infinite_valuations(w))))
        except NonMinimalModelError as err:
            notes.append(f"place at infinity skipped: {err}")
    reports.sort(key=_report_key)
    return FibrationAnalysis(w.label, tuple(reports), _euler_total(reports), ns_rank,
                             ns_rank - _shioda_tate_rank(reports, 0), tuple(notes))


class FiberGraph(Record):
    """Dual graph of a fiber: component multiplicities and weighted edges."""

    __slots__ = ("multiplicities", "edges")

    def __init__(self, multiplicities: tuple[int, ...],
                 edges: tuple[tuple[int, int, int], ...]) -> None:
        set_field(self, "multiplicities", multiplicities)
        set_field(self, "edges", edges)


def check_affine(graph: FiberGraph) -> None:
    """Each vertex of a multi-component fiber must satisfy
    2*mult(v) = sum of edge-weighted neighbor multiplicities."""
    m = graph.multiplicities
    if len(m) == 1:
        return
    for v in range(len(m)):
        around = sum(w * m[j] for i, j, w in graph.edges if i == v)
        around += sum(w * m[i] for i, j, w in graph.edges if j == v)
        if 2 * m[v] != around:
            raise ValueError(f"component {v} violates the multiplicity balance")


def fiber_graph(tag: str) -> FiberGraph:
    family = _kodaira_family(tag)
    if family is not None:
        n, starred = family
        if starred:
            edges = [(0, 2, 1), (1, 2, 1)] + [(i, i + 1, 1) for i in range(2, n + 2)]
            edges += [(n + 2, n + 3, 1), (n + 2, n + 4, 1)]
            return FiberGraph((1, 1) + (2,) * (n + 1) + (1, 1), tuple(edges))
        if n == 0:
            raise ValueError(f"no dual graph for {tag!r}")
        if n >= 4:
            return FiberGraph((1,) * n, tuple([(i, (i + 1) % n, 1) for i in range(n)]))
        tag = ("II", "III", "IV")[n - 1]
    _, _, multiplicities, edges = _KODAIRA_TABLE[tag]
    return FiberGraph(multiplicities, edges)


_RESERVED = ("S", "F")


class FiberSpec(Record):
    __slots__ = ("place", "kodaira", "identity", "components", "count")

    def __init__(self, place: str, kodaira: str, identity: str = "",
                 components: tuple[str, ...] = (), count: int = 1) -> None:
        set_field(self, "place", place)
        set_field(self, "kodaira", kodaira)
        set_field(self, "identity", identity)
        set_field(self, "components", components)
        set_field(self, "count", count)
        _, m, _ = kodaira_data(kodaira)
        if count < 1:
            raise ValueError("count must be positive")
        if count > 1 and m > 1:
            raise ValueError("only irreducible fibers may be bundled by count")
        if not components:
            if identity:
                raise ValueError("an identity label needs component labels")
            return
        if len(components) != m:
            raise ValueError(f"{kodaira} needs exactly {m} component labels")
        if len(set(components)) != m:
            raise ValueError("component labels must be distinct")
        if any(c in _RESERVED for c in components):
            raise ValueError("labels S and F are reserved")
        if identity not in components:
            raise ValueError("the identity component must be among the labels")
        graph = fiber_graph(kodaira)
        if graph.multiplicities[components.index(identity)] != 1:
            raise ValueError("the identity component must have multiplicity 1")


def check_fibration_rules(fibers: Sequence[FiberSpec], mw_rank: int) -> None:
    """The rules of a fibration that hold whatever its Euler sum: a
    non-negative Mordell-Weil rank, distinct places, distinct component
    labels and a Shioda-Tate rank of at most 20."""
    if mw_rank < 0:
        raise ValueError("Mordell-Weil rank cannot be negative")
    places = [f.place for f in fibers]
    if len(set(places)) != len(places):
        raise ValueError("fiber places must be distinct")
    labels = [c for f in fibers for c in f.components]
    if len(set(labels)) != len(labels):
        raise ValueError("component labels must be distinct across fibers")
    if _shioda_tate_rank(fibers, mw_rank) > 20:
        raise ValueError("Shioda-Tate rank exceeds 20")


class FibrationModel(Record):
    __slots__ = ("fibers", "mw_rank", "__dict__")

    def __init__(self, fibers: tuple[FiberSpec, ...], mw_rank: int) -> None:
        set_field(self, "fibers", fibers)
        set_field(self, "mw_rank", mw_rank)
        check_fibration_rules(fibers, mw_rank)
        total = _euler_total(fibers)
        if total != 24:
            raise ValueError(f"Euler numbers sum to {total}; an elliptic K3 needs 24")

    @cached_property
    def ns_rank(self) -> int:
        return _shioda_tate_rank(self.fibers, self.mw_rank)


class NeronSeveri(Record):
    """Intersection lattice of a fibration with section and finite
    Mordell-Weil group, with named classes in basis coordinates.

    The basis is S, F, then the non-identity components fiber by fiber;
    vectors additionally expresses each identity component through the
    fiber class F minus its weighted siblings.
    """

    __slots__ = ("lattice", "basis", "vectors")
    __eq__ = object.__eq__      # compared by identity
    __hash__ = object.__hash__

    def __init__(self, lattice: Lattice, basis: tuple[str, ...],
                 vectors: Mapping[str, tuple[int, ...]]) -> None:
        set_field(self, "lattice", lattice)
        set_field(self, "basis", basis)
        set_field(self, "vectors", vectors)


def build_neron_severi(model: FibrationModel) -> NeronSeveri:
    if model.mw_rank != 0:
        raise ValueError("a positive Mordell-Weil rank adds classes this "
                         "builder cannot see")
    basis: list[str] = ["S", "F"]
    placed: list[tuple[FiberSpec, FiberGraph]] = []
    for spec in model.fibers:
        graph = fiber_graph(spec.kodaira)
        check_affine(graph)
        if len(graph.multiplicities) > 1:
            if not spec.components:
                raise ValueError(
                    f"the {spec.kodaira} fiber at {spec.place} needs labeled "
                    "components to enter the intersection lattice")
            placed.append((spec, graph))
            basis.extend(c for c in spec.components if c != spec.identity)

    n = len(basis)
    pos = {label: k for k, label in enumerate(basis)}
    rows = [[0] * n for _ in range(n)]
    rows[0][0] = -2
    rows[0][1] = rows[1][0] = 1
    for spec, graph in placed:
        for c in spec.components:
            if c != spec.identity:
                rows[pos[c]][pos[c]] = -2
        for i, j, weight in graph.edges:
            a, b = spec.components[i], spec.components[j]
            if a == spec.identity or b == spec.identity:
                continue
            rows[pos[a]][pos[b]] = rows[pos[b]][pos[a]] = weight

    vectors: dict[str, tuple[int, ...]] = {}
    for k, label in enumerate(basis):
        vectors[label] = tuple([1 if i == k else 0 for i in range(n)])
    for spec, graph in placed:
        identity = [0] * n
        identity[1] = 1
        for i, c in enumerate(spec.components):
            if c != spec.identity:
                identity[pos[c]] = -graph.multiplicities[i]
        vectors[spec.identity] = tuple(identity)

    lattice = Lattice(IntMatrix.from_rows(rows), "NS")
    return NeronSeveri(lattice, tuple(basis), vectors)


def extract_chain(ns: NeronSeveri, labels: Sequence[str]) -> Sublattice:
    """Sublattice spanned by named classes, required to pair as a linear
    chain of (-2)-curves: -2 on the diagonal, 1 between consecutive
    labels, 0 otherwise."""
    missing = [c for c in labels if c not in ns.vectors]
    if missing:
        raise ValueError(f"unknown classes: {', '.join(missing)}")
    cols = [ns.vectors[c] for c in labels]
    coords = IntMatrix.from_rows([[col[i] for col in cols]
                                  for i in range(ns.lattice.rank)])
    sub = Sublattice(ns.lattice, coords)
    gram = sub.induced_gram()
    for i in range(len(cols)):
        for j in range(len(cols)):
            want = -2 if i == j else 1 if abs(i - j) == 1 else 0
            if gram[i, j] != want:
                raise ValueError(
                    f"{labels[i]} . {labels[j]} = {gram[i, j]}; "
                    "the selection is not a linear chain of (-2)-curves")
    return sub


def _as_rational(value, field: str, message: str = "rationals must be integers or "
                                                   "strings like '-27/4'") -> Rational:
    """A non-bool int or an ASCII string n or n/d; Fraction alone would also
    read decimals and exponents, and expand "1e10000000" digit by digit."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if not isinstance(value, str) or not re.fullmatch(r"[+-]?[0-9]+(/[0-9]+)?", value):
        raise ValueError(message)
    numerator, _, denominator = value.partition("/")
    n = _read_decimal(numerator, field)
    d = _read_decimal(denominator, f"the denominator of {field}") if denominator else 1
    if d == 0:
        raise ValueError(f"zero denominator in {value!r}")
    return Fraction(n, d)


def _poly_from_json(values, name: str) -> Poly:
    if not isinstance(values, list):
        raise ValueError("polynomial coefficients must form a list, "
                         "constant term first")
    return Poly.of([_as_rational(v, f"an {name} coefficient") for v in values])


def weierstrass_from_data(data) -> WeierstrassModel:
    """The model of decoded Weierstrass JSON."""
    if not isinstance(data, dict) or "a6" not in data:
        raise ValueError("Weierstrass JSON needs a6 and one of a4, a4_cubed")
    label = data.get("label", "")
    if not isinstance(label, str):
        raise ValueError("label must be a string")
    a6 = _poly_from_json(data["a6"], "a6")
    if ("a4" in data) == ("a4_cubed" in data):
        raise ValueError("give exactly one of a4 and a4_cubed")
    if "a4" in data:
        return WeierstrassModel(_poly_from_json(data["a4"], "a4"), a6, label)
    a4_cubed = _as_rational(data["a4_cubed"], "a4_cubed", "a4_cubed must be one "
                            "rational (an integer or a string like '-27/4')")
    return WeierstrassModel.from_a4_cubed(a4_cubed, a6, label)


def _json_int(value, name: str) -> int:
    """A JSON integer: a non-bool int, or a string of decimal digits."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, str) and re.fullmatch(r"[+-]?[0-9]+", value):
        return _read_decimal(value, name)
    raise ValueError(f"{name} must be an integer, not {value!r}")


def _json_str(value, name: str) -> str:
    if not isinstance(value, str):
        raise ValueError(f"{name} must be a string")
    return value


def fiber_specs_from_json(data) -> tuple[tuple[FiberSpec, ...], int]:
    """Fiber specs and Mordell-Weil rank of decoded fibration JSON, any Euler sum."""
    if not isinstance(data, dict) or "fibers" not in data or "mw_rank" not in data:
        raise ValueError("fibration JSON needs fibers and mw_rank")
    if not isinstance(data["fibers"], list):
        raise ValueError("fibers must form a list")
    specs = []
    for entry in data["fibers"]:
        if not isinstance(entry, dict) or "place" not in entry or "type" not in entry:
            raise ValueError("each fiber needs place and type")
        components = entry.get("components", [])
        if not isinstance(components, list):
            raise ValueError("components must form a list")
        specs.append(FiberSpec(
            place=_json_str(entry["place"], "place"),
            kodaira=_json_str(entry["type"], "type"),
            identity=_json_str(entry.get("identity", ""), "identity"),
            components=tuple([_json_str(c, "each component") for c in components]),
            count=_json_int(entry.get("count", 1), "count"),
        ))
    return tuple(specs), _json_int(data["mw_rank"], "mw_rank")
