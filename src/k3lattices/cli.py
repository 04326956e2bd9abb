"""Command line front end.

Three subcommands: lattice-info prints the invariants of a named or
JSON-described lattice, fibration prints the per-place report of a
Weierstrass or fibration description, and verify-all runs the whole
built-in verification pipeline.  Exit codes: 0 success, 1 verification
failure, 2 bad input or usage, 141 (128 + SIGPIPE) when the reader closes
stdout early.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from typing import Sequence

from .fibration import (
    FibrationAnalysis,
    FibrationModel,
    _euler_total,
    analyze_k3,
    check_fibration_rules,
    fiber_specs_from_json,
    kodaira_data,
    weierstrass_from_data,
)
from .fixtures import NS_RANK, WEIERSTRASS_NAMES, weierstrass_model
from .lattices import (
    _too_many_digits,
    decode_json,
    discriminant_group,
    lattice_from_json,
    make_named,
    signature,
)
from .verify import run_verification


def _read(path: str) -> str:
    with open(path) as f:
        return f.read()


def _load_lattice(source: str):
    if os.path.isfile(source):
        return lattice_from_json(_read(source))
    return make_named(source)


def _text(field: str, value) -> str:
    """str(value), with the interpreter's refusal to convert an int of too
    many digits reported as bad input that names the field."""
    try:
        return str(value)
    except ValueError:
        raise _too_many_digits(field) from None


def cmd_lattice_info(args: argparse.Namespace) -> int:
    # the whole report is formatted before any of it is printed
    lattice = _load_lattice(args.lattice)
    sig = signature(lattice)
    group = discriminant_group(lattice)
    det = _text("det", lattice.det)
    factors = [_text("an invariant factor", d) for d in group.invariant_factors]
    qvalues = [_text("a q value", q) for q in group.qvalues]
    if args.json:
        print(json.dumps({
            "label": lattice.label,
            "rank": str(lattice.rank),
            "det": det,
            "signature": [str(x) for x in sig],
            "even": lattice.is_even,
            "discriminant_group": {"invariant_factors": factors, "qvalues": qvalues},
        }, indent=2, sort_keys=True))
        return 0
    lines = [
        lattice.label or "lattice",
        f"  rank        {lattice.rank}",
        f"  det         {det}",
        f"  signature   {sig}",
        f"  even        {'yes' if lattice.is_even else 'no'}",
        f"  disc group  {' x '.join(f'Z/{d}' for d in factors) or 'trivial'}",
    ]
    lines += [f"  q(g{i})       {q}" for i, q in enumerate(qvalues, start=1)]
    print("\n".join(lines))
    return 0


def _fiber_row(place: str, kodaira: str, count: int) -> tuple:
    euler, components, root = kodaira_data(kodaira)
    return place, kodaira, count, euler, components, root or "-"


def _print_fiber_table(rows: list[tuple]) -> None:
    print(f"  {'place':<14}{'type':<6}{'count':<7}{'euler':<7}{'comps':<7}root")
    for place, kodaira, count, euler, components, root in rows:
        print(f"  {place:<13} {kodaira:<6}{count:<7}{euler:<7}{components:<7}{root}")


def _fibration_data(rows: list[tuple], euler_total: int, ns_rank: int, mw_rank: int,
                    consistent: bool) -> dict:
    return {
        "fibers": [
            {
                "place": place,
                "type": kodaira,
                "count": str(count),
                "euler": str(euler),
                "components": str(components),
                "root": root,
            }
            for place, kodaira, count, euler, components, root in rows
        ],
        "euler_total": str(euler_total),
        "ns_rank": str(ns_rank),
        "mw_rank": str(mw_rank),
        "consistent": consistent,
    }


def _print_fibration(title: str, rows: list[tuple], euler_total: int, ns_rank: int,
                     mw_rank: int) -> None:
    print(title)
    _print_fiber_table(rows)
    print(f"  Euler total {euler_total}")
    print(f"  NS rank     {ns_rank}")
    print(f"  MW rank     {mw_rank}")


def _report_analysis(analysis: FibrationAnalysis, as_json: bool) -> int:
    rows = [_fiber_row(r.place, r.kodaira, r.count) for r in analysis.fibers]
    if as_json:
        data = _fibration_data(rows, analysis.euler_total, analysis.ns_rank,
                               analysis.mw_rank, analysis.consistent)
        data["label"] = analysis.label
        data["notes"] = list(analysis.notes)
        print(json.dumps(data, indent=2, sort_keys=True))
    else:
        _print_fibration(f"fibration {analysis.label}" if analysis.label else "fibration",
                         rows, analysis.euler_total, analysis.ns_rank, analysis.mw_rank)
        for note in analysis.notes:
            print(f"  note: {note}")
        if not analysis.euler_ok:
            print(f"  FLAG: Euler numbers sum to {analysis.euler_total}, not 24")
    return 0 if analysis.consistent else 1


def _report_fibration_json(data: dict, as_json: bool) -> int:
    specs, mw_rank = fiber_specs_from_json(data)
    rows = [_fiber_row(f.place, f.kodaira, f.count) for f in specs]
    euler_total = _euler_total(specs)
    if euler_total != 24:
        check_fibration_rules(specs, mw_rank)
        if not as_json:
            _print_fiber_table(rows)
            print(f"  FLAG: Euler numbers sum to {euler_total}, not 24")
        else:
            print(json.dumps({"euler_total": str(euler_total),
                              "consistent": False}, sort_keys=True))
        return 1
    model = FibrationModel(specs, mw_rank)
    if as_json:
        out = _fibration_data(rows, euler_total, model.ns_rank, model.mw_rank, True)
        print(json.dumps(out, indent=2, sort_keys=True))
    else:
        _print_fibration("fibration", rows, euler_total, model.ns_rank, model.mw_rank)
    return 0


def cmd_fibration(args: argparse.Namespace) -> int:
    source = args.model
    if source in WEIERSTRASS_NAMES:
        return _report_analysis(analyze_k3(weierstrass_model(source), NS_RANK), args.json)
    if not os.path.isfile(source):
        known = ", ".join(WEIERSTRASS_NAMES)
        raise ValueError(
            f"unknown model {source!r}; give a built-in name ({known}) "
            "or a JSON file")
    data = decode_json(_read(source))
    if isinstance(data, dict) and "fibers" in data:
        return _report_fibration_json(data, args.json)
    return _report_analysis(analyze_k3(weierstrass_from_data(data), NS_RANK), args.json)


def cmd_verify_all(args: argparse.Namespace) -> int:
    report = run_verification(perturb=args.perturb)
    if args.json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        print(report.render_text())
    return 0 if report.passed else 1


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="k3lattices",
        description="Exact lattice and elliptic-fibration verification tools.")
    sub = parser.add_subparsers(dest="command", required=True)

    info = sub.add_parser(
        "lattice-info",
        help="invariants of a named lattice (A15, K7, U(7) + E8, ...) or "
             "a lattice JSON file")
    info.add_argument("lattice")
    info.add_argument("--json", action="store_true", help="machine-readable output")
    info.set_defaults(func=cmd_lattice_info)

    fib = sub.add_parser(
        "fibration",
        help="per-place fiber report for a built-in model or a JSON file")
    fib.add_argument("model")
    fib.add_argument("--json", action="store_true", help="machine-readable output")
    fib.set_defaults(func=cmd_fibration)

    ver = sub.add_parser("verify-all", help="run every built-in check")
    ver.add_argument("--json", action="store_true", help="machine-readable output")
    ver.add_argument("--perturb", action="store_true",
                     help="negative control: flip one Gram entry first")
    ver.set_defaults(func=cmd_verify_all)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader is gone; point fd 1 at devnull so that the flush at
        # interpreter exit stays quiet, and exit as a shell reports SIGPIPE
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    except (ValueError, OSError, KeyError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
