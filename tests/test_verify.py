"""Tests for the verification report machinery."""

import json
from pathlib import Path

import pytest

from k3lattices import __version__, verify
from k3lattices.cli import main
from k3lattices.fibration import NeronSeveri
from k3lattices.fixtures import (
    CHAINS,
    INVARIANT_LATTICES,
    chain_glue,
    chain_sublattice,
    overlattice_pair,
    reference_neron_severi,
    weierstrass_model,
)
from k3lattices.intmat import IntMatrix
from k3lattices.lattices import Lattice, make_named
from k3lattices.sublattices import GlueSolution, Sublattice
from k3lattices.verify import run_verification

from oracles import half_integral_subsets


def test_default_run_passes():
    report = run_verification()
    assert report.passed
    assert len(report.checks) == 12
    ids = [c.check_id for c in report.checks]
    assert len(set(ids)) == 12
    assert ids == sorted(ids)
    assert report.version == __version__


def test_perturb_fails_exactly_the_det_check():
    report = run_verification(perturb=True)
    assert not report.passed
    failing = [c.check_id for c in report.checks if not c.passed]
    assert failing == ["01-a15"]


def test_a_broken_glue_fails_exactly_the_glue_check(monkeypatch, capsys):
    # the real solutions with a1 shifted by 1, so the residues break and h+ is not integral
    def shifted(name):
        sol = chain_glue(name)
        return GlueSolution(sol.n, sol.H, sol.h, (sol.a[0] + 1,) + sol.a[1:])

    monkeypatch.setattr(verify, "chain_glue", shifted)
    failing = [c.check_id for c in run_verification().checks if not c.passed]
    assert failing == ["08-glue"]
    assert main(["verify-all"]) == 1
    captured = capsys.readouterr()
    assert "FAIL  08-glue" in captured.out
    assert captured.err == ""


@pytest.mark.parametrize("found", [[], [("G1", "T6")], [("G6", "T6"), ("G7", "T6")]],
                         ids=["no-pair", "another-pair", "two-pairs"])
def test_a_wrong_pair_search_on_i7e8_fails_exactly_the_walk_check(monkeypatch, capsys, found):
    search = verify.fixed_pair_search

    def wrong(edges):
        pairs = search(edges)
        return found if pairs == [("G7", "T6")] else pairs

    monkeypatch.setattr(verify, "fixed_pair_search", wrong)
    failing = [c.check_id for c in run_verification().checks if not c.passed]
    assert failing == ["12-walk"]
    assert main(["verify-all"]) == 1
    captured = capsys.readouterr()
    assert "FAIL  12-walk" in captured.out
    assert captured.err == ""


def replace_first_calls(monkeypatch, attr, replacement, times=1, arg=None):
    # verify.<attr> answers its first `times` calls (those with argument arg,
    # when given) by replacement(argument), and every later call as before
    real, calls = getattr(verify, attr), []

    def patched(*args):
        if (arg is None or args == (arg,)) and len(calls) < times:
            calls.append(args)
            return replacement(*args)
        return real(*args)

    monkeypatch.setattr(verify, attr, patched)


def doubled_chain(name):
    # the chain with columns 0 and 5 doubled: two even invariant factors
    chain = chain_sublattice(name)
    rows = [[x * (2 if j in (0, 5) else 1) for j, x in enumerate(row)]
            for row in chain.coords.entries]
    return Sublattice(chain.ambient, IntMatrix.from_rows(rows))


def f_squared_two():
    ns = reference_neron_severi()
    rows = ns.lattice.gram.to_lists()
    f = ns.basis.index("F")
    rows[f][f] = 2
    return NeronSeveri(Lattice(IntMatrix.from_rows(rows)), ns.basis, ns.vectors)


def swap_row(monkeypatch, row):
    rows = list(INVARIANT_LATTICES)
    rows[row] = "U + E7 + A7"   # det 16, so not 7-elementary: the row is rejected
    monkeypatch.setattr(verify, "INVARIANT_LATTICES", tuple(rows))


NEGATIVE_CONTROLS = {
    "02-odd-s-lattice": (lambda mp: replace_first_calls(
        mp, "make_named", lambda _: make_named(" + ".join(["Z(7)"] + ["Z(-1)"] * 15)),
        arg="U + E8 + A6"), ["02-s-lattice"]),
    "03-odd-k7": (lambda mp: replace_first_calls(
        mp, "make_named", lambda _: make_named("Z(-7) + Z(-1)"), arg="K7"), ["03-k7"]),
    "04-i7e8-is-e7e6": (lambda mp: replace_first_calls(
        mp, "weierstrass_model", lambda _: weierstrass_model("e7e6"), arg="i7e8"),
        ["04-fibers-i7e8"]),
    "05-e7e6-is-i7e8": (lambda mp: replace_first_calls(
        mp, "weierstrass_model", lambda _: weierstrass_model("i7e8"), arg="e7e6"),
        ["05-fibers-e7e6"]),
    # check 08 reads the same lattice, so F^2 = 2 fails it too
    "06-f-squared-two": (lambda mp: mp.setattr(verify, "reference_neron_severi", f_squared_two),
                         ["06-neron-severi", "08-glue"]),
    "07-doubled-columns": (lambda mp: replace_first_calls(
        mp, "chain_sublattice", doubled_chain, times=2), ["07-chains"]),
    "09-one-overlattice": (lambda mp: mp.setattr(
        verify, "overlattice_pair", lambda: overlattice_pair()[:1]), ["09-overlattices"]),
    "10-rejected-row": (lambda mp: swap_row(mp, 0), ["10-fixed-locus"]),
    # check 12 compares its walk with the U + E8 + A6 row
    "10-rejected-s-row": (lambda mp: swap_row(mp, 4), ["10-fixed-locus", "12-walk"]),
}


@pytest.mark.parametrize("patch, failing", NEGATIVE_CONTROLS.values(),
                         ids=NEGATIVE_CONTROLS.keys())
def test_one_changed_input_fails_exactly_its_check(monkeypatch, capsys, patch, failing):
    patch(monkeypatch)
    assert main(["verify-all"]) == 1
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert [line.split()[1] for line in lines if line.startswith("FAIL")] == failing
    assert captured.err == ""
    if "07-chains" in failing:
        # the printed count of integral half-sums is the subset enumeration's
        for name in CHAINS:
            chain = doubled_chain(name)
            count = len(half_integral_subsets([chain.generator(j) for j in range(15)]))
            assert count == 3
            assert f"      {name} = A15=False primitive=False half_sums={count}" in lines


def test_values_are_sorted_string_pairs():
    for check in run_verification().checks:
        keys = [k for k, _ in check.values]
        assert keys == sorted(keys)
        assert all(isinstance(k, str) and isinstance(v, str)
                   for k, v in check.values)


def test_to_dict_statuses_and_render():
    report = run_verification()
    data = report.to_dict()
    assert data["passed"] is True
    assert all(c["status"] == "pass" for c in data["checks"])
    text = report.render_text()
    assert "12 checks: all checks passed" in text
    assert text.count("PASS") == 12


def test_values_match_the_stored_reference():
    # the stored reference pins each check's id, status and values, string for string
    reference = Path(__file__).resolve().parents[1] / "perfbench" / "verify_reference.json"
    checks = run_verification().to_dict()["checks"]
    got = [[c["id"], c["status"], c["values"]] for c in checks]
    assert got == json.loads(reference.read_text())
