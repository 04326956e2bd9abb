"""Tests for the verification report machinery."""

import json
from pathlib import Path

import pytest

from k3lattices import __version__, verify
from k3lattices.cli import main
from k3lattices.fixtures import chain_glue
from k3lattices.sublattices import GlueSolution
from k3lattices.verify import run_verification


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
