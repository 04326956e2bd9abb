"""End-to-end tests for the command line interface, run in-process but
for a run whose stdout is closed early and the wide-entry rank-26 Grams,
which run in subprocesses."""

import io
import json
import math
import os
import random
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from k3lattices.cli import _print_fiber_table, main
from k3lattices.fibration import weierstrass_from_data

from oracles import coefficients


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- lattice-info -----------------------------------------------------------

def test_lattice_info_k7(capsys):
    code, out, _ = run(capsys, "lattice-info", "K7")
    assert code == 0
    assert "K7" in out
    assert "rank        2" in out
    assert "det         7" in out
    assert "signature   (0, 2, 0)" in out
    assert "even        yes" in out
    assert "Z/7" in out


def test_lattice_info_a15_json(capsys):
    code, out, _ = run(capsys, "lattice-info", "A15", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["det"] == "-16"
    assert data["rank"] == "15"
    assert data["discriminant_group"]["invariant_factors"] == ["16"]
    assert data["even"] is True
    # exact values ride as strings, never floats
    assert all(isinstance(q, str) for q in data["discriminant_group"]["qvalues"])


def test_lattice_info_composite_name(capsys):
    code, out, _ = run(capsys, "lattice-info", "U + E8 + A6")
    assert code == 0
    assert "rank        16" in out
    assert "det         -7" in out
    assert "signature   (1, 15, 0)" in out


def test_lattice_info_from_file(capsys, tmp_path):
    path = tmp_path / "k7.json"
    path.write_text(json.dumps({"label": "K7", "gram": [[-4, 1], [1, -2]]}))
    code, out, _ = run(capsys, "lattice-info", str(path))
    assert code == 0
    assert "det         7" in out


def test_lattice_info_unknown_name(capsys):
    code, _, err = run(capsys, "lattice-info", "Q5")
    assert code == 2
    assert "error" in err


def test_lattice_info_empty_file(capsys, tmp_path):
    path = tmp_path / "empty.json"
    path.write_text("")
    code, _, err = run(capsys, "lattice-info", str(path))
    assert code == 2
    assert "error" in err


def test_lattice_info_malformed_file(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"gram": [[0, 1], [1]]}')
    code, _, err = run(capsys, "lattice-info", str(path))
    assert code == 2


def test_lattice_info_rejects_boolean_entries(capsys, tmp_path):
    path = tmp_path / "bools.json"
    path.write_text('{"gram": [[true, 1], [1, false]]}')
    code, out, err = run(capsys, "lattice-info", str(path), "--json")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("name", ["A99999999", "D27", "A13 + A14", "A1 + A99999999"])
def test_lattice_info_rank_above_the_cap_is_bad_input(capsys, name):
    code, out, err = run(capsys, "lattice-info", name)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "above 26" in err


def test_lattice_info_rank_26_is_answered(capsys, tmp_path):
    code, out, _ = run(capsys, "lattice-info", "A13 + A13", "--json")
    assert code == 0 and json.loads(out)["rank"] == "26"
    path = tmp_path / "rank27.json"
    path.write_text(json.dumps({"gram": [[2 if i == j else 0 for j in range(27)]
                                         for i in range(27)]}))
    code, out, err = run(capsys, "lattice-info", str(path))
    assert code == 2
    assert err == "error: 'gram' has more than 26 rows\n"


def random_even_gram(bits, rank=26, seed=1):
    """Off-diagonal entries uniform in +-2^(bits-1), diagonal entries twice
    a uniform value in +-2^(bits-2)."""
    rng = random.Random(seed)
    gram = [[0] * rank for _ in range(rank)]
    for i in range(rank):
        gram[i][i] = 2 * rng.randint(-2 ** (bits - 2), 2 ** (bits - 2))
        for j in range(i + 1, rank):
            gram[i][j] = gram[j][i] = rng.randint(-2 ** (bits - 1), 2 ** (bits - 1))
    return gram


@pytest.mark.parametrize("bits", [16, 64])
def test_lattice_info_answers_wide_rank_26_grams(tmp_path, bits):
    # no time is asserted; the timeout only keeps a hang finite
    path = tmp_path / f"rank26-{bits}bit.json"
    path.write_text(json.dumps({"gram": random_even_gram(bits)}))
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run([sys.executable, "-m", "k3lattices.cli", "lattice-info", str(path),
                           "--json"], capture_output=True, text=True, timeout=300,
                          env=dict(os.environ, PYTHONPATH=str(src)))
    assert (proc.returncode, proc.stderr) == (0, "")
    data = json.loads(proc.stdout)
    factors = [int(d) for d in data["discriminant_group"]["invariant_factors"]]
    assert math.prod(factors) == abs(int(data["det"])) != 0


@pytest.mark.parametrize("label", [None, 5, [1, 2]], ids=["null", "number", "list"])
@pytest.mark.parametrize("command, data", [
    ("lattice-info", {"gram": [[2]]}),
    ("fibration", {"a4": [0, 0, 0, 1], "a6": [0, 0, 0, 0, 0, 0, 0, 0, 1]}),
], ids=["lattice", "weierstrass"])
@pytest.mark.parametrize("as_json", [True, False], ids=["json", "text"])
def test_non_string_label_is_bad_input(capsys, tmp_path, label, command, data, as_json):
    path = tmp_path / "labelled.json"
    path.write_text(json.dumps({"label": label, **data}))
    code, out, err = run(capsys, command, str(path), *(["--json"] if as_json else []))
    assert (code, out, err) == (2, "", "error: label must be a string\n")


# --- fibration ----------------------------------------------------------------

def test_fibration_first_builtin(capsys):
    code, out, _ = run(capsys, "fibration", "i7e8")
    assert code == 0
    assert "I7" in out and "II*" in out and "t^7 - 2" in out
    assert "Euler total 24" in out
    assert "MW rank     0" in out


def test_fibration_second_builtin(capsys):
    code, out, _ = run(capsys, "fibration", "e7e6")
    assert code == 0
    assert "III*" in out and "IV*" in out and "27*t^7 + 4" in out
    assert "MW rank     1" in out


def test_fibration_json_output(capsys):
    code, out, _ = run(capsys, "fibration", "i7e8", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["euler_total"] == "24"
    assert data["mw_rank"] == "0"
    assert [f["type"] for f in data["fibers"]] == ["I7", "I1", "II*"]
    assert [f["count"] for f in data["fibers"]] == ["1", "7", "1"]
    assert data["consistent"] is True


def test_fibration_from_weierstrass_file(capsys, tmp_path):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(
        {"a4": ["0", "0", "0", "1"], "a6": ["0"] * 8 + ["1"]}))
    code, out, _ = run(capsys, "fibration", str(path))
    assert code == 0
    assert "III*" in out and "IV*" in out


def test_fibration_from_fibration_file(capsys, tmp_path):
    path = tmp_path / "fib.json"
    path.write_text(json.dumps({
        "fibers": [{"place": "0", "type": "II*"},
                   {"place": "t^14 - 3", "type": "I1", "count": 14}],
        "mw_rank": 0}))
    code, out, _ = run(capsys, "fibration", str(path))
    assert code == 0
    assert "Euler total 24" in out
    assert "NS rank     10" in out


def test_fibration_euler_deficit_exits_one(capsys, tmp_path):
    path = tmp_path / "fib.json"
    path.write_text(json.dumps({
        "fibers": [{"place": "0", "type": "II*"}], "mw_rank": 0}))
    code, out, _ = run(capsys, "fibration", str(path))
    assert code == 1
    assert "FLAG" in out and "10" in out


@pytest.mark.parametrize("fibers, mw", [
    ([{"place": "0", "type": "II*"}, {"place": "1", "type": "I1", "count": 1.5}], 0),
    ([{"place": "0", "type": "II*"}, {"place": "1", "type": "I1", "count": -3}], 0),
    ([{"place": "0", "type": "II*"}, {"place": "1", "type": "I1", "count": True}], 0),
    ([{"place": "0", "type": "II*"}, {"place": "1", "type": "I1", "count": 14}], None),
    ([{"place": "0", "type": "II*"}, {"place": "1", "type": "I1", "count": 4}], None),
], ids=["fractional-count", "negative-count", "bool-count", "no-mw-rank-euler-24",
        "no-mw-rank-euler-14"])
def test_fibration_bad_count_or_mw_rank_is_bad_input(capsys, tmp_path, fibers, mw):
    # exit 2 whatever the Euler sum
    data = {"fibers": fibers}
    if mw is not None:
        data["mw_rank"] = mw
    path = tmp_path / "fib.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, "fibration", str(path), "--json")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "Traceback" not in err


def test_fibration_euler_deficit_json(capsys, tmp_path):
    path = tmp_path / "fib.json"
    path.write_text(json.dumps({
        "fibers": [{"place": "0", "type": "II*"},
                   {"place": "1", "type": "I1", "count": "3"}], "mw_rank": "0"}))
    code, out, _ = run(capsys, "fibration", str(path), "--json")
    assert code == 1
    assert json.loads(out) == {"consistent": False, "euler_total": "13"}


def test_fibration_k3_bound_rejected(capsys, tmp_path):
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"a4": ["0"], "a6": ["0"] * 13 + ["1"]}))
    code, _, err = run(capsys, "fibration", str(path))
    assert code == 2
    assert "K3 bound" in err


# Fraction reads all of these; "1e10000000" would take tens of seconds
@pytest.mark.parametrize("text", ["1e10000000", "1e3", "1.5", " 3 ", "1_0", ".5",
                                  "\u0661/\u0662", "1/-2", "+", ""])
def test_a6_strings_must_be_ascii_n_or_n_over_d(capsys, tmp_path, text):
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"a4": [1], "a6": [text]}))
    code, out, err = run(capsys, "fibration", str(path))
    assert (code, out, err) == (2, "", "error: rationals must be integers or strings "
                                        "like '-27/4'\n")


def test_fibration_zero_denominator_is_bad_input(capsys, tmp_path):
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"a4": [], "a6": ["1/0"]}))
    code, _, err = run(capsys, "fibration", str(path))
    assert code == 2
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("a4_cubed", [[8], ["-27/4"], {"value": 8}, None, True, 1.5,
                                      "1.5", "1e3", " 3 ", "1_0", ".5", "\u0661/\u0662"],
                         ids=["list", "list-of-string", "object", "null", "bool", "float",
                              "decimal", "exponent", "spaces", "underscore", "bare-point",
                              "arabic-indic"])
def test_a4_cubed_must_be_one_rational(capsys, tmp_path, a4_cubed):
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"a4_cubed": a4_cubed, "a6": [1]}))
    code, out, err = run(capsys, "fibration", str(path))
    assert (code, out, err) == (2, "", "error: a4_cubed must be one rational "
                                        "(an integer or a string like '-27/4')\n")


@pytest.mark.parametrize("fibers, mw", [
    ([{"place": "0", "type": "II*"}, {"place": "0", "type": "II*"}], -1),
    ([{"place": "0", "type": "II*"}, {"place": "0", "type": "I1", "count": 3}], 0),
    ([{"place": "0", "type": "I2", "identity": "a", "components": ["a", "b"]},
      {"place": "1", "type": "I2", "identity": "c", "components": ["c", "b"]}], 0),
    ([{"place": "0", "type": "II*"}, {"place": "1", "type": "II*"},
      {"place": "2", "type": "I2"}], 2),
], ids=["repeated-place-negative-mw", "repeated-place", "repeated-label",
        "shioda-tate-21"])
@pytest.mark.parametrize("as_json", [True, False], ids=["json", "text"])
def test_fibration_rules_hold_at_any_euler_sum(capsys, tmp_path, fibers, mw, as_json):
    # Euler sums 20, 13, 4 and 22: the model rules reject before the deficit report
    path = tmp_path / "fib.json"
    path.write_text(json.dumps({"fibers": fibers, "mw_rank": mw}))
    code, out, err = run(capsys, "fibration", str(path), *(["--json"] if as_json else []))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "Traceback" not in err



@pytest.mark.parametrize("fiber, name", [
    ({"place": None, "type": "II*"}, "place"),
    ({"place": [1], "type": "II*"}, "place"),
    ({"place": "0", "type": 2}, "type"),
    ({"place": "0", "type": "I2", "identity": 1, "components": ["1", "2"]}, "identity"),
    ({"place": "0", "type": "I2", "identity": "1", "components": ["1", 2]},
     "each component"),
], ids=["null-place", "list-place", "number-type", "number-identity",
        "number-component"])
@pytest.mark.parametrize("as_json", [True, False], ids=["json", "text"])
def test_non_string_fiber_field_is_bad_input(capsys, tmp_path, fiber, name, as_json):
    path = tmp_path / "fib.json"
    path.write_text(json.dumps({"fibers": [fiber], "mw_rank": 0}))
    code, out, err = run(capsys, "fibration", str(path), *(["--json"] if as_json else []))
    assert (code, out, err) == (2, "", f"error: {name} must be a string\n")


def test_fiber_components_must_form_a_list(capsys, tmp_path):
    path = tmp_path / "fib.json"
    path.write_text(json.dumps({"fibers": [{"place": "0", "type": "I2", "identity": "a",
                                            "components": "ab"}], "mw_rank": 0}))
    code, out, err = run(capsys, "fibration", str(path))
    assert (code, out, err) == (2, "", "error: components must form a list\n")


# a non-ASCII digit, a leading zero and a trailing newline
@pytest.mark.parametrize("tag", ["I١٢", "I06", "I7\n"],
                         ids=["arabic-indic", "leading-zero", "newline"])
@pytest.mark.parametrize("as_json", [True, False], ids=["json", "text"])
def test_fiber_types_must_be_canonical_ascii_tags(capsys, tmp_path, tag, as_json):
    path = tmp_path / "fib.json"
    path.write_text(json.dumps({"fibers": [{"place": "0", "type": "II*"},
                                           {"place": "inf", "type": tag},
                                           {"place": "1", "type": "I1", "count": 6}],
                                "mw_rank": 0}))
    code, out, err = run(capsys, "fibration", str(path), *(["--json"] if as_json else []))
    assert (code, out, err) == (2, "", f"error: unknown Kodaira type {tag!r}\n")


@pytest.mark.parametrize("argv", [["lattice-info"], ["fibration"], ["fibration", "--json"]])
def test_deeply_nested_json_is_bad_input(capsys, tmp_path, argv):
    path = tmp_path / "deep.json"
    path.write_text("[" * 200000)
    code, out, err = run(capsys, argv[0], str(path), *argv[1:])
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def _ten_i1_report(place):
    return {
        "consistent": False,
        "euler_total": "10",
        "fibers": [{"components": "1", "count": "10", "euler": "1",
                    "place": place, "root": "-", "type": "I1"}],
        "label": "",
        "mw_rank": "14",
        "notes": ["place at infinity skipped: model is not minimal here; "
                  "substitute x -> u^2 x, y -> u^3 y to divide (a4, a6) by "
                  "(u^4, u^6) and retry"],
        "ns_rank": "16",
    }


@pytest.mark.parametrize("a4, place", [
    ("100000", "27*t^10 + 4000000000000000"),
    ("1000003", "27*t^10 + 4000036000108000108"),
], ids=["a4-6-digits", "a4-7-digits"])
def test_fibration_with_large_discriminant_constant(capsys, tmp_path, a4, place):
    # the discriminant's constant term 64*a4^3 has 17 and 20 digits; the
    # rational-root search must not depend on factoring it
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"a4": [a4], "a6": [0, 0, 0, 0, 0, 1]}))
    code, out, _ = run(capsys, "fibration", str(path), "--json")
    assert code == 1
    assert json.loads(out) == _ten_i1_report(place)


_NOT_MINIMAL_AT_INF = ("place at infinity skipped: model is not minimal here; "
                       "substitute x -> u^2 x, y -> u^3 y to divide (a4, a6) by "
                       "(u^4, u^6) and retry")
_TABLE_HEAD = "fibration\n  place         type  count  euler  comps  root\n"

# Weierstrass models with rational content and negative leading
# coefficients, with their exact reports and exit codes
RATIONAL_CONTENT_MODELS = [
    pytest.param(
        {"a4": ["1/2", "0", "3/7"], "a6": ["-5/3", 0, 0, 0, 0, 0, 0, "2/9"]}, 0,
        {"consistent": True, "euler_total": "24", "fibers": [
            {"components": "1", "count": "14", "euler": "1",
             "place": "2744*t^14 - 41160*t^7 + 648*t^6 + 2268*t^4 + 2646*t^2 + 155379",
             "root": "-", "type": "I1"},
            {"components": "9", "count": "1", "euler": "10", "place": "inf",
             "root": "E8", "type": "II*"}],
         "label": "", "mw_rank": "6", "notes": [], "ns_rank": "16"},
        _TABLE_HEAD
        + "  2744*t^14 - 41160*t^7 + 648*t^6 + 2268*t^4 + 2646*t^2 + 155379"
        " I1    14     1      1      -\n"
        "  inf           II*   1      10     9      E8\n"
        "  Euler total 24\n  NS rank     16\n  MW rank     6\n",
        id="fractional-a4-a6"),
    pytest.param(
        {"a4_cubed": "-27/4", "a6": ["-1", 0, 0, 0, 0, 0, 0, "-3/7"]}, 0,
        {"consistent": True, "euler_total": "24", "fibers": [
            {"components": "7", "count": "1", "euler": "7", "place": "0",
             "root": "A6", "type": "I7"},
            {"components": "1", "count": "7", "euler": "1", "place": "3*t^7 + 14",
             "root": "-", "type": "I1"},
            {"components": "9", "count": "1", "euler": "10", "place": "inf",
             "root": "E8", "type": "II*"}],
         "label": "", "mw_rank": "0", "notes": [], "ns_rank": "16"},
        _TABLE_HEAD
        + "  0             I7    1      7      7      A6\n"
        "  3*t^7 + 14    I1    7      1      1      -\n"
        "  inf           II*   1      10     9      E8\n"
        "  Euler total 24\n  NS rank     16\n  MW rank     0\n",
        id="a4-cubed-negative-a6"),
    pytest.param(
        {"a4": [0, 1], "a6": [0, 0, 1]}, 1,
        {"consistent": False, "euler_total": "4", "fibers": [
            {"components": "1", "count": "1", "euler": "1", "place": "-4/27",
             "root": "-", "type": "I1"},
            {"components": "2", "count": "1", "euler": "3", "place": "0",
             "root": "A1", "type": "III"}],
         "label": "", "mw_rank": "13", "notes": [_NOT_MINIMAL_AT_INF], "ns_rank": "16"},
        _TABLE_HEAD
        + "  -4/27         I1    1      1      1      -\n"
        "  0             III   1      3      2      A1\n"
        "  Euler total 4\n  NS rank     16\n  MW rank     13\n"
        f"  note: {_NOT_MINIMAL_AT_INF}\n"
        "  FLAG: Euler numbers sum to 4, not 24\n",
        id="rational-root-minus-4-27"),
]


@pytest.mark.parametrize("model, code, report, text", RATIONAL_CONTENT_MODELS)
def test_fibration_reports_of_rational_content_models(capsys, tmp_path, model,
                                                      code, report, text):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(model))
    assert run(capsys, "fibration", str(path), "--json") == (
        code, json.dumps(report, indent=2, sort_keys=True) + "\n", "")
    assert run(capsys, "fibration", str(path)) == (code, text, "")


@pytest.mark.parametrize("model, a4, a4_scale_cubed, a6", [
    ({"a4": ["1/2", "0", "3/7"], "a6": ["-5/3", 0, 0, 0, 0, 0, 0, "2/9"]},
     (Fraction(1, 2), 0, Fraction(3, 7)), 1,
     (Fraction(-5, 3), 0, 0, 0, 0, 0, 0, Fraction(2, 9))),
    ({"a4_cubed": "-27/4", "a6": ["-1", 0, 0, 0, 0, 0, 0, "-3/7"]},
     (1,), Fraction(-27, 4), (-1, 0, 0, 0, 0, 0, 0, Fraction(-3, 7))),
    ({"a4_cubed": 0, "a6": [1, 0, 1]}, (), 1, (1, 0, 1)),
], ids=["fractional-a4-a6", "a4-cubed-negative-a6", "a4-cubed-zero"])
def test_weierstrass_json_of_rational_content_models(model, a4, a4_scale_cubed, a6):
    w = weierstrass_from_data(model)
    assert (tuple(coefficients(w.a4)), w.a4_scale_cubed, tuple(coefficients(w.a6)), w.label) \
        == (a4, a4_scale_cubed, a6, "")


def test_i7e8_rescaled_by_a_3997_digit_denominator(capsys, tmp_path):
    # i7e8 with a6 scaled by 10^-1998 and c^3 by 10^-3996: Delta scales by
    # 10^-3996, so its content has a 3,997-digit denominator, and the
    # fibers stay those of i7e8
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"a4_cubed": "-27/4" + "0" * 3996,
                                "a6": ["-1/1" + "0" * 1998, 0, 0, 0, 0, 0, 0,
                                       "1/1" + "0" * 1998]}))
    code, out, err = run(capsys, "fibration", str(path), "--json")
    assert (code, err) == (0, "")
    _, reference, _ = run(capsys, "fibration", "i7e8", "--json")
    assert json.loads(out) == dict(json.loads(reference), label="")


# CPython 3.11 and 3.10.7+ convert integer strings of at most this many digits
DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()
LONG = "9" * (DIGIT_LIMIT + 1)


@pytest.mark.skipif(not DIGIT_LIMIT, reason="no limit on integer string conversion")
@pytest.mark.parametrize("command, data, field", [
    ("fibration", {"fibers": [{"place": "0", "type": "I" + LONG}], "mw_rank": 0},
     "the n of Kodaira type I_n"),
    ("fibration", {"fibers": [{"place": "0", "type": "I7", "count": LONG}],
                   "mw_rank": 0}, "count"),
    ("fibration", {"a4": [1], "a6": [0, LONG]}, "an a6 coefficient"),
    ("fibration", {"a4": ["1/" + LONG], "a6": [1]}, "the denominator of an a4 coefficient"),
    ("fibration", {"a4_cubed": LONG + "/7", "a6": [1]}, "a4_cubed"),
    ("lattice-info", f"U({LONG})", "the parameter of U"),
], ids=["kodaira-tag", "count", "coefficient", "denominator", "a4-cubed", "lattice-name"])
def test_integer_strings_past_the_digit_limit_name_their_field(capsys, tmp_path, command,
                                                               data, field):
    source = data
    if not isinstance(data, str):
        source = str(tmp_path / "input.json")
        Path(source).write_text(json.dumps(data))
    code, out, err = run(capsys, command, source)
    assert (code, out, err) == (
        2, "", f"error: {field} has more than {DIGIT_LIMIT} digits\n")


@pytest.mark.skipif(not DIGIT_LIMIT, reason="no limit on integer string conversion")
@pytest.mark.parametrize("command, text", [
    ("lattice-info", '{"gram": [[%s]]}' % LONG),
    ("fibration", '{"a4": [1], "a6": [0, %s]}' % LONG),
    ("fibration", '{"fibers": [{"place": "0", "type": "I7", "count": %s}], "mw_rank": 0}'
     % LONG),
], ids=["gram-entry", "coefficient", "count"])
def test_json_numbers_past_the_digit_limit_are_bad_input(capsys, tmp_path, command, text):
    # written by hand: json.dumps refuses an int this long, and the decoder
    # converts JSON numbers before the package sees them
    source = tmp_path / "input.json"
    source.write_text(text)
    code, out, err = run(capsys, command, str(source))
    assert (code, out, err) == (
        2, "", f"error: a JSON integer has more than {DIGIT_LIMIT} digits\n")


@pytest.mark.skipif(not DIGIT_LIMIT, reason="no limit on integer string conversion")
@pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
def test_lattice_info_prints_nothing_when_det_has_too_many_digits(capsys, as_json):
    # U(n) reads a 4,300-digit n, but det = -n^2 has twice as many digits
    argv = ["lattice-info", f"U({'9' * DIGIT_LIMIT})"] + (["--json"] if as_json else [])
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (2, "", f"error: det has more than {DIGIT_LIMIT} digits\n")


@pytest.mark.skipif(not DIGIT_LIMIT, reason="no limit on integer string conversion")
@pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
def test_fibration_prints_nothing_when_a_place_has_too_many_digits(capsys, tmp_path, as_json):
    # a4 = t^3 and a6 = t^8 + (10^2200 + 7) at the default limit: a valid
    # model, but the constant term of its degree-16 I1 place has about
    # twice as many digits as a6's
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"a4": [0, 0, 0, 1],
                                "a6": [10 ** (DIGIT_LIMIT // 2 + 50) + 7] + [0] * 7 + [1]}))
    code, out, err = run(capsys, "fibration", str(path), *(["--json"] if as_json else []))
    assert (code, out, err) == (
        2, "", f"error: the degree-16 place of the I1 fibers has more than {DIGIT_LIMIT} digits\n")


def test_fibration_unknown_source(capsys):
    code, _, err = run(capsys, "fibration", "no-such-model")
    assert code == 2
    assert "i7e8" in err   # the error names the built-ins


# --- verify-all -----------------------------------------------------------------

def test_verify_all_passes(capsys):
    code, out, _ = run(capsys, "verify-all")
    assert code == 0
    lines = [l for l in out.splitlines() if l.startswith(("PASS", "FAIL"))]
    assert len(lines) == 12
    assert all(l.startswith("PASS") for l in lines)
    assert "all checks passed" in out


def test_verify_all_perturb_fails(capsys):
    code, out, _ = run(capsys, "verify-all", "--perturb")
    assert code == 1
    assert any(l.startswith("FAIL") for l in out.splitlines())
    assert "verification FAILED" in out


def test_verify_all_json_schema(capsys):
    code, out, _ = run(capsys, "verify-all", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["passed"] is True
    assert len(data["checks"]) == 12
    ids = [c["id"] for c in data["checks"]]
    assert len(set(ids)) == 12
    assert ids == sorted(ids)
    for check in data["checks"]:
        assert check["status"] == "pass"
        assert isinstance(check["anchor"], str)
        for value in check["values"].values():
            assert isinstance(value, str)


def test_verify_all_json_deterministic(capsys):
    code1, out1, _ = run(capsys, "verify-all", "--json")
    code2, out2, _ = run(capsys, "verify-all", "--json")
    assert code1 == code2 == 0
    d1, d2 = json.loads(out1), json.loads(out2)
    d1.pop("timestamp"), d2.pop("timestamp")
    assert json.dumps(d1, sort_keys=True) == json.dumps(d2, sort_keys=True)


def test_closed_stdout_exits_141_and_prints_nothing():
    # as in `k3lattices verify-all --json | true`: the reader is gone
    # before the report is written, which is no bad input
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.Popen([sys.executable, "-m", "k3lattices.cli", "verify-all", "--json"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 141
    assert err == b""


# --- argument handling ------------------------------------------------------------

def test_no_arguments_is_usage_error(capsys):
    assert run(capsys, )[0] == 2


def test_unknown_subcommand_is_usage_error(capsys):
    assert run(capsys, "frobnicate")[0] == 2


def test_help_exits_zero(capsys):
    code, out, _ = run(capsys, "--help")
    assert code == 0
    assert "verify-all" in out


def test_fiber_table_separates_long_places(capsys):
    rows = [("x" * 13, "I1", 1, 1, 1, "-"), ("x" * 14, "I1", 1, 1, 1, "-")]
    _print_fiber_table(rows)
    assert capsys.readouterr().out.splitlines()[1:] == [
        "  xxxxxxxxxxxxx I1    1      1      1      -",
        "  xxxxxxxxxxxxxx I1    1      1      1      -"]


# --- fuzzed JSON files ------------------------------------------------------------

FUZZ_KEYS = ["a4", "a4_cubed", "a6", "label", "fibers", "mw_rank", "place", "type",
             "count", "identity", "components", "gram"]
AWKWARD = st.none() | st.booleans() | st.floats() | st.sampled_from(
    ["1/0", "1e5", "1.5", " 3 ", "", "inf", "II*", "S"])
FUZZ_JSON = st.recursive(
    AWKWARD | st.integers(-30, 30),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(FUZZ_KEYS), inner, max_size=5),
    max_leaves=16)
RATIONALS = st.integers(-30, 30) | st.sampled_from(["-27/4", "3", "-1", "1/2"])
KODAIRA = st.sampled_from(["I0", "I1", "I2", "I7", "I2*", "II", "III", "IV*", "III*",
                           "II*"])


@st.composite
def fuzz_documents(draw):
    """(command, document): a Weierstrass, fibration or lattice document
    with some of its values swapped for awkward ones and a key perhaps
    dropped or added, or any nested JSON over the schema keys."""
    rate = draw(st.integers(0, 4))

    def value(good):
        return draw(AWKWARD) if draw(st.integers(0, 9)) < rate else draw(good)

    def values(good, size):
        return [value(good) for _ in range(draw(st.integers(0, size)))]

    kind = draw(st.sampled_from(["weierstrass", "fibration", "lattice", "any"]))
    command = "lattice-info" if kind == "lattice" else "fibration"
    if kind == "any":
        return draw(st.sampled_from(["fibration", "lattice-info"])), draw(FUZZ_JSON)
    if kind == "weierstrass":
        doc = {"a6": values(RATIONALS, 13)}
        doc.update(draw(st.sampled_from([{"a4": values(RATIONALS, 9)},
                                         {"a4_cubed": value(RATIONALS)}])))
    elif kind == "fibration":
        doc = {"fibers": [{"place": value(st.sampled_from(["0", "1", "inf", "t^2 + 1"])),
                           "type": value(KODAIRA), "count": value(st.integers(1, 3))}
                          for _ in range(draw(st.integers(0, 4)))],
               "mw_rank": value(st.integers(0, 20))}
    else:
        n = draw(st.integers(0, 5))
        doc = {"gram": [[value(st.integers(-4, 4)) for _ in range(n)] for _ in range(n)]}
    if draw(st.integers(0, 3)) == 0:
        doc.pop(draw(st.sampled_from(sorted(doc))))
    if draw(st.integers(0, 3)) == 0:
        doc[draw(st.sampled_from(FUZZ_KEYS))] = draw(FUZZ_JSON)
    return command, doc


@settings(deadline=None, max_examples=250,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(request=fuzz_documents())
def test_json_files_keep_the_exit_code_contract(tmp_path, request):
    command, data = request
    path = tmp_path / "input.json"
    path.write_text(json.dumps(data))
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main([command, str(path), "--json"])
    assert code in (0, 1, 2)
    assert code != 2 or err.getvalue().startswith("error: ")
