"""Tests of the benchmark itself.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer, metric_names  # noqa: E402

from k3lattices import cli, intmat, lattices  # noqa: E402
from k3lattices.intmat import IntMatrix  # noqa: E402
from k3lattices.verify import run_verification  # noqa: E402


def _inputs(workload, count):
    """The first requests of a stream, with the files they name read back."""
    stream = workload.requests()
    out = []
    for _ in range(count):
        req = next(stream)
        payload = req.payload
        if isinstance(payload, list) and payload and isinstance(payload[0], str):
            payload = [Path(a).read_text() if Path(a).is_file() else a
                       for a in payload]
        out.append((req.family, payload, req.expect))
    return out


@pytest.mark.parametrize("name", ["normal_forms", "cli_mix"])
def test_generator_is_deterministic_per_seed(name, tmp_path):
    cls = workloads.WORKLOADS[name]
    count = 60
    dirs = [tmp_path / str(i) for i in range(3)]
    for d in dirs:
        d.mkdir()
    first = _inputs(cls(7, dirs[0]), count)
    again = _inputs(cls(7, dirs[1]), count)
    other = _inputs(cls(8, dirs[2]), count)
    assert first == again
    assert first != other


def test_cli_mix_deck_holds_every_family_its_quota(tmp_path):
    mix = workloads.CliMix(3, tmp_path)
    deck = [r.family for r in mix.trace_list()]
    assert {f: deck.count(f) for f in set(deck)} == workloads.CLI_QUOTA


def _verify_values(report: dict):
    return workloads.reference_checks(report)


def test_wrappers_leave_verify_all_unchanged():
    workloads.clear_fixture_caches()
    plain = run_verification().to_dict()
    originals = (intmat.smith_normal_form, lattices.Lattice.pairing, cli.main)
    tracer = Tracer()
    tracer.install()
    try:
        assert intmat.smith_normal_form is not originals[0]
        workloads.clear_fixture_caches()
        traced = run_verification().to_dict()
    finally:
        tracer.restore()
    assert (intmat.smith_normal_form, lattices.Lattice.pairing, cli.main) == originals
    assert _verify_values(traced) == _verify_values(plain)
    reference = json.loads(workloads.REFERENCE.read_text())
    assert _verify_values(plain) == reference
    metrics = tracer.metrics()
    assert metrics["lattices.pairing.calls"] > 0
    assert metrics["sublattices.enumerate_even_overlattices.calls"] == 1
    assert metrics["lattices.pairing.calls_per_overlattice"] > 0
    assert set(metric_names()) - set(metrics) == {"cli.import_ms",
                                                  "trace.overhead_ratio"}


def test_wrappers_leave_cli_output_unchanged(tmp_path):
    mix = workloads.CliMix(5, tmp_path)
    reqs = [r for r in mix.trace_list() if r.family not in ("tail", "generic",
                                                            "additive")]
    plain = [workloads.run_cli(r.payload) for r in reqs
             if r.family != "one_over_zero"]
    tracer = Tracer()
    tracer.install()
    try:
        traced = [workloads.run_cli(r.payload) for r in reqs
                  if r.family != "one_over_zero"]
    finally:
        tracer.restore()
    assert traced == plain
    spans = tracer.layer_self_ms()
    assert spans["cli"] > 0 and spans["sublattices"] == 0


def test_self_times_never_exceed_the_traced_wall(tmp_path):
    workloads.clear_fixture_caches()
    tracer = Tracer()
    tracer.install()
    try:
        start = run.time.perf_counter()
        run_verification()
        wall_ms = (run.time.perf_counter() - start) * 1000
    finally:
        tracer.restore()
    self_ms = tracer.layer_self_ms()
    assert 0 < sum(self_ms.values()) <= wall_ms
    assert max(self_ms, key=self_ms.get) == "lattices"


def _normal_forms(rows):
    m = IntMatrix.from_rows(rows)
    h, u = intmat.hermite_normal_form(m)
    d, left, right = intmat.smith_normal_form(m)
    return list(d), h.to_lists(), u.to_lists(), left.to_lists(), right.to_lists()


@pytest.mark.parametrize("shape", [(6, 6), (7, 6)])
def test_witness_checker_accepts_true_and_rejects_corrupted_forms(shape):
    rows = workloads.random_matrix(random.Random(11), *shape)
    d, h, u, left, right = _normal_forms(rows)
    det_value = intmat.det_exact(IntMatrix.from_rows(rows)) if shape[0] == shape[1] \
        else None
    good = checks.normal_form_problem(rows, det_value, (h, u), (d, left, right))
    assert good is None

    def corrupt(matrix):
        bad = [list(r) for r in matrix]
        bad[len(bad) // 2][1] += 1
        return bad

    assert checks.hnf_problem(rows, corrupt(h), u) is not None
    assert checks.hnf_problem(rows, h, corrupt(u)) is not None
    assert checks.snf_problem(rows, d, corrupt(left), right) is not None
    assert checks.snf_problem(rows, d, left, corrupt(right)) is not None
    assert checks.snf_problem(rows, d[:-1] + [d[-1] + 1], left, right) is not None


@pytest.mark.parametrize("shape", [(6, 6), (7, 6)])
def test_witness_checker_rejects_scaled_transforms(shape):
    # 2h and 2u satisfy u @ m == h and the HNF shape; 2d and 2left satisfy
    # the SNF identity and the divisibility chain
    rows = workloads.random_matrix(random.Random(12), *shape)
    d, h, u, left, right = _normal_forms(rows)

    def double(matrix):
        return [[2 * x for x in r] for r in matrix]

    assert checks.hnf_problem(rows, double(h), double(u)) == "HNF: u is not unimodular"
    assert checks.snf_problem(rows, [2 * x for x in d], double(left), right) \
        == "SNF: left is not unimodular"
    assert checks.snf_problem(rows, [2 * x for x in d], left, double(right)) \
        == "SNF: right is not unimodular"
    assert checks.is_unimodular(u) and checks.is_unimodular(left)


def test_only_tracebacks_and_foreign_exit_codes_count_as_crashes(tmp_path):
    cold = workloads.VerifyCold(1, tmp_path)
    req = workloads.Request("verify-all", None)
    failed = json.dumps({"passed": False, "checks": []})
    verdicts = [
        (workloads.Outcome(1, failed, ""), "verify-all did not pass"),
        (workloads.Outcome(1, "", "Traceback (most recent call last):"), "traceback"),
        (workloads.Outcome(-9, "", ""), "crashed with exit code -9"),
    ]
    for outcome, verdict in verdicts:
        assert run.judge(cold, req, outcome) == verdict
    assert [run.crashed(v) for _, v in verdicts] == [False, True, True]

    mix = workloads.CliMix(1, tmp_path)
    generic = mix.make(random.Random(1), "generic")
    short = {"fibers": [{"place": "0", "type": "I1", "count": "23", "euler": "1",
                         "components": "1"}], "euler_total": "23",
             "ns_rank": "16", "mw_rank": "14", "consistent": False}
    problem = run.judge(mix, generic, workloads.Outcome(1, json.dumps(short), ""))
    assert problem == "fibration: Euler numbers do not sum to 24 on a K3 model"
    assert not run.crashed(problem)
    bad_name = mix.make(random.Random(1), "bad_name")
    assert run.judge(mix, bad_name, workloads.Outcome(0, "{}", "")) \
        == "exit code 0, expected 2"


def test_witness_checker_rejects_forms_that_only_satisfy_the_product():
    # diag(3, 2) satisfies the product identity but breaks the divisibility chain
    swap = [[0, 1], [1, 0]]
    assert checks.snf_problem([[2, 0], [0, 3]], [3, 2], swap, swap) \
        == "SNF: divisibility chain broken"
    identity = [[1, 0], [0, 1]]
    assert checks.hnf_problem([[1, 5], [0, 1]], [[1, 5], [0, 1]], identity) \
        == "HNF: entry above a pivot is not reduced"


def test_tail_percentile_follows_the_sample_count():
    assert run.tail_percentile(250) == 90
    assert run.tail_percentile(60) == 83
    assert run.tail_percentile(14) == 50


def test_fibration_check_catches_a_wrong_euler_total():
    good = {"fibers": [{"place": "0", "type": "II*", "count": "1", "euler": "10",
                        "components": "9"},
                       {"place": "t", "type": "I1", "count": "14", "euler": "1",
                        "components": "1"}],
            "euler_total": "24", "ns_rank": "16", "mw_rank": "6"}
    assert checks.fibration_problem(good, {"at_zero": "II*"}) is None
    bad = dict(good, euler_total="23")
    assert checks.fibration_problem(bad, {}) is not None
    assert checks.fibration_problem(good, {"at_zero": "III*"}) is not None


def test_a_run_ends_with_the_result_line():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "normal_forms",
         "--seed", "2", "--seconds", "0.1", "--trace", "0"],
        cwd=HERE.parent, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    # the distinct requests of the pool, however many passes the time allowed
    assert result["attempted"] == workloads.NormalForms.pool
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == \
        {k: v["unit"] for k, v in result["metrics"].items()}
