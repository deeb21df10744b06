"""Tests of the benchmark's generator, output checks and span rollup."""

import json
import os

import pytest

from perfbench import gen, spans
from perfbench.checks import Checker
from perfbench.run import ROOT, _run_job, _write_files

import onerel.cli as cli


@pytest.fixture
def in_root():
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        yield
    finally:
        os.chdir(cwd)


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_same_seed_gives_identical_job_lists(workload):
    first = gen.build(workload, 7).text()
    assert first == gen.build(workload, 7).text()
    assert first != gen.build(workload, 8).text()


def test_cover_workloads_share_their_covers():
    z, field = gen.build("cover-z", 3), gen.build("cover-field", 3)
    covers = {p.rsplit("/", 1)[1]: t for p, t in z.files.items()}
    assert covers == {p.rsplit("/", 1)[1]: t for p, t in field.files.items()}


def test_a_cover_pass_spreads_like_slots_over_the_pass():
    assert sorted(gen.COVER_ORDER) == list(range(len(gen.COVER_SLOTS)))
    orders = [job.profile["order"] for job in gen.build("cover-z", 3).jobs]
    quarter = len(orders) // 4
    for start in range(0, 4 * quarter, quarter):
        assert {24, 120} <= set(orders[start:start + quarter])


def _first(plan, check, predicate=lambda job: True):
    return next(j for j in plan.jobs if j.expect["check"] == check and predicate(j))


def _tamper(outcome, edit):
    status, out, err = outcome
    report = json.loads(out)
    edit(report["results"])
    return status, json.dumps(report), err


def _run(plan, job):
    _write_files(plan)
    _, outcome = _run_job(cli, job.argv)
    return outcome


def test_wrong_h1_torsion_is_counted_as_failed(in_root):
    plan = gen.build("cover-z", 1)
    job = _first(plan, "complex", lambda j: j.expect["cover"]["order"] == 12)
    outcome = _run(plan, job)
    checker = Checker()
    assert checker.check(job, outcome) == "ok"
    tampered = _tamper(outcome, lambda r: r["homology"]["h1_torsion"].append(2))
    assert checker.check(job, tampered).startswith("failed")
    tampered = _tamper(outcome, lambda r: r["homology"].update(
        h1_free_rank=r["homology"]["h1_free_rank"] + 1))
    assert checker.check(job, tampered).startswith("failed")


def test_field_homology_is_checked_against_universal_coefficients(in_root):
    plan = gen.build("cover-field", 1)
    job = _first(plan, "complex", lambda j: j.expect["ring"] != "Q")
    outcome = _run(plan, job)
    assert Checker().check(job, outcome) == "ok"
    tampered = _tamper(outcome, lambda r: r["homology"].update(
        h1_free_rank=r["homology"]["h1_free_rank"] + 1))
    assert Checker().check(job, tampered).startswith("failed")


def test_engulf_witness_is_re_multiplied(in_root):
    plan = gen.build("cover-field", 2)
    job = _first(plan, "engulf", lambda j: j.expect["field"] == "Q")
    outcome = _run(plan, job)
    assert Checker().check(job, outcome) == "ok"
    assert json.loads(outcome[1])["results"]["status"] == "witness"
    # a scalar or an unrelated element is not a witness
    tampered = _tamper(outcome, lambda r: r.update(witness="()"))
    assert Checker().check(job, tampered).startswith("failed")
    tampered = _tamper(outcome, lambda r: r.update(
        kernel_dimension=r["kernel_dimension"] + 1))
    assert Checker().check(job, tampered).startswith("failed")


def test_staircase_certificate_is_rechecked(in_root):
    plan = gen.build("symbolic", 4)
    job = _first(plan, "trapezoid", lambda j: j.expect["rank"] >= 4)
    outcome = _run(plan, job)
    assert Checker().check(job, outcome) == "ok"
    report = json.loads(outcome[1])["results"]
    if report["staircase"] is not None:
        tampered = _tamper(outcome, lambda r: r["staircase"].update(
            diag=list(reversed(r["staircase"]["diag"]))))
    else:
        tampered = _tamper(outcome, lambda r: r.update(
            staircase={"rows": [], "cols": [], "diag": []}))
    assert Checker().check(job, tampered).startswith("failed")


def test_refusals_need_a_json_error(in_root):
    plan = gen.build("symbolic", 1)
    refusal = _first(plan, "refusal", lambda j: j.argv[0] == "seqcheck"
                     and "0,x" not in j.argv)
    assert Checker().check(refusal, _run(plan, refusal)) == "ok"
    assert Checker().check(refusal, (0, "{}", "")).startswith("failed")
    assert Checker().check(refusal, ("raised", "", "Traceback")) == "escape"
    normal = _first(plan, "seqcheck")
    assert Checker().check(normal, ("raised", "", "Traceback")).startswith("failed")


def test_self_time_subtracts_child_spans():
    tracer = spans.Tracer()
    tracer.spans = [["outer", None, 0, 0.0, 0.010],
                    ["inner", 0, 0, 0.002, 0.006],
                    ["inner", 0, 0, 0.007, 0.008]]
    totals, root_ms = tracer.rollup()
    assert totals["outer"]["self_ms"] == pytest.approx(5.0)
    assert totals["inner"]["calls"] == 2
    assert totals["inner"]["self_ms"] == pytest.approx(5.0)
    assert root_ms == pytest.approx(10.0)


def test_tracer_wraps_imported_names_and_restores_them():
    import onerel.covers as covers
    import onerel.intlinalg as intlinalg
    original = intlinalg.solve_left
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert covers.solve_left is intlinalg.solve_left is not original
        assert covers.solve_left([[1, 0], [0, 2]], [3, 4]) == [3, 2]
    finally:
        tracer.uninstall()
    assert covers.solve_left is original
    assert [s[0] for s in tracer.spans] == ["intlinalg.solve_left",
                                          "intlinalg.row_hnf_transform",
                                          "trace.counters"]
