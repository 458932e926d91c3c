"""Self-tests of the benchmark's own checks and tracer.

    PYTHONPATH=src python3 -m pytest -q bench
"""

import copy
import json

import numpy as np
import pytest

import checks
import child
import run
from slqcert import trace_estimator
from slqcert.operators import build_matern_operator, sample_sites

SMALL_LOG = ["trace", "--testbed", "laplacian", "--n1", "20", "--n2", "30", "--kind", "log",
             "--delta", "1", "--n-samples", "10", "--seed", "3"]


def test_laplacian_truth_reproduces_the_paper_traces():
    assert round(checks.laplacian_trace("exp_neg", 90, 120), 2) == 1014.96
    assert round(checks.laplacian_trace("log", 300, 400)) == 140146


def test_matern_logdet_agrees_with_eigvalsh():
    kernel = checks.matern_matrix(12, 15, checks.matern_sites(12, 15, 0.5, seed=7))
    assert checks.cholesky_logdet(kernel) == pytest.approx(
        float(np.sum(np.log(np.linalg.eigvalsh(kernel)))), rel=1e-10)


def test_matern_truth_poses_the_problem_the_program_solves():
    n1, n2 = 12, 15
    sites = checks.matern_sites(n1, n2, 0.5, seed=7)
    assert np.array_equal(sites, sample_sites(n1, n2, 0.5, 7))
    op = build_matern_operator((n1, n2), sites, 0.4 * n2, 0.4 * n1, nu=1.5, tau=1e-5)
    np.testing.assert_allclose(checks.matern_matrix(n1, n2, sites), op.dense_matrix(),
                               rtol=1e-13, atol=1e-15)


@pytest.fixture(scope="module")
def small_report(tmp_path_factory):
    path = tmp_path_factory.mktemp("report") / "report.json"
    assert child.run(SMALL_LOG + ["--output", str(path)], trace=False)["exit_code"] == 0
    return json.loads(path.read_text()), checks.laplacian_trace("log", 20, 30)


def test_checker_accepts_a_real_report(small_report):
    report, truth = small_report
    assert checks.check_report(report, truth) == []


def test_checker_rejects_an_uncertified_report(small_report):
    report, truth = copy.deepcopy(small_report)
    report["certified"] = False
    assert checks.check_report(report, truth) == ["report is not certified"]


def test_checker_rejects_a_mean_shifted_by_two_half_widths(small_report):
    report, truth = copy.deepcopy(small_report)
    shift = 2.0 * report["half_width"]
    report["mean"] += shift
    for sample in report["per_sample"]:
        sample["value"] += shift
    problems = checks.check_report(report, truth)
    assert len(problems) == 1 and "exceeds the half-width" in problems[0]


def test_checker_rejects_a_mean_that_is_not_the_sample_average(small_report):
    report, truth = copy.deepcopy(small_report)
    report["mean"] += 1e-6 * abs(report["mean"])
    assert any("is not the average" in p for p in checks.check_report(report, truth))


def test_traced_run_survives_a_missing_wrapped_function(tmp_path, monkeypatch):
    original = trace_estimator.sample_bilinear
    monkeypatch.delattr(trace_estimator, "calibrate_delta")
    path = tmp_path / "report.json"
    result = child.run(SMALL_LOG + ["--output", str(path)], trace=True)
    assert result["exit_code"] == 0
    assert result["absent"] == ["trace_estimator.calibrate_delta"]
    assert trace_estimator.sample_bilinear is original
    result["report"] = json.loads(path.read_text())
    metrics = run.layer_metrics(result)
    assert metrics["trace_estimator.calibrate_delta_s"] == 0
    assert metrics["trace_estimator.sample_bilinear_calls"] == 10
    assert metrics["lanczos.lanczos_step_calls"] == metrics["operators.apply_calls"] > 0
    accounted = sum(layer["self_s"] for layer in result["layers"].values())
    assert accounted == pytest.approx(result["solve_s"], rel=run.ACCOUNTING_RTOL)
