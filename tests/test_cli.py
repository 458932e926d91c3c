import csv
import io
import json
import time

import numpy as np
import pytest

from slqcert import trace_estimator
from slqcert.cli import ExperimentConfig, main
from slqcert.errors import ContractViolationError
from slqcert.lanczos import DEFAULT_REORTH, LanczosState


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_config_round_trip():
    config = ExperimentConfig(testbed="matern", n1=40, n2=30, kind="log",
                              delta=2.5, site_seed=77)
    clone = ExperimentConfig.from_dict(json.loads(json.dumps(config.to_dict())))
    assert clone == config


def test_config_rejects_unknown_keys():
    with pytest.raises(ContractViolationError):
        ExperimentConfig.from_dict({"bogus": 1})


@pytest.mark.parametrize("bad", [
    {"n1": "90"}, {"n1": 9.5},
    # values outside the parser's choices, such as a stale reorth mode
    {"format": "tabel"}, {"reorth": "auto"}, {"testbed": "grid"}, {"kind": "cos"},
])
def test_config_type_mismatch_is_usage_error(bad, tmp_path, capsys):
    cfg_file = tmp_path / "config.json"
    cfg_file.write_text(json.dumps(bad))
    code, out, err = run_cli(["trace", "--config", str(cfg_file)], capsys)
    assert code == 1
    assert out == ""
    (key,) = bad
    assert err.startswith("error:") and f"'{key}'" in err


def test_config_accepts_int_for_float_field():
    assert ExperimentConfig.from_dict({"alpha": 2}).alpha == 2.0


def test_rational_check_exp_reaches_machine_precision(capsys):
    code, out, _ = run_cli(
        ["rational-check", "--kind", "exp_neg", "--n1", "20", "--n2", "20",
         "--k-min", "1", "--k-max", "14"], capsys)
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    errs = [float(r["uniform_error"]) for r in rows]
    assert len(errs) == 14
    # monotone decrease until the error hits the double-precision floor
    prev = errs[0]
    for e in errs[1:]:
        if prev <= 1e-12:
            break
        assert e <= prev * 1.1
        prev = e
    assert min(errs) <= 1e-12


def test_rational_check_empty_schedule_is_usage_error(capsys):
    code, _, err = run_cli(
        ["rational-check", "--kind", "log", "--k-min", "9", "--k-max", "3"], capsys)
    assert code == 1
    assert "error" in err


def test_bilinear_curve_single_row(capsys):
    code, out, _ = run_cli(
        ["bilinear-curve", "--n1", "6", "--n2", "6", "--kind", "exp_neg",
         "--m-max", "1", "--K", "3"], capsys)
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 1
    assert rows[0]["m"] == "1"


def test_bilinear_curve_rejects_matern(capsys):
    code, _, err = run_cli(
        ["bilinear-curve", "--testbed", "matern", "--n1", "8", "--n2", "8",
         "--kind", "log"], capsys)
    assert code == 1
    assert "laplacian" in err


def test_bilinear_curve_columns_track_each_other(capsys):
    code, out, _ = run_cli(
        ["bilinear-curve", "--n1", "20", "--n2", "24", "--kind", "exp_neg",
         "--m-max", "12", "--K", "4", "--seed", "3"], capsys)
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert {"m", "true_error", "incremental_error", "cumulative_window"} <= set(rows[0])
    # where the window exists, it approximates the true error
    checked = 0
    for row in rows:
        if row["cumulative_window"] and float(row["true_error"]) > 1e-10:
            ratio = float(row["cumulative_window"]) / float(row["true_error"])
            assert 0.2 <= ratio <= 5.0
            checked += 1
    assert checked >= 3


def test_trace_minimal_run_valid_json(tmp_path, capsys):
    out_file = tmp_path / "report.json"
    code, _, _ = run_cli(
        ["trace", "--n1", "10", "--n2", "12", "--kind", "sqrt",
         "--n-samples", "2", "--delta", "1.0", "--seed", "1",
         "-o", str(out_file)], capsys)
    assert code == 0
    report = json.loads(out_file.read_text())
    assert report["N"] == 2
    assert report["truth"] == pytest.approx(
        sum(np.sqrt(np.linalg.eigvalsh(_dense_lap(10, 12)))), rel=1e-9)
    assert report["half_width"] > 0
    for key in ("K", "rational_eps", "delta", "average_steps", "mean",
                "half_width", "p_alpha", "per_sample"):
        assert key in report
    assert all(type(s["sign_flips"]) is int for s in report["per_sample"])


def _dense_lap(n1, n2):
    from helpers import dense_laplacian

    return dense_laplacian(n1, n2)


def test_trace_replay_identical_except_timings(tmp_path, capsys):
    config = ExperimentConfig(command="trace", testbed="laplacian", n1=12, n2=10,
                              kind="exp_neg", n_samples=4, delta=0.8, seed=9)
    cfg_file = tmp_path / "config.json"
    cfg_file.write_text(json.dumps(config.to_dict()))
    reports = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        code, _, _ = run_cli(["trace", "--config", str(cfg_file), "-o", str(out)],
                             capsys)
        assert code == 0
        data = json.loads(out.read_text())
        data.pop("timings")
        data["config"].pop("output")
        reports.append(json.dumps(data, sort_keys=True))
    assert reports[0] == reports[1]


def test_trace_reports_resolved_reorth_mode(capsys):
    code, out, _ = run_cli(
        ["trace", "--n1", "8", "--n2", "8", "--kind", "log",
         "--n-samples", "2", "--delta", "1.0"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["config"]["reorth"] == "partial"
    assert report["reorth_mode"] == "partial"


def test_trace_reorth_reaches_every_lanczos_run(monkeypatch, capsys):
    # without --delta the command runs the spectrum probe, the two pilot
    # samples and the two samples of the estimate
    modes = []
    init = LanczosState.__init__

    def recording_init(self, op, u, reorth_mode=DEFAULT_REORTH, *args, **kwargs):
        modes.append(reorth_mode)
        init(self, op, u, reorth_mode, *args, **kwargs)

    monkeypatch.setattr(LanczosState, "__init__", recording_init)
    code, _, _ = run_cli(
        ["trace", "--testbed", "matern", "--n1", "10", "--n2", "10",
         "--sample-fraction", "0.3", "--kind", "log", "--n-samples", "2",
         "--pilot-n", "2", "--tau", "1e-3", "--reorth", "none"], capsys)
    assert code in (0, 2)
    assert len(modes) == 1 + 2 + 2
    assert set(modes) == {"none"}


def test_trace_wall_time_spans_interval_estimation(monkeypatch, tmp_path, capsys):
    estimate_interval = trace_estimator.estimate_spectrum_interval

    def slow(*args, **kwargs):
        time.sleep(0.2)
        return estimate_interval(*args, **kwargs)

    monkeypatch.setattr(trace_estimator, "estimate_spectrum_interval", slow)
    out_file = tmp_path / "matern.json"
    code, _, _ = run_cli(
        ["trace", "--testbed", "matern", "--n1", "10", "--n2", "10",
         "--sample-fraction", "0.3", "--kind", "log", "--n-samples", "2",
         "--delta", "2.0", "--tau", "1e-3", "-o", str(out_file)], capsys)
    assert code == 0
    assert json.loads(out_file.read_text())["timings"]["wall_seconds"] >= 0.2


def test_trace_table_format(capsys):
    code, out, _ = run_cli(
        ["trace", "--n1", "8", "--n2", "8", "--kind", "log",
         "--n-samples", "3", "--delta", "1.0", "--format", "table"], capsys)
    assert code == 0
    assert "estimate" in out and "half-width" in out and "truth" in out


def test_trace_unreachable_accuracy_is_an_error(capsys):
    code, _, err = run_cli(
        ["trace", "--n1", "10", "--n2", "10", "--kind", "log", "--delta", "1e-14",
         "--n-samples", "2"], capsys)
    assert code == 1
    assert err.startswith("error:")


def test_trace_uncertified_exit_code(capsys):
    code, out, _ = run_cli(
        ["trace", "--n1", "10", "--n2", "10", "--kind", "log",
         "--n-samples", "2", "--delta", "1e-9", "--m-max", "3"], capsys)
    assert code == 2
    assert json.loads(out)["certified"] is False


def test_trace_matern_desk_scale(tmp_path, capsys):
    out_file = tmp_path / "matern.json"
    code, _, _ = run_cli(
        ["trace", "--testbed", "matern", "--n1", "16", "--n2", "12",
         "--sample-fraction", "0.2", "--kind", "log", "--n-samples", "4",
         "--delta", "2.0", "--tau", "1e-4", "--site-seed", "5",
         "-o", str(out_file)], capsys)
    assert code == 0
    report = json.loads(out_file.read_text())
    assert report["operator"]["testbed"] == "matern"
    assert report["operator"]["dim"] == round(0.2 * 16 * 12)
    assert "condition_estimate" in report["operator"]
    assert "truth" in report  # dense logdet oracle at desk scale


def test_calibrate_delta_command(capsys):
    code, out, _ = run_cli(
        ["calibrate-delta", "--n1", "12", "--n2", "12", "--kind", "sqrt",
         "--pilot-n", "6", "--n-samples", "25"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["delta"] > 0
    assert data["pilot_n"] == 6
