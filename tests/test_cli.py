import argparse
import csv
import io
import json
import time
from dataclasses import fields

import numpy as np
import pytest

from slqcert import cli, error_estimator, oracles, rational, trace_estimator
from slqcert.cli import ExperimentConfig, build_parser, main
from slqcert.error_estimator import LOOKBACK_THRESHOLD, ErrorMonitor, cumulative_error
from slqcert.errors import ContractViolationError, QuadratureDomainError
from slqcert.lanczos import DEFAULT_REORTH, LanczosState, lanczos_step, quadrature_value
from slqcert.operators import Laplacian2D, build_matern_operator, sample_sites


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
    # values outside the parser's choices, or a pole count outside the schedule
    {"format": "tabel"}, {"K": 41}, {"testbed": "grid"}, {"kind": "cos"},
    # a tolerance that is not positive
    {"delta": 0}, {"delta": -1.0},
    # the lookback ratio and the reorthogonalization policy, which are
    # constants of the monitor and Lanczos layers, not config keys
    {"t": 0.1}, {"reorth": "full"},
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


def test_rational_check_k_range_outside_the_schedule_is_checked_first(monkeypatch, capsys):
    # k_max past the schedule is a usage error before any operator is built
    # or any row printed
    built = []
    monkeypatch.setattr(cli, "make_operator", lambda config: built.append(config))
    code, out, err = run_cli(
        ["rational-check", "--kind", "log", "--k-min", "38", "--k-max", "45"], capsys)
    assert code == 1
    assert out == "" and built == []
    assert err.startswith("error:") and err.count("\n") == 1 and "'k_max'" in err


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


def test_bilinear_curve_ends_once_the_increments_reach_roundoff(capsys):
    # at the default m_max of 2000 this run used to step for minutes, an
    # m x m eigensolve per step, long after |d_m| fell to roundoff (m ~ 140)
    args = ["bilinear-curve", "--n1", "40", "--n2", "50", "--kind", "log",
            "--delta", "1", "--seed", "3"]
    tic = time.perf_counter()
    code, out, _ = run_cli(args, capsys)
    assert code == 0 and time.perf_counter() - tic < 30.0
    code, capped, _ = run_cli(args + ["--m-max", "300"], capsys)
    assert code == 0

    def columns(text):
        return [(row["m"], row["true_error"], row["incremental_error"])
                for row in csv.DictReader(io.StringIO(text))]

    assert columns(out) == columns(capped)
    assert len(columns(out)) < 300


def _reference_curve(args) -> str:
    """The bilinear-curve CSV from a loop of its own: a bare Lanczos run, a
    fresh ErrorMonitor fed each step's (alpha_m, beta_m), a quadrature value
    per step, the roundoff stop and the forward window search."""
    config = cli.config_from_args(build_parser().parse_args(["bilinear-curve", *args]))
    op, interval, _ = cli.make_operator(config)
    f = rational.kind_function(config.kind)
    if config.K is not None:
        r = rational.build(config.kind, config.K, interval)
    else:
        r = rational.choose_K(config.kind, interval,
                              trace_estimator.rational_target(config.delta, op.dim))
    u = trace_estimator.rademacher_vector(op.dim, config.seed, index=0)
    truth = oracles.exact_bilinear_laplacian(f, config.n1, config.n2,
                                             u / np.linalg.norm(u))
    state = LanczosState(op, u[None], m_max=config.m_max)
    monitor = ErrorMonitor(r, tol=0.0)
    quad = []
    while state.m < min(config.m_max, op.dim) and not state.breakdown[0]:
        lanczos_step(state)
        T = state.tridiagonal()
        increment = monitor.advance(float(T.alphas[-1]),
                                    float(T.betas[-1]) if state.m > 1 else 0.0)
        quad.append(quadrature_value(T, f))
        if increment is not None and abs(increment[0]) <= np.finfo(float).eps * abs(quad[-2]):
            break
    d = monitor.history[0]
    rows = [["m", "true_error", "incremental_error", "cumulative_window"]]
    for m in range(1, len(quad) + 1):
        window = ""
        for mp in range(m + 1, len(d) + 1):
            if abs(d[mp - 1]) <= monitor.t * abs(d[m - 1]):
                window = f"{abs(cumulative_error(monitor, m, mp)):.6e}"
                break
        rows.append([m, f"{abs(truth - quad[m - 1]):.6e}",
                     f"{abs(d[m - 1]):.6e}" if m <= len(d) else "", window])
    buf = io.StringIO()
    csv.writer(buf).writerows(rows)
    return buf.getvalue()


@pytest.mark.parametrize("args,count", [
    (["--n1", "40", "--n2", "50", "--kind", "log", "--delta", "1", "--seed", "3"], 140),
    (["--n1", "20", "--n2", "24", "--kind", "exp_neg", "--delta", "0.01", "--seed", "3"], 19),
    (["--n1", "30", "--n2", "20", "--kind", "sqrt", "--K", "8", "--seed", "4"], 73),
    (["--n1", "30", "--n2", "30", "--kind", "tanh_sqrt", "--delta", "0.2", "--seed", "5"], 83),
], ids=["log", "exp_neg", "sqrt", "tanh_sqrt"])
def test_bilinear_curve_matches_a_reference_loop(args, count, capsys):
    code, out, _ = run_cli(["bilinear-curve", *args], capsys)
    assert code == 0
    assert out == _reference_curve(args)
    assert len(out.splitlines()) == count + 1


def test_bilinear_curve_monitor_failure_is_an_error(monkeypatch, capsys):
    # every pivot falls under the guard, so the monitor fails at its first step
    monkeypatch.setattr(error_estimator, "PIVOT_GUARD", 1e300)
    code, out, err = run_cli(
        ["bilinear-curve", "--n1", "6", "--n2", "7", "--kind", "log", "--K", "4"], capsys)
    assert code == 1 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("args", [
    ["trace", "--bogus"],
    ["trace", "--kind", "nope"],
    # --t matches both --testbed and --tau
    ["trace", "--t", "5"],
], ids=["unknown-flag", "bad-choice", "ambiguous-flag"])
def test_flag_errors_exit_1_like_config_errors(args, capsys):
    # exit code 2 means an uncertified run, so a usage error may not use it
    with pytest.raises(SystemExit) as exc:
        main(args)
    assert exc.value.code == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["trace", "--help"])
    assert exc.value.code == 0
    assert "--n-samples" in capsys.readouterr().out


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
    assert (report["reorth_mode"], report["t"]) == ("partial", 0.1)
    assert "reorth" not in report["config"] and "t" not in report["config"]


def test_trace_reorth_reaches_every_lanczos_run(monkeypatch, capsys):
    # without --delta the command runs the spectrum probe and the two pilot
    # samples, which go on as the two samples of the estimate; a block of
    # probes is one state with a column per probe, and the block has one
    # monitor in the pilot and one in the estimate
    modes, ratios = [], []
    init = LanczosState.__init__
    monitor_init = ErrorMonitor.__init__

    def recording_init(self, op, u, *args, **kwargs):
        init(self, op, u, *args, **kwargs)
        modes.extend([self.reorth_mode] * len(u))

    def recording_monitor_init(self, *args, **kwargs):
        monitor_init(self, *args, **kwargs)
        ratios.append(self.t)

    monkeypatch.setattr(LanczosState, "__init__", recording_init)
    monkeypatch.setattr(ErrorMonitor, "__init__", recording_monitor_init)
    code, _, _ = run_cli(
        ["trace", "--testbed", "matern", "--n1", "10", "--n2", "10",
         "--sample-fraction", "0.3", "--kind", "log", "--n-samples", "2",
         "--pilot-n", "2", "--tau", "1e-3"], capsys)
    assert code in (0, 2)
    assert len(modes) == 1 + 2
    assert set(modes) == {DEFAULT_REORTH}
    assert len(ratios) == 1 + 1
    assert set(ratios) == {LOOKBACK_THRESHOLD}


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


@pytest.mark.parametrize("n1,n2,block", [(8, 8, 3), (200, 200, 1)])
def test_trace_reports_the_probe_block_size(n1, n2, block, capsys):
    # three probes of 64 entries share a block; 40000 entries exceed 2^15
    args = ["trace", "--n1", str(n1), "--n2", str(n2), "--kind", "exp_neg",
            "--n-samples", "3", "--delta", "50.0"]
    code, out, _ = run_cli(args, capsys)
    assert code == 0
    assert json.loads(out)["block_size"] == block
    code, out, _ = run_cli(args + ["--format", "table"], capsys)
    assert code == 0
    assert [line.split()[-1] for line in out.splitlines()
            if line.startswith("probe block size")] == [str(block)]


def test_trace_exits_2_when_one_probe_fails(monkeypatch, capsys):
    # the quadrature of the second probe raises: its sample is flagged with
    # the error, the other two finish, and the run is not certified
    calls = []
    gauss_quadrature = trace_estimator.gauss_quadrature

    def failing_second(eig, f):
        calls.append(len(eig.thetas))
        if len(calls) == 2:
            raise QuadratureDomainError("f undefined at quadrature node theta=-1.0")
        return gauss_quadrature(eig, f)

    monkeypatch.setattr(trace_estimator, "gauss_quadrature", failing_second)
    code, out, _ = run_cli(
        ["trace", "--n1", "8", "--n2", "8", "--kind", "log",
         "--n-samples", "3", "--delta", "1.0"], capsys)
    assert code == 2
    report = json.loads(out)
    assert not report["certified"]
    samples = report["per_sample"]
    assert samples[1]["failure"] == ("QuadratureDomainError: "
                                     "f undefined at quadrature node theta=-1.0")
    assert [s["converged"] for s in samples] == [True, False, True]
    assert "failure" not in samples[0] and "failure" not in samples[2]
    assert report["mean"] == (samples[0]["value"] + samples[2]["value"]) / 2


@pytest.mark.parametrize("args", [
    ["trace", "--n1", "8", "--n2", "8", "--kind", "log", "--delta", "0"],
    # a negative delta used to run every probe to the cap first
    ["trace", "--n1", "8", "--n2", "8", "--kind", "log", "--K", "5", "--delta", "-1",
     "--n-samples", "5"],
    # a zero delta used to pick the K of a 1e-10 target silently
    ["bilinear-curve", "--n1", "8", "--n2", "8", "--kind", "log", "--delta", "0"],
], ids=["trace-zero", "trace-negative", "bilinear-curve-zero"])
def test_nonpositive_delta_is_a_usage_error(args, capsys):
    code, out, err = run_cli(args, capsys)
    assert code == 1 and out == ""
    assert err.startswith("error:") and "'delta' must be positive" in err


@pytest.mark.parametrize("args", [
    # a negative beta used to print a negative delta and exit 0
    ["calibrate-delta", "--beta", "-1"],
    ["trace", "--beta", "0"],
    # a zero alpha used to fail only after every probe had run
    ["trace", "--alpha", "0", "--delta", "1.0"],
], ids=["calibrate-delta-beta", "trace-beta", "trace-alpha"])
def test_nonpositive_alpha_or_beta_fails_before_any_probe(args, capsys, monkeypatch):
    def no_probe(*_args, **_kwargs):
        raise AssertionError("a Lanczos run started")

    monkeypatch.setattr(LanczosState, "__init__", no_probe)
    code, out, err = run_cli([*args, "--n1", "8", "--n2", "8", "--kind", "log"], capsys)
    assert code == 1 and out == ""
    key = args[1].lstrip("-")
    assert err.startswith("error:") and f"'{key}' must be positive" in err


@pytest.mark.parametrize("args", [
    ["--delta", "inf"],
    ["--beta", "inf"],
    ["--alpha", "inf", "--delta", "1.0"],
], ids=["delta", "beta", "alpha"])
def test_infinite_tolerance_or_level_is_a_usage_error(args, capsys, monkeypatch):
    # each used to print "certified": true with an infinite half-width
    def no_probe(*_args, **_kwargs):
        raise AssertionError("a Lanczos run started")

    monkeypatch.setattr(LanczosState, "__init__", no_probe)
    code, out, err = run_cli(["trace", *args, "--n1", "8", "--n2", "8", "--kind", "log"],
                             capsys)
    assert code == 1 and out == ""
    key = args[0].lstrip("-")
    assert err == f"error: config key '{key}' must be positive and finite, got inf\n"


@pytest.mark.parametrize("fraction", ["-1", "0", "1.5", "nan"])
def test_sample_fraction_outside_the_unit_interval_is_a_usage_error(fraction, capsys):
    # -1 and 0 used to build a one-site operator and exit 0 as certified
    code, out, err = run_cli(
        ["trace", "--testbed", "matern", "--n1", "8", "--n2", "8", "--kind", "log",
         "--n-samples", "2", "--delta", "1.0", "--sample-fraction", fraction], capsys)
    assert code == 1 and out == ""
    assert err.startswith("error: site fraction must lie in (0, 1]")
    assert err.count("\n") == 1


MATERN_40x30 = ["--testbed", "matern", "--n1", "40", "--n2", "30", "--kind", "log"]


def _no_operator(monkeypatch):
    def unbuilt(*_args, **_kwargs):
        raise AssertionError("an operator or a Lanczos run was built")

    monkeypatch.setattr(cli, "make_operator", unbuilt)
    monkeypatch.setattr(LanczosState, "__init__", unbuilt)


@pytest.mark.parametrize("args, key", [
    # each used to fail only after the pilot's or the estimate's probes had run
    (["--n1", "30", "--n2", "30", "--kind", "log", "--K", "50"], "K"),
    ([*MATERN_40x30, "--K", "41"], "K"),
    # each used to fail after the preconditioner and the spectrum probe
    ([*MATERN_40x30, "--n-samples", "1"], "n_samples"),
    ([*MATERN_40x30, "--pilot-n", "1"], "pilot_n"),
    ([*MATERN_40x30, "--m-max", "0"], "m_max"),
    # each used to fail inside numpy's site sampler
    ([*MATERN_40x30, "--n1", "0"], "n1"),
    ([*MATERN_40x30, "--n2", "0"], "n2"),
], ids=["laplacian-K", "matern-K", "n-samples", "pilot-n", "m-max", "n1", "n2"])
def test_count_arguments_fail_before_any_operator(args, key, capsys, monkeypatch):
    _no_operator(monkeypatch)
    code, out, err = run_cli(["trace", *args], capsys)
    assert code == 1 and out == ""
    assert err.startswith(f"error: config key '{key}' must be")


# inf used to fail in the truth oracle after the whole estimate had run,
# nan inside the preconditioner's SVD
@pytest.mark.parametrize("rule", ["inf", "nan", "0"])
def test_a_lengthscale_rule_that_is_not_positive_fails_before_any_operator(
        rule, capsys, monkeypatch):
    _no_operator(monkeypatch)
    code, out, err = run_cli(["trace", *MATERN_40x30, "--delta", "1", "--ell-rule", rule],
                             capsys)
    assert code == 1 and out == ""
    assert err == f"error: config key 'ell_rule' must be positive and finite, got {float(rule)}\n"


def test_trace_rejects_a_forced_pole_count(capsys, monkeypatch):
    # K = 1 misses delta / (2 n) by four orders of magnitude, and this run
    # used to exit 0 as certified
    _no_operator(monkeypatch)
    code, out, err = run_cli(["trace", "--n1", "30", "--n2", "30", "--kind", "log",
                              "--delta", "1", "--K", "1", "--n-samples", "10"], capsys)
    assert code == 1 and out == ""
    assert err.startswith("error: config key 'K' is a bilinear-curve key")
    assert err.count("\n") == 1
    code, out, err = run_cli(["trace", "--n1", "8", "--n2", "8", "--kind", "log", "--K", "5"],
                             capsys)
    assert code == 1 and out == "" and err.count("\n") == 1


def test_each_subcommand_has_one_flag_per_config_key():
    parser = build_parser()
    commands = next(action.choices for action in parser._actions
                    if isinstance(action, argparse._SubParsersAction))
    keys = {f.name for f in fields(ExperimentConfig)} - {"command"}
    for name, sub in commands.items():
        assert {action.dest for action in sub._actions} - {"help", "config"} == keys, name
    args = parser.parse_args(["trace", "--K", "3", "--tau", "1e-3", "--beta", "2",
                              "-o", "out.json"])
    assert (args.K, args.tau, args.beta, args.output) == (3, 1e-3, 2.0, "out.json")
    with pytest.raises(SystemExit):
        parser.parse_args(["trace", "--kind", "cosh"])


@pytest.mark.parametrize("value", ["-1", str(2**64)])
@pytest.mark.parametrize("flag,testbed", [("--seed", "laplacian"),
                                          ("--site-seed", "matern")])
def test_seed_outside_64_bits_is_a_usage_error(flag, testbed, value, capsys):
    code, out, err = run_cli(
        ["trace", "--testbed", testbed, "--n1", "8", "--n2", "8", "--kind", "log",
         "--n-samples", "2", "--delta", "1.0", flag, value], capsys)
    assert code == 1 and out == ""
    assert err.startswith("error:") and "[0, 2^64)" in err


def test_calibration_pilot_seed_past_64_bits_is_a_usage_error(capsys):
    # the pilot draws the estimate's own probes, so the last 64-bit seed runs
    args = ["calibrate-delta", "--n1", "8", "--n2", "8", "--kind", "log"]
    code, _, err = run_cli([*args, "--seed", str(2**64)], capsys)
    assert code == 1
    assert err.startswith("error:") and "[0, 2^64)" in err
    code, out, _ = run_cli([*args, "--seed", str(2**64 - 1)], capsys)
    assert code == 0 and json.loads(out)["delta"] > 0


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
    # the truth of kind log is the Cholesky log det of the unpreconditioned A
    sites = sample_sites(16, 12, 0.2, seed=5)
    op = build_matern_operator((16, 12), sites, 0.4 * 12, 0.4 * 16, nu=1.5, tau=1e-4)
    assert report["truth"] == oracles.dense_logdet(op.dense_matrix())
    # kind log runs on the preconditioned operator, whose spectrum starts at 1
    assert report["operator"]["preconditioner"]["rank"] == round(0.2 * 16 * 12) // 3
    assert report["interval"][0] == 1.0
    assert report["operator"]["condition_estimate"] == report["interval"][1]
    samples = report["per_sample"]
    for counter in ("reorth_passes", "replayed_steps"):
        assert all(type(s[counter]) is int for s in samples)
        assert report[counter] == sum(s[counter] for s in samples)


def test_trace_matern_log_reports_its_preconditioner_and_timings(capsys):
    args = ["trace", "--testbed", "matern", "--n1", "40", "--n2", "30", "--kind", "log",
            "--n-samples", "4", "--delta", "5.0", "--site-seed", "3"]
    code, out, _ = run_cli(args, capsys)
    assert code == 0
    report = json.loads(out)
    pre = report["operator"]["preconditioner"]
    assert set(pre) == {"rank", "logdet", "residual_trace"}
    assert pre["rank"] == 120 // 3 and 0 < pre["residual_trace"] < 120
    # the build and the oracle are timed apart from the estimate, inside the wall
    timings = report["timings"]
    assert timings["operator_seconds"] >= 0 and timings["truth_seconds"] >= 0
    parts = ("operator", "calibration", "approximation", "error_estimate", "truth")
    assert sum(timings[f"{part}_seconds"] for part in parts) <= timings["wall_seconds"]
    code, out, _ = run_cli([*args, "--format", "table"], capsys)
    assert code == 0
    assert ["preconditioner", "rank", str(pre["rank"])] in [line.split() for line in
                                                             out.splitlines()]


def test_trace_times_the_choice_of_K_as_approximation(monkeypatch, capsys):
    choose_K = rational.choose_K

    def slow_choose_K(*args, **kwargs):
        time.sleep(0.05)
        return choose_K(*args, **kwargs)

    monkeypatch.setattr(rational, "choose_K", slow_choose_K)
    code, out, _ = run_cli(["trace", "--testbed", "laplacian", "--n1", "12", "--n2", "10",
                            "--kind", "exp_neg", "--delta", "0.5", "--n-samples", "4"], capsys)
    assert code == 0
    timings = json.loads(out)["timings"]
    assert timings["approximation_seconds"] >= 0.05
    parts = ("operator", "calibration", "approximation", "error_estimate", "truth")
    assert sum(timings[f"{part}_seconds"] for part in parts) <= timings["wall_seconds"]


def test_trace_matern_sqrt_is_not_preconditioned(capsys):
    code, out, _ = run_cli(
        ["trace", "--testbed", "matern", "--n1", "16", "--n2", "12",
         "--sample-fraction", "0.2", "--kind", "sqrt", "--n-samples", "4",
         "--delta", "0.5", "--tau", "1e-4", "--site-seed", "5"], capsys)
    assert code == 0
    report = json.loads(out)
    assert "preconditioner" not in report["operator"]
    assert report["interval"][0] == 1e-4


@pytest.mark.parametrize("testbed,kind,source", [
    ("laplacian", "log", {"a": "exact", "b": "exact"}),
    ("matern", "log", {"a": "hint", "b": "ritz"}),
    ("matern", "sqrt", {"a": "hint", "b": "ritz"}),
])
def test_trace_reports_where_the_interval_came_from(testbed, kind, source, capsys):
    code, out, _ = run_cli(
        ["trace", "--testbed", testbed, "--n1", "10", "--n2", "10",
         "--sample-fraction", "0.3", "--kind", kind, "--n-samples", "2",
         "--delta", "1.0", "--tau", "1e-3"], capsys)
    assert code == 0
    assert json.loads(out)["operator"]["interval_source"] == source


@pytest.mark.parametrize("kind", ["log", "sqrt"])
@pytest.mark.parametrize("tau", ["0", "-1e-3", "inf", "nan"])
def test_matern_rejects_a_nonpositive_tau(kind, tau, capsys):
    code, out, err = run_cli(
        ["trace", "--testbed", "matern", "--n1", "10", "--n2", "10",
         "--sample-fraction", "0.3", "--kind", kind, "--n-samples", "2",
         "--delta", "1.0", f"--tau={tau}"], capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and "tau" in err


def test_trace_matern_logdet_covers_dense_truth(capsys):
    # the command-line counterpart of acceptance criterion 8, which calls the
    # library on the unpreconditioned operator
    hits = 0
    for seed in range(20):
        code, out, _ = run_cli(
            ["trace", "--testbed", "matern", "--n1", "40", "--n2", "30",
             "--kind", "log", "--n-samples", "30", "--pilot-n", "10",
             "--seed", str(seed), "--site-seed", str(100 + seed)], capsys)
        assert code == 0
        report = json.loads(out)
        sites = sample_sites(40, 30, 0.1, seed=100 + seed)
        op = build_matern_operator((40, 30), sites, 0.4 * 30, 0.4 * 40, nu=1.5, tau=1e-5)
        hits += abs(report["mean"] - oracles.dense_logdet(op.dense_matrix())) \
            <= report["half_width"]
    assert hits >= 18


def test_calibrate_delta_command(capsys):
    code, out, _ = run_cli(
        ["calibrate-delta", "--n1", "12", "--n2", "12", "--kind", "sqrt",
         "--pilot-n", "6", "--n-samples", "25"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["delta"] > 0
    assert data["pilot_n"] == 6


def test_calibrate_delta_and_trace_agree_on_matern_log(capsys):
    args = ["--testbed", "matern", "--n1", "16", "--n2", "12", "--sample-fraction",
            "0.2", "--kind", "log", "--n-samples", "4", "--pilot-n", "6",
            "--tau", "1e-4", "--site-seed", "5"]
    code, out, _ = run_cli(["calibrate-delta", *args], capsys)
    assert code == 0
    calibrated = json.loads(out)
    code, out, _ = run_cli(["trace", *args], capsys)
    assert code in (0, 2)
    report = json.loads(out)
    assert report["delta"] == calibrated["delta"]
    assert report["operator"] == calibrated["operator"]


LAPLACIAN_20x30 = ["--n1", "20", "--n2", "30", "--kind", "log", "--seed", "3"]


def calibrated_and_given(args, capsys):
    """The reports of a calibrated trace and of a trace given its delta."""
    code, out, _ = run_cli(["trace", *args], capsys)
    assert code == 0
    calibrated = json.loads(out)
    code, out, _ = run_cli(["trace", *args, "--delta", repr(calibrated["delta"])], capsys)
    assert code == 0
    return calibrated, json.loads(out)


@pytest.mark.parametrize("grid,n_samples,pilot_n,reused", [
    ((20, 30), 10, 30, 10), ((20, 30), 30, 30, 30), ((20, 30), 40, 30, 30),
    # 600 unknowns make pilot blocks of 54: only probes 54 .. 57 go on
    ((20, 30), 58, 60, 4),
    # blocks of 9: probes 27 .. 29 go on, and probes 30 .. 39 run fresh after them
    ((60, 60), 40, 30, 3),
    # 36 000 unknowns: one-probe blocks in the basis ring; only probe 2 goes on
    ((200, 180), 4, 3, 1),
], ids=["10-30-10", "30-30-30", "40-30-30", "58-60-4", "60x60-40-30-3", "200x180-4-3-1"])
def test_calibrated_trace_continues_the_pilot_probes(grid, n_samples, pilot_n, reused,
                                                     capsys):
    calibrated, given = calibrated_and_given(
        ["--n1", str(grid[0]), "--n2", str(grid[1]), "--kind", "log", "--seed", "3",
         "--n-samples", str(n_samples), "--pilot-n", str(pilot_n)], capsys)
    assert calibrated["calibration"]["reused_probes"] == reused
    assert calibrated["per_sample"] == given["per_sample"]
    assert calibrated["mean"] == given["mean"]


def test_calibrated_preconditioned_trace_matches_its_given_delta(capsys):
    # the block P^{-1/2} is a matrix product: agreement to roundoff
    calibrated, given = calibrated_and_given(
        ["--testbed", "matern", "--n1", "16", "--n2", "12", "--sample-fraction", "0.2",
         "--kind", "log", "--tau", "1e-4", "--site-seed", "5", "--seed", "2",
         "--n-samples", "8", "--pilot-n", "6"], capsys)
    assert calibrated["calibration"]["reused_probes"] == 6
    for ours, theirs in zip(calibrated["per_sample"], given["per_sample"], strict=True):
        assert ours["steps_run"] == theirs["steps_run"]
        assert ours["retired_step"] == theirs["retired_step"]
        assert abs(ours["value"] - theirs["value"]) <= 1e-12 * abs(theirs["value"])


def test_calibrated_trace_steps_each_pilot_probe_once(monkeypatch, capsys):
    # the pilot block of 6 holds every column for m_pilot steps; its columns
    # then go on to their own last step, and probes 6 .. 9 run fresh (the
    # exact Laplacian interval needs no spectrum probe)
    rows = []
    matvec = Laplacian2D.matvec

    def counting(self, x, out=None):
        rows.append(len(x))
        return matvec(self, x, out)

    monkeypatch.setattr(Laplacian2D, "matvec", counting)
    args = [*LAPLACIAN_20x30, "--n-samples", "10", "--pilot-n", "6"]
    code, _, _ = run_cli(["calibrate-delta", *args], capsys)
    # no estimate goes on with calibrate-delta's pilot, so its columns leave
    # the run as they stop
    assert code == 0 and rows[0] == 6 > rows[-1] and rows == sorted(rows, reverse=True)
    m_pilot = len(rows)
    rows.clear()
    code, out, _ = run_cli(["trace", *args], capsys)
    assert code == 0
    steps = [sample["steps_run"] for sample in json.loads(out)["per_sample"]]
    assert sum(rows) == sum(max(s, m_pilot) for s in steps[:6]) + sum(steps[6:])


def test_calibrate_delta_steps_each_pilot_probe_to_its_own_stop(monkeypatch, capsys):
    # the pilot's rows add up to its probes' own steps, which the calibrated
    # trace reports as pilot_average_steps
    args = [*LAPLACIAN_20x30, "--n-samples", "10", "--pilot-n", "6"]
    code, out, _ = run_cli(["trace", *args], capsys)
    assert code == 0
    average = json.loads(out)["calibration"]["pilot_average_steps"]
    rows = []
    matvec = Laplacian2D.matvec

    def counting(self, x, out=None):
        rows.append(len(x))
        return matvec(self, x, out)

    monkeypatch.setattr(Laplacian2D, "matvec", counting)
    code, _, _ = run_cli(["calibrate-delta", *args], capsys)
    assert code == 0 and sum(rows) == 6 * average == 56


def test_calibrated_trace_reports_its_pilot(capsys):
    args = ["trace", "--n1", "8", "--n2", "8", "--kind", "sqrt", "--n-samples", "5",
            "--pilot-n", "4"]
    code, out, _ = run_cli(args, capsys)
    assert code == 0
    report = json.loads(out)
    assert set(report["calibration"]) == {"pilot_n", "beta", "pilot_delta", "pilot_K",
                                          "pilot_std_err", "pilot_average_steps",
                                          "reused_probes"}
    assert report["calibration"]["pilot_n"] == 4
    assert report["calibration"]["reused_probes"] == 4
    assert 0 < report["timings"]["calibration_seconds"] <= report["timings"]["wall_seconds"]
    code, out, _ = run_cli([*args, "--format", "table"], capsys)
    assert code == 0 and "time calibration (s)" in out
    code, out, _ = run_cli([*args, "--delta", "0.5"], capsys)
    assert code == 0
    report = json.loads(out)
    assert "calibration" not in report
    assert report["timings"]["calibration_seconds"] == 0.0
