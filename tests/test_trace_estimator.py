import dataclasses
import itertools
import math
import time

import numpy as np
import pytest

from slqcert import oracles, rational, trace_estimator
from slqcert.error_estimator import ErrorMonitor
from slqcert.errors import (CalibrationFailedError, ContractViolationError,
                            PivotBreakdownError)
from slqcert.operators import (DenseOperator, Laplacian2D, PreconditionedMatern,
                               build_matern_operator, sample_sites)
from slqcert.rational import RationalApproximant, build, kind_function
from slqcert.trace_estimator import (
    PROBE_BLOCK_ELEMENTS,
    ProbeBlock,
    calibrate_delta,
    confidence_half_width,
    estimate_spectrum_interval,
    estimate_trace,
    estimate_trace_with,
    p_alpha,
    probe_block_size,
    rademacher_vector,
    sample_bilinear,
)

from helpers import ReferenceMonitor, force_reorth_mode, large_diagonal


def test_rademacher_is_pm_one_with_exact_norm():
    u = rademacher_vector(1000, seed=3, index=5)
    assert set(np.unique(u)) <= {-1.0, 1.0}
    assert u @ u == 1000.0


def test_rademacher_deterministic_and_keyed():
    a = rademacher_vector(64, seed=9, index=0)
    b = rademacher_vector(64, seed=9, index=0)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, rademacher_vector(64, seed=9, index=1))
    assert not np.array_equal(a, rademacher_vector(64, seed=10, index=0))
    # frozen draw pins the counter-based stream across platforms
    expected = [-1, -1, 1, 1, -1, -1, -1, -1, 1, 1, -1, -1, 1, 1, -1, -1]
    np.testing.assert_array_equal(rademacher_vector(16, seed=1, index=0)[:16], expected)


@pytest.mark.parametrize("seed,index", [(-1, 0), (2**64, 0), (0, -1), (0, 2**64)])
def test_rademacher_key_outside_64_bits_is_rejected(seed, index):
    with pytest.raises(ContractViolationError, match=r"\[0, 2\^64\)"):
        rademacher_vector(8, seed=seed, index=index)
    # the ends of the range are keys
    rademacher_vector(8, seed=2**64 - 1, index=2**64 - 1)


def test_rademacher_mean_concentrates():
    n = 100_000
    draws = 30
    total = sum(rademacher_vector(n, seed=0, index=i).sum() for i in range(draws))
    assert abs(total / (draws * n)) <= 4 / math.sqrt(draws * n)


def test_p_alpha_reference_points():
    assert p_alpha(3.0) == pytest.approx(0.9973, abs=2e-4)
    assert p_alpha(1.96) == pytest.approx(0.95, abs=1e-3)
    assert p_alpha(1e-8) == pytest.approx(0.0, abs=1e-7)


def test_p_alpha_matches_erf_within_fit_accuracy():
    for alpha in np.linspace(0.05, 6.0, 40):
        assert abs(p_alpha(alpha) - math.erf(alpha / math.sqrt(2))) <= 1.6e-7


def test_p_alpha_rejects_nonpositive():
    with pytest.raises(ContractViolationError):
        p_alpha(0.0)


def test_half_width_reduces_to_clt_term():
    assert confidence_half_width(1.0, 100, 0.0, 3.0) == pytest.approx(0.3)


def test_half_width_direct_formula():
    got = confidence_half_width(2.0, 100, 0.5, 3.0)
    expect = (3.0 / 10.0) * (2.0 + 0.5 * math.sqrt(100 / 99)) + 0.5
    assert got == expect
    assert got == pytest.approx(1.2508, abs=1e-4)


def test_half_width_corollary_bound():
    # delta = beta alpha s / sqrt(N) keeps the width within the planning bound
    s, N, alpha, beta = 1.0, 100, 3.0, 0.1
    delta = beta * alpha * s / math.sqrt(N)
    width = confidence_half_width(s, N, delta, alpha)
    bound = (alpha * s / math.sqrt(N)) * (1 + beta + beta * alpha / math.sqrt(N - 1))
    assert width <= bound + 1e-15
    assert width == pytest.approx(0.33904, abs=5e-5)


def test_half_width_guards():
    with pytest.raises(ContractViolationError):
        confidence_half_width(1.0, 1, 0.0, 3.0)
    with pytest.raises(ContractViolationError):
        confidence_half_width(-1.0, 10, 0.0, 3.0)


def test_half_width_monotonicity_sweep():
    base = confidence_half_width(1.0, 50, 0.2, 3.0)
    for s in (1.1, 1.5, 2.0):
        assert confidence_half_width(s, 50, 0.2, 3.0) >= base
    for d in (0.3, 0.5):
        assert confidence_half_width(1.0, 50, d, 3.0) >= base
    for a in (3.5, 4.0):
        assert confidence_half_width(1.0, 50, 0.2, a) >= base
    for N in (100, 400):
        assert confidence_half_width(1.0, N, 0.2, 3.0) <= base


def test_spectrum_interval_laplacian_top_within_one_percent():
    op = Laplacian2D(90, 120)
    lo, hi = oracles.laplacian_extreme_eigenvalues(90, 120)
    a, b = estimate_spectrum_interval(op, lower_hint=lo)
    assert a == lo
    assert abs(b - hi) / hi <= 0.01


def test_spectrum_interval_identity_like():
    # a is the bound given; b the largest Ritz value inflated by the safety factor
    op = DenseOperator(np.eye(40))
    a, b = estimate_spectrum_interval(op, lower_hint=0.5)
    assert a == 0.5
    assert b == pytest.approx(trace_estimator.SPECTRUM_SAFETY, rel=1e-12)


def test_spectrum_interval_requires_spd():
    op = DenseOperator(np.diag([1.0, -2.0]), spd_hint=False)
    with pytest.raises(ContractViolationError):
        estimate_spectrum_interval(op, lower_hint=1.0)


def constant_approximant(c, interval=(0.5, 2.0)):
    return RationalApproximant("log", interval, np.array([], dtype=complex),
                               np.array([], dtype=complex), float(c), 0, eps=0.0)


def test_sample_bilinear_identity_breakdown():
    n = 12
    op = DenseOperator(np.eye(n))
    f = lambda x: np.exp(-x)
    r = build("exp_neg", 2, (0.0, 2.0))
    u = rademacher_vector(n, seed=2)
    (rec,) = sample_bilinear(op, r, u[None], delta=1e-3)
    assert rec.converged
    assert rec.steps_run == 1 and rec.retired_step == 1
    assert rec.value == pytest.approx(n * f(1.0), rel=1e-12)
    assert rec.error_estimate == 0.0


def test_sample_bilinear_laplacian_retires_early():
    op = Laplacian2D(30, 40)
    interval = oracles.laplacian_extreme_eigenvalues(30, 40)
    f = lambda x: np.exp(-x)
    r = build("exp_neg", 3, (0.0, interval[1]))
    u = rademacher_vector(op.dim, seed=0, index=0)
    (rec,) = sample_bilinear(op, r, u[None], delta=0.5)
    assert rec.converged
    assert rec.retired_step < rec.steps_run <= 12
    # certificate honest against the sine-transform oracle
    truth = oracles.exact_bilinear_laplacian(f, 30, 40, u)
    assert abs(truth - rec.value) <= 3 * max(rec.error_estimate, 0.5)


def test_sample_bilinear_flags_unconverged_at_cap():
    op = Laplacian2D(12, 12)
    interval = oracles.laplacian_extreme_eigenvalues(12, 12)
    r = build("log", 12, interval)
    u = rademacher_vector(op.dim, seed=1)
    (rec,) = sample_bilinear(op, r, u[None], delta=1e-10, m_max=4)
    assert not rec.converged
    assert rec.steps_run == 4
    assert rec.failure == "stopped at m_max = 4 before its monitor converged"


def test_estimate_trace_constant_function():
    # every sample is n log(e^c) = c n: the value is the log the approximant's
    # kind names, on A = e^c I, whatever r itself is
    n = 9
    c = 2.5
    op = DenseOperator(math.exp(c) * np.eye(n))
    r = constant_approximant(c, interval=(1.0, 20.0))
    est = estimate_trace_with(op, r, N=10, delta=0.5, alpha=3.0)
    assert est.mean == pytest.approx(c * n, rel=1e-14)
    assert est.std_err == 0.0
    expect = (3.0 / math.sqrt(10)) * 0.5 * math.sqrt(10 / 9) + 0.5
    assert est.half_width == pytest.approx(expect, rel=1e-14)
    assert est.certified


def test_estimate_trace_deterministic_replay():
    op = Laplacian2D(12, 15)
    interval = oracles.laplacian_extreme_eigenvalues(12, 15)
    one = estimate_trace(op, "exp_neg", N=8, delta=0.5, seed=11, interval=(0.0, interval[1]))
    two = estimate_trace(op, "exp_neg", N=8, delta=0.5, seed=11, interval=(0.0, interval[1]))
    assert one.mean == two.mean
    assert one.std_err == two.std_err
    assert one.half_width == two.half_width
    assert [r.value for r in one.records] == [r.value for r in two.records]
    assert [r.retired_step for r in one.records] == [r.retired_step for r in two.records]


@pytest.mark.parametrize("kind,delta", [("log", 1.0), ("sqrt", 0.3),
                                        ("tanh_sqrt", 0.2), ("exp_neg", 0.2)])
def test_sample_values_lie_within_delta_of_the_exact_bilinear_form(kind, delta):
    # each sample's value, not only the trace, is certified to delta
    n1, n2 = 40, 50
    op = Laplacian2D(n1, n2)
    f = kind_function(kind)
    est = estimate_trace(op, kind, N=40, delta=delta, seed=5,
                         interval=oracles.laplacian_extreme_eigenvalues(n1, n2))
    assert est.certified
    within = 0
    for rec in est.records:
        u = rademacher_vector(op.dim, 5, rec.index)
        within += abs(oracles.exact_bilinear_laplacian(f, n1, n2, u) - rec.value) <= delta
    assert within >= 0.95 * len(est.records), f"{within}/40 samples within delta"


def test_estimate_trace_covers_truth_small_grid():
    op = Laplacian2D(20, 25)
    interval = oracles.laplacian_extreme_eigenvalues(20, 25)
    est = estimate_trace(op, "sqrt", N=50, delta=1.0, seed=5, interval=interval)
    truth = oracles.exact_trace_laplacian(np.sqrt, 20, 25)
    assert abs(est.mean - truth) <= est.half_width
    assert est.half_width == confidence_half_width(est.std_err, 50, 1.0, 3.0)


def test_estimate_trace_requires_two_samples():
    with pytest.raises(ContractViolationError):
        estimate_trace(Laplacian2D(4, 4), "sqrt", N=1, delta=0.1,
                       interval=(0.1, 8.0))


@pytest.mark.parametrize("delta", [0.0, -1.0, math.nan])
def test_estimate_trace_rejects_a_nonpositive_delta(delta):
    # named by delta, before the interval, the K rule or any probe runs
    op = Laplacian2D(4, 4)
    with pytest.raises(ContractViolationError, match="delta must be positive"):
        estimate_trace(op, "log", N=2, delta=delta, interval=(0.1, 8.0))
    with pytest.raises(ContractViolationError, match="delta must be positive"):
        estimate_trace_with(op, build("log", 4, (0.1, 8.0)), N=2, delta=delta)


def test_infinite_delta_alpha_and_beta_are_rejected(monkeypatch):
    # each used to give a certified run with an infinite half-width
    def no_probe(*_args, **_kwargs):
        raise AssertionError("a probe ran")

    monkeypatch.setattr(trace_estimator, "ProbeBlock", no_probe)
    op = Laplacian2D(4, 4)
    interval = (0.1, 8.0)
    with pytest.raises(ContractViolationError, match="delta must be positive and finite"):
        estimate_trace(op, "log", N=2, delta=math.inf, interval=interval)
    with pytest.raises(ContractViolationError, match="alpha must be positive and finite"):
        estimate_trace(op, "log", N=2, delta=1.0, interval=interval, alpha=math.inf)
    with pytest.raises(ContractViolationError, match="beta must be positive and finite"):
        calibrate_delta(op, "log", interval, beta=math.inf)


def test_alpha_and_beta_are_checked_before_any_probe(monkeypatch):
    def no_probe(*_args, **_kwargs):
        raise AssertionError("a probe ran")

    monkeypatch.setattr(trace_estimator, "ProbeBlock", no_probe)
    op = Laplacian2D(4, 4)
    interval = (0.1, 8.0)
    with pytest.raises(ContractViolationError, match="alpha must be positive"):
        estimate_trace(op, "log", N=2, delta=1.0, interval=interval, alpha=0.0)
    with pytest.raises(ContractViolationError, match="alpha must be positive"):
        estimate_trace_with(op, build("log", 4, interval), N=2, delta=1.0,
                            alpha=-1.0)
    with pytest.raises(ContractViolationError, match="alpha must be positive"):
        calibrate_delta(op, "log", interval, alpha=0.0)
    with pytest.raises(ContractViolationError, match="beta must be positive"):
        calibrate_delta(op, "log", interval, beta=-1.0)


@pytest.mark.parametrize("production_n", [0, -3, 1])
def test_calibrate_delta_rejects_an_n_no_estimate_takes(monkeypatch, production_n):
    # 0 gave inf, -3 NaN, and 1 a delta for an N that estimate_trace refuses
    def no_probe(*_args, **_kwargs):
        raise AssertionError("a probe ran")

    monkeypatch.setattr(trace_estimator, "ProbeBlock", no_probe)
    with pytest.raises(ContractViolationError, match="N >= 2"):
        calibrate_delta(Laplacian2D(4, 4), "log", (0.1, 8.0), production_n=production_n)


def test_an_approximant_over_the_budget_leaves_the_run_uncertified():
    # log at K = 1 misses delta / (2 n) by four orders of magnitude: each
    # sample's bias is then no longer bounded by delta, however well its
    # monitor converged
    op = Laplacian2D(30, 30)
    interval = oracles.laplacian_extreme_eigenvalues(30, 30)
    target = trace_estimator.rational_target(1.0, op.dim)
    coarse = build("log", 1, interval)
    assert coarse.eps > 1e3 * target
    est = estimate_trace_with(op, coarse, N=10, delta=1.0, seed=101)
    assert all(rec.converged and rec.failure is None for rec in est.records)
    assert not est.certified
    report = est.to_json_dict()
    assert (report["K"], report["rational_eps"]) == (1, coarse.eps)
    chosen = rational.choose_K("log", interval, target)
    assert estimate_trace_with(op, chosen, N=10, delta=1.0, seed=101).certified
    # an approximant of unknown error does not certify either
    unknown = dataclasses.replace(chosen, eps=math.nan)
    assert not estimate_trace_with(op, unknown, N=10, delta=1.0, seed=101).certified


def test_estimate_trace_uncertified_on_cap():
    op = Laplacian2D(10, 10)
    interval = oracles.laplacian_extreme_eigenvalues(10, 10)
    est = estimate_trace(op, "log", N=3, delta=1e-8, seed=0,
                         interval=interval, m_max=3)
    assert not est.certified
    assert est.half_width > 0  # interval still reported


def test_mean_and_std_recomputable_from_records():
    op = Laplacian2D(9, 9)
    interval = oracles.laplacian_extreme_eigenvalues(9, 9)
    est = estimate_trace(op, "tanh_sqrt", N=12, delta=0.5, seed=3, interval=interval)
    values = np.array([r.value for r in est.records])
    assert est.mean == pytest.approx(values.mean(), rel=1e-14)
    assert est.std_err == pytest.approx(values.std(ddof=1), rel=1e-14)
    recomputed = confidence_half_width(est.std_err, est.N, est.delta, est.alpha)
    assert recomputed == est.half_width


def test_rademacher_quadratic_form_unbiased():
    rng = np.random.default_rng(0)
    M = rng.standard_normal((8, 8))
    M = M + M.T
    samples = 100_000
    U = 2.0 * rng.integers(0, 2, size=(samples, 8)) - 1.0
    quad = np.einsum("ij,jk,ik->i", U, M, U)
    se = quad.std(ddof=1) / math.sqrt(samples)
    assert abs(quad.mean() - np.trace(M)) <= 4 * se


def test_calibrate_delta_constant_degenerate():
    n = 6
    op = DenseOperator(np.eye(n))
    with pytest.raises(CalibrationFailedError):
        # f constant over the spectrum: zero sample spread
        calibrate_delta(op, "log", n_pilot=5, interval=(0.5, 2.0))


def test_calibrate_delta_positive_on_laplacian():
    op = Laplacian2D(15, 18)
    interval = oracles.laplacian_extreme_eigenvalues(15, 18)
    delta = calibrate_delta(op, "sqrt", n_pilot=8, production_n=50,
                            interval=interval, seed=4)
    assert delta > 0


def _spectrum_operator(lam, seed=0):
    Q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((len(lam), len(lam))))
    return DenseOperator((Q * lam) @ Q.T)


@pytest.mark.parametrize("top", [55.0, 100.0, 200.0])
def test_calibrated_exp_neg_on_a_wide_interval_is_certified(top):
    # exp(-mid) underflows the pilot tolerance while tr exp(-A) is of order
    # n: the pilot scale is f(a), and the run certifies a covering interval
    lam = np.geomspace(1e-5, top, 60)
    op = _spectrum_operator(lam)
    est = estimate_trace(op, "exp_neg", N=20, delta=None, interval=(1e-5, top), seed=1,
                         n_pilot=10)
    assert est.calibration["pilot_delta"] == 1e-2 * 60 * np.exp(-1e-5)
    assert est.certified
    assert abs(est.mean - np.exp(-lam).sum()) <= est.half_width


@pytest.mark.parametrize("kind", ["log", "sqrt", "tanh_sqrt"])
def test_increasing_kinds_keep_the_midpoint_pilot_scale(kind):
    # f(a) <= f(mid) for an increasing f, so the signed f(a) never sets the
    # scale, even where log(mid) < 0 and |log(a)| > |log(mid)|
    interval = (0.01, 1.5)
    op = _spectrum_operator(np.geomspace(*interval, 40))
    est = estimate_trace(op, kind, N=10, delta=None, interval=interval, seed=2, n_pilot=10)
    mid = 0.5 * (interval[0] + interval[1])
    assert est.calibration["pilot_delta"] == 1e-2 * 40 * abs(float(kind_function(kind)(mid)))


def _paired_operator(k, c=5.5, lam=None):
    # on (x + y) / sqrt 2 of each coordinate pair the operator is diag(lam), on
    # (x - y) / sqrt 2 it is c: a Rademacher probe sees the lam of the pairs
    # with x = y only, so its Lanczos run breaks down after a probe-dependent
    # count of steps unless the monitor stops it first
    lam = np.linspace(1.0, 10.0, k) if lam is None else lam
    block = np.zeros((2 * k, 2 * k))
    for i, mean, half in zip(range(0, 2 * k, 2), (lam + c) / 2, (lam - c) / 2):
        block[i, i] = block[i + 1, i + 1] = mean
        block[i, i + 1] = block[i + 1, i] = half
    return DenseOperator(block)


@pytest.mark.parametrize("mode", ["partial", "full"])
def test_shared_basis_buffer_replays_fresh_runs(monkeypatch, mode):
    force_reorth_mode(monkeypatch, mode)
    op = _paired_operator(30)
    r = build("log", 8, (1.0, 10.0))
    est = estimate_trace_with(op, r, N=8, delta=1e-9, seed=2)
    steps = [rec.steps_run for rec in est.records]
    # a probe shorter than the one before it, a later probe that outgrows the
    # buffer's first 16 rows, and a breakdown probe
    assert any(b < a for a, b in zip(steps, steps[1:]))
    assert steps[0] < 16 <= max(steps)
    assert any(rec.error_estimate == 0.0 and rec.retired_step == rec.steps_run
               for rec in est.records)
    for i, rec in enumerate(est.records):
        u = rademacher_vector(op.dim, 2, index=i)
        (fresh,) = sample_bilinear(op, r, u[None], 1e-9, index=i, seed=2)
        assert fresh == rec


def _count_laplacian_rows(monkeypatch) -> list:
    """The row count of each Laplacian2D apply from here on."""
    rows = []
    matvec = Laplacian2D.matvec

    def counting(self, x, out=None):
        rows.append(len(x))
        return matvec(self, x, out)

    monkeypatch.setattr(Laplacian2D, "matvec", counting)
    return rows


def test_follow_feeds_each_monitor_the_beta_above_each_alpha():
    # the one feed convention: step m gives a monitor (alpha_m, beta_m), with
    # beta_m the off-diagonal above alpha_m (0 at m = 1), read from the run's
    # stored Jacobi matrix
    op = Laplacian2D(6, 7)
    u = np.random.default_rng(3).standard_normal((2, 42))
    r = build("log", 8, oracles.laplacian_extreme_eigenvalues(6, 7))
    block = ProbeBlock(op, u, m_max=12)
    by_hand = [ReferenceMonitor(r, tol=0.0) for _ in u]
    for count, (monitor, _) in enumerate(block.follow(r, 0.0), 1):
        assert monitor.m == count
        for j, hand in enumerate(by_hand):
            T = block.state.tridiagonal(column=j)
            hand.advance(float(T.alphas[count - 1]),
                         float(T.betas[count - 2]) if count > 1 else 0.0)
            assert monitor.history[j].tolist() == hand.history
            np.testing.assert_array_equal(monitor.eta[j], hand.eta)
    assert count == 12


def test_follow_yields_once_per_catch_up(monkeypatch):
    op = Laplacian2D(20, 30)
    r = build("log", 12, oracles.laplacian_extreme_eigenvalues(20, 30))
    u = np.array([rademacher_vector(op.dim, 7, index=i) for i in range(3)])
    rows = _count_laplacian_rows(monkeypatch)
    # a fresh block yields once per step; without hold a column leaves the
    # run when it ends
    block = ProbeBlock(op, u)
    running = 3
    for count, (monitor, ends) in enumerate(block.follow(r, 1e-2), 1):
        assert len(rows) == count == block.state.m and rows[-1] == running
        running = ends.count(None)
    assert running == 0 and len({end[0] for end in ends}) > 1
    # a held watch keeps every column to its last end; a second follow of the
    # first two columns yields its catch-up first, with no row applied, and
    # the third column leaves the run at once
    rows.clear()
    block = ProbeBlock(op, u)
    block.watch(r, 1e-2, hold=True)
    m = block.state.m
    assert rows == [3] * m
    follow = block.follow(r, 1e-6, count=2)
    monitor, ends = next(follow)
    assert len(rows) == m and block.state.m == m
    assert monitor.m == max(m if end is None else end[0] for end in ends)
    assert not block.state.active[2]
    running = ends.count(None)
    for monitor, ends in follow:
        m += 1
        assert len(rows) == m == block.state.m and rows[-1] == running
        running = ends.count(None)
    assert running == 0


@pytest.mark.parametrize("delta1, delta2", [(1e-2, 1e-6), (1e-6, 1e-2)])
def test_probe_block_goes_on_under_a_second_watch(monkeypatch, delta1, delta2):
    # a held watch of 4 columns at delta1, then a watch of the first 3 at
    # delta2: below delta1 the run steps on without the fourth column; above
    # it every column ends within the stored steps and no row is applied
    op = Laplacian2D(20, 30)
    r = build("log", 12, oracles.laplacian_extreme_eigenvalues(20, 30))
    u = np.array([rademacher_vector(op.dim, 7, index=i) for i in range(4)])
    rows = _count_laplacian_rows(monkeypatch)
    block = ProbeBlock(op, u, index=0, seed=7)
    block.watch(r, delta1, hold=True)
    held = len(rows)
    records = block.watch(r, delta2, count=3)
    later = rows[held:]
    if delta2 < delta1:
        assert later and max(later) <= 3
    else:
        assert sum(later) == 0
    assert len(records) == 3
    for j, rec in enumerate(records):
        (alone,) = sample_bilinear(op, r, u[j:j + 1], delta2, index=j, seed=7)
        assert rec == alone


def test_calibration_holds_only_the_block_the_estimate_goes_on_with(monkeypatch):
    # 60x60: blocks of 9, so pilot probes 0 .. 26 run in three blocks that
    # retire each column at its own pilot stop, and the last block (27 .. 29)
    # holds its columns until all have stopped, then goes on into the estimate
    op = Laplacian2D(60, 60)
    interval = oracles.laplacian_extreme_eigenvalues(60, 60)
    assert probe_block_size(30, op.dim) == 9
    rows = _count_laplacian_rows(monkeypatch)
    est = estimate_trace(op, "log", N=30, delta=None, interval=interval, seed=5, n_pilot=30)
    applied = sum(rows)
    r = build("log", est.calibration["pilot_K"], interval)
    pilot = [sample_bilinear(op, r, rademacher_vector(op.dim, 5, index=i)[None],
                             est.calibration["pilot_delta"])[0].steps_run
             for i in range(30)]
    steps = [rec.steps_run for rec in est.records]
    held = max(pilot[27:])
    assert len(set(pilot[:27])) > 1
    assert applied == (sum(pilot[:27]) + sum(steps[:27])
                       + sum(max(s, held) for s in steps[27:]))


def test_a_pilot_block_past_the_estimate_is_not_handed_over(monkeypatch):
    # 60x60 with N = 4 and 30 pilot probes: blocks of 9, and the last pilot
    # block (27 .. 29) holds no probe of the estimate, so the estimate walks
    # probes 0 .. 3 afresh and watches no finished pilot run
    op = Laplacian2D(60, 60)
    interval = oracles.laplacian_extreme_eigenvalues(60, 60)
    assert probe_block_size(30, op.dim) == 9
    counts = []
    watch = ProbeBlock.watch

    def recording(self, r, delta, count=None, hold=False):
        counts.append(count)
        return watch(self, r, delta, count, hold)

    monkeypatch.setattr(ProbeBlock, "watch", recording)
    est = estimate_trace(op, "log", N=4, delta=None, interval=interval, seed=5, n_pilot=30)
    assert 0 not in counts
    assert est.calibration["reused_probes"] == 0
    given = estimate_trace(op, "log", N=4, delta=est.delta, interval=interval, seed=5)
    assert est.records == given.records
    assert (est.mean, est.half_width) == (given.mean, given.half_width)


def test_a_calibrated_run_steps_every_block_in_one_buffer(monkeypatch):
    # 60x60 with N = 40 and 30 pilot probes: blocks of 9; the last pilot
    # block (27 .. 29) goes on into the estimate, whose fresh blocks skip it,
    # and the estimate's blocks step in the pilot's buffer
    op = Laplacian2D(60, 60)
    interval = oracles.laplacian_extreme_eigenvalues(60, 60)
    blocks = []                  # (index, probes, buffer) of each ProbeBlock made
    init = ProbeBlock.__init__

    def recording(self, op, u, m_max=trace_estimator.DEFAULT_M_MAX, buffer=None, index=0,
                  seed=0):
        blocks.append((index, len(u), buffer))
        init(self, op, u, m_max, buffer, index, seed)

    monkeypatch.setattr(ProbeBlock, "__init__", recording)
    estimate_trace(op, "log", N=40, delta=None, interval=interval, seed=5, n_pilot=30)
    assert [block[:2] for block in blocks] == [
        (0, 9), (9, 9), (18, 9), (27, 3),                   # the pilot
        (0, 9), (9, 9), (18, 9), (30, 6), (36, 4)]          # the estimate
    buffer = blocks[0][2]
    assert buffer is not None and all(block[2] is buffer for block in blocks)
    # with N = 4 no pilot block goes on, and the estimate steps its one
    # block of 4 in a buffer of its own
    blocks.clear()
    estimate_trace(op, "log", N=4, delta=None, interval=interval, seed=5, n_pilot=30)
    pilot, (estimate,) = blocks[:4], blocks[4:]
    assert all(block[2] is pilot[0][2] for block in pilot)
    assert estimate[:2] == (0, 4) and estimate[2] is not pilot[0][2]
    assert estimate[2].width == 4


def test_the_estimates_monitor_time_leaves_out_the_pilots(monkeypatch):
    # a clock that ticks once per call makes each catch-up of a follow one
    # second: the held pilot block of probes 0 .. 5 catches up once on its
    # m_pilot stored steps and then once per step it takes, and the fresh
    # block of probes 6 .. 9 once per step; the pilot's own catch-ups stay out
    op = Laplacian2D(20, 30)
    interval = oracles.laplacian_extreme_eigenvalues(20, 30)
    rows = _count_laplacian_rows(monkeypatch)
    calibrate_delta(op, "log", interval, n_pilot=6, production_n=10, seed=3)
    assert rows[0] == 6      # one block of the six pilot probes, stepped m_pilot times
    m_pilot = len(rows)
    clock = itertools.count()
    monkeypatch.setattr(trace_estimator.time, "perf_counter", lambda: float(next(clock)))
    est = estimate_trace(op, "log", N=10, delta=None, interval=interval, seed=3, n_pilot=6)
    steps = [rec.steps_run for rec in est.records]
    assert est.time_error_estimate == 1 + max(0, max(steps[:6]) - m_pilot) + max(steps[6:])


def test_a_watch_reads_its_monitors_history_once(monkeypatch):
    # the records take each column's increments and sign flips from one
    # read of each monitor property, not one per column
    reads = []
    history = ErrorMonitor.history

    def counted(monitor):
        reads.append(monitor)
        return history.fget(monitor)

    op = Laplacian2D(20, 30)
    r = build("log", 12, oracles.laplacian_extreme_eigenvalues(20, 30))
    u = np.array([rademacher_vector(op.dim, 7, index=i) for i in range(4)])
    block = ProbeBlock(op, u, index=0, seed=7)
    monkeypatch.setattr(ErrorMonitor, "history", property(counted))
    records = block.watch(r, 1e-2)
    assert len(records) == 4 and 1 <= len(reads) <= 2
    for j, rec in enumerate(records):
        (alone,) = sample_bilinear(op, r, u[j:j + 1], 1e-2, index=j, seed=7)
        assert rec == alone and type(rec.sign_flips) is int


def test_probe_block_size_rule():
    # the three benchmark operators: 1080 Matern sites, the 90x120 and the
    # 300x400 Laplacian
    assert probe_block_size(30, 1080) == 30
    assert probe_block_size(100, 90 * 120) == 3
    assert probe_block_size(30, 300 * 400) == 1
    assert probe_block_size(5, 64) == 5
    assert probe_block_size(10**6, PROBE_BLOCK_ELEMENTS) == 1
    assert probe_block_size(10**6, PROBE_BLOCK_ELEMENTS // 2) == 2


def test_block_size_reported_on_both_sides_of_the_rule():
    small = estimate_trace(Laplacian2D(8, 9), "exp_neg", N=5, delta=0.5,
                           interval=(0.0, 8.0))
    assert small.block_size == 5 and small.to_json_dict()["block_size"] == 5
    big = Laplacian2D(200, 200)
    assert big.dim > PROBE_BLOCK_ELEMENTS
    large = estimate_trace(big, "exp_neg", N=2, delta=50.0, interval=(0.0, 8.0))
    assert large.block_size == 1 and large.to_json_dict()["block_size"] == 1


def test_samples_count_the_applies_that_replayed_a_basis():
    # a one-probe run above PROBE_BLOCK_ELEMENTS stores its basis only when
    # reorthogonalization reads it: never on this Laplacian run, after 8
    # steps on the diagonal operator, whose record counts the replay
    lap = Laplacian2D(200, 200)
    r = build("log", 8, oracles.laplacian_extreme_eigenvalues(200, 200))
    (rec,) = sample_bilinear(lap, r, rademacher_vector(lap.dim, 3)[None], 30.0)
    assert rec.reorth_passes == 0 and rec.replayed_steps == 0
    diag = large_diagonal()
    r = build("log", 8, (1.0, 12.0))
    (rec,) = sample_bilinear(diag, r, rademacher_vector(diag.dim, 3)[None], 1e-6)
    assert rec.converged and rec.reorth_passes > 0 and rec.replayed_steps > 0


def test_probe_draws_count_as_approximation_time(monkeypatch):
    draw = trace_estimator.rademacher_vector

    def slow_draw(*args, **kwargs):
        time.sleep(0.01)
        return draw(*args, **kwargs)

    monkeypatch.setattr(trace_estimator, "rademacher_vector", slow_draw)
    op = Laplacian2D(8, 9)
    N = 6
    est = estimate_trace_with(op, build("exp_neg", 4, (0.0, 8.0)), N, 0.5)
    assert est.time_approx >= N * 0.01


@pytest.mark.parametrize("delta", [0.5, None])
def test_time_after_the_probes_counts_as_approximation(monkeypatch, delta):
    # the statistics run after the last block, in the pilot and in the
    # estimate; the three timings fill the span of the call
    statistics = trace_estimator._statistics

    def slow_statistics(records):
        time.sleep(0.05)
        return statistics(records)

    monkeypatch.setattr(trace_estimator, "_statistics", slow_statistics)
    tic = time.perf_counter()
    est = estimate_trace(Laplacian2D(8, 9), "exp_neg", N=4, delta=delta,
                         interval=(0.0, 8.0), n_pilot=4)
    span = time.perf_counter() - tic
    assert est.time_approx >= 0.05
    assert (est.time_calibration >= 0.05) if delta is None else (est.time_calibration == 0.0)
    assert est.time_calibration + est.time_approx + est.time_error_estimate <= span


def test_preconditioned_block_matches_per_probe_runs():
    # the block P^{-1/2} is a matrix product, so the block run agrees with
    # the per-probe runs to roundoff rather than bit for bit; the gap grows
    # with the condition of B, here about 2e3
    sites = sample_sites(20, 15, 0.3, seed=2)
    op = PreconditionedMatern(build_matern_operator((20, 15), sites, 6.0, 8.0,
                                                    tau=1e-4))
    a, b = estimate_spectrum_interval(op, lower_hint=1.0, seed=3)
    r = build("log", 8, (a, b))
    est = estimate_trace_with(op, r, N=6, delta=1e-6, seed=3)
    assert est.block_size == 6
    for i, rec in enumerate(est.records):
        u = rademacher_vector(op.dim, 3, index=i)
        (fresh,) = sample_bilinear(op, r, u[None], 1e-6, index=i, seed=3)
        assert fresh.steps_run == rec.steps_run
        assert fresh.retired_step == rec.retired_step
        assert abs(fresh.value - rec.value) <= 1e-12 * abs(fresh.value)


def test_a_failing_probe_retires_alone(monkeypatch):
    # the block's monitor records a pivot failure of probe 3 on its third
    # step: that probe retires unconverged with the error, and the other
    # seven finish as without it
    op = _paired_operator(30)
    r = build("log", 8, (1.0, 10.0))
    clean = estimate_trace_with(op, r, N=8, delta=1e-9, seed=2)

    class FlakyMonitor(ErrorMonitor):
        def advance(self, alpha, beta):
            d = super().advance(alpha, beta)
            if self.m == 3:
                self._failures[3] = PivotBreakdownError("pivot underflow at step 3",
                                                       pole=0j, column=3)
            return d

    monkeypatch.setattr(trace_estimator, "ErrorMonitor", FlakyMonitor)
    est = estimate_trace_with(op, r, N=8, delta=1e-9, seed=2)
    failed = est.records[3]
    assert failed.failure == "PivotBreakdownError: pivot underflow at step 3"
    assert not failed.converged and failed.steps_run == 3 and math.isnan(failed.value)
    assert not est.certified
    for i in (0, 1, 2, 4, 5, 6, 7):
        assert est.records[i] == clean.records[i]
    values = [rec.value for i, rec in enumerate(clean.records) if i != 3]
    assert est.mean == pytest.approx(np.mean(values), rel=1e-14)
    assert est.half_width == confidence_half_width(est.std_err, 7, 1e-9, 3.0)
    report = est.to_json_dict()
    assert report["per_sample"][3]["failure"] == failed.failure
    assert "failure" not in report["per_sample"][0]


def test_a_pivot_breakdown_fails_its_probe():
    # Lanczos from e1 on this Jacobi matrix takes its entries as they stand,
    # and the one real pole 0 meets u_3 = alpha_3 - beta_3^2 / u_2 = 1 - 1 = 0:
    # the record fails at step 3, and its estimate is the last increment
    # before that step, d_1 = 1, not the 0 the failed step adds
    T = np.diag([1.0, 2.0, 1.0, 3.0]) + np.diag([1.0, 1.0, 0.5], 1) + np.diag([1.0, 1.0, 0.5], -1)
    r = RationalApproximant("log", (0.5, 4.0), np.array([0.0j]), np.array([1.0 + 0j]), 0.0, 1)
    (rec,) = sample_bilinear(DenseOperator(T), r, np.eye(4)[:1], 1e-8)
    assert rec.failure == "PivotBreakdownError: pivot underflow at step 3 for pole 0j"
    assert (rec.steps_run, rec.retired_step, rec.error_estimate) == (3, 3, 1.0)
    assert not rec.converged and math.isnan(rec.value)


def test_quadrature_failure_is_flagged_per_probe():
    # an eigenvalue -1 that only the probes equal on the first coordinate
    # pair see: log is undefined at their Ritz value near -1
    lam = np.linspace(1.0, 10.0, 6)
    lam[0] = -1.0
    op = _paired_operator(6, lam=lam)
    r = build("log", 8, (1.0, 10.0))
    est = estimate_trace_with(op, r, N=8, delta=1e-6, seed=2)
    failed = [rec for rec in est.records if rec.failure is not None]
    sees_negative = [rademacher_vector(op.dim, 2, i)[0] == rademacher_vector(op.dim, 2, i)[1]
                     for i in range(8)]
    assert [rec.failure is not None for rec in est.records] == sees_negative
    assert 0 < len(failed) < 8
    assert all(rec.failure.startswith("QuadratureDomainError: f undefined")
               and not rec.converged and math.isnan(rec.value) for rec in failed)
    assert not est.certified and math.isfinite(est.mean)


def test_ritz_values_outside_the_interval_flag_their_sample():
    # r built on [a, lambda_max / 2]: the Ritz values of every probe soon pass
    # b, so its quadrature rests on r where r was never fitted
    op = Laplacian2D(20, 30)
    a, top = oracles.laplacian_extreme_eigenvalues(20, 30)
    r = build("log", 8, (a, top / 2))
    est = estimate_trace_with(op, r, N=4, delta=1.0, seed=1)
    assert not est.certified
    flagged = [rec for rec in est.records if rec.theta_max > top / 2]
    assert flagged
    for rec in est.records:
        assert (rec.failure is not None) == (rec in flagged)
    for rec in flagged:
        assert rec.converged and math.isfinite(rec.value)
        assert rec.failure.startswith("Ritz values [") and "leave the interval" in rec.failure
        assert est.to_json_dict()["per_sample"][rec.index]["failure"] == rec.failure
    # the flagged values stay in the estimate
    assert est.mean == pytest.approx(np.mean([rec.value for rec in est.records]), rel=1e-14)
    inside = estimate_trace_with(op, build("log", 8, (a, top)), N=4, delta=1.0,
                                 seed=1)
    assert inside.certified
    assert all(a <= rec.theta_min and rec.theta_max <= top for rec in inside.records)
