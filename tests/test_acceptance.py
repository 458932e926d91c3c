"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; the whole module takes a few minutes (criterion 5 dominates).
"""

import numpy as np
import pytest

from slqcert import oracles
from slqcert.error_estimator import ErrorMonitor
from slqcert.lanczos import LanczosState, lanczos_step, quadrature_value, tridiag_eigen
from slqcert.operators import (
    DenseOperator,
    Laplacian2D,
    build_matern_operator,
    sample_sites,
)
from slqcert.rational import build, choose_K, evaluate, kind_function
from slqcert.trace_estimator import (
    calibrate_delta,
    estimate_spectrum_interval,
    estimate_trace,
    rademacher_vector,
)

from helpers import random_spd

GRID_90 = (90, 120)
INTERVAL_90 = oracles.laplacian_extreme_eigenvalues(*GRID_90)

# Lanczos tolerances as printed in the reference tables (90x120 column)
TABLE_DELTAS_90 = {"exp_neg": 8.31, "sqrt": 25.1, "log": 38.0, "tanh_sqrt": 5.73}
TABLE_HALF_WIDTHS_90 = {"exp_neg": 19.14, "sqrt": 57.7, "log": 87.5,
                        "tanh_sqrt": 13.13}


def _interval(kind, iv):
    # exp(-x) approximants are valid from 0; the others need a positive floor
    return (0.0, iv[1]) if kind == "exp_neg" else iv


def report(num, name, ok, detail=""):
    print(f"\n[criterion {num}] {'PASS' if ok else 'FAIL'}  {name}: {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


def test_criterion_1_exact_trace_reproduction():
    cases = [
        (lambda x: np.exp(-x), 90, 120, 1014.96),
        (np.sqrt, 90, 120, 20708.0),
        (np.log, 90, 120, 12652.9),
        (lambda x: np.tanh(np.sqrt(x)), 90, 120, 9928.62),
        (np.log, 300, 400, 140146.0),
    ]
    results = []
    for f, n1, n2, printed in cases:
        value = oracles.exact_trace_laplacian(f, n1, n2)
        rounded = float(f"{value:.6g}")
        results.append((rounded, printed, rounded == printed))
    detail = "; ".join(f"{r:.6g} vs {p:.6g}" for r, p, _ in results)
    report(1, "exact-trace reproduction", all(ok for _, _, ok in results), detail)


def test_criterion_2_recurrence_matches_eigen_route():
    op = Laplacian2D(300, 400)
    iv = oracles.laplacian_extreme_eigenvalues(300, 400)
    worst = {}
    for kind in ("exp_neg", "sqrt", "log", "tanh_sqrt"):
        interval = _interval(kind, iv)
        r = choose_K(kind, interval, TABLE_DELTAS_90[kind] / (2.0 * op.dim))
        u = rademacher_vector(op.dim, seed=7, index=0)
        state = LanczosState(op, u[None], m_max=60)
        monitor = ErrorMonitor(r, tol=0.0, t=0.1)
        quad = []
        prev_beta = 0.0
        for m in range(1, 51):
            (alpha,), (beta_next,) = lanczos_step(state)
            monitor.advance(alpha, prev_beta)
            eig = tridiag_eigen(state.tridiagonal())
            quad.append(float(np.sum(eig.first_row**2 * evaluate(r, eig.thetas))))
            prev_beta = beta_next
        direct = np.diff(quad)
        scale = max(1.0, np.max(np.abs(quad)))
        worst[kind] = float(np.max(np.abs(np.array(monitor.history) - direct))) / scale
    ok = all(w <= 1e-12 for w in worst.values())
    detail = ", ".join(f"{k}: {w:.2e}" for k, w in worst.items())
    report(2, "pole recurrence vs eigendecomposition over 50 steps", ok, detail)


def test_criterion_3_rational_window_bound():
    worst_ratio = 0.0
    for seed in (0, 1, 2):
        rng = np.random.default_rng(seed)
        A = random_spd(30, rng, shift=0.5)
        lam = np.linalg.eigvalsh(A)
        op = DenseOperator(A)
        for kind in ("exp_neg", "sqrt", "log", "tanh_sqrt"):
            interval = (0.0, lam[-1]) if kind == "exp_neg" else (lam[0], lam[-1])
            r = build(kind, 8, interval)
            f = kind_function(kind)
            u = rng.standard_normal(30)
            state = LanczosState(op, u[None], m_max=30)
            monitor = ErrorMonitor(r, tol=0.0, t=0.1)
            quad_f = []
            prev_beta = 0.0
            steps = 25
            for m in range(1, steps + 1):
                (alpha,), (beta_next,) = lanczos_step(state)
                monitor.advance(alpha, prev_beta)
                quad_f.append(quadrature_value(state.tridiagonal(), f))
                if state.breakdown[0]:
                    steps = m
                    break
                prev_beta = beta_next
            prefix = np.concatenate([[0.0], np.cumsum(monitor.history)])
            for m in range(1, steps):
                for mp in range(m + 1, steps + 1):
                    d_true = quad_f[mp - 1] - quad_f[m - 1]
                    d_rat = prefix[mp - 1] - prefix[m - 1]
                    worst_ratio = max(worst_ratio, abs(d_true - d_rat) / (2 * r.eps))
    report(3, "window error bounded by twice the uniform error",
           worst_ratio <= 1.0, f"max |d - d^K| / (2 eps) = {worst_ratio:.3f}")


def _tail_window_ratio(seq, m, mp):
    # 1-based m < mp; seq[0] is a_m
    window = float(np.sum(seq[: mp - m]))
    tail = float(np.sum(seq[mp - m:]))
    return tail / window


def test_criterion_4_sequence_lemmas():
    rng = np.random.default_rng(2024)
    checked = {"geom": 0, "ratio": 0, "power": 0}

    # Proposition-style geometric sequences
    while checked["geom"] < 1000:
        c = rng.uniform(0.02, 0.95)
        m = rng.integers(1, 30)
        gap = rng.integers(1, 40)
        mp = m + gap
        n = mp + rng.integers(1, 80)
        t = c**gap
        if not t < 1:
            continue
        i = np.arange(m, n)
        seq = c ** (i - m)  # scale-free
        ratio = _tail_window_ratio(seq, m, mp)
        bound = t / (1 - t) if (n - mp) > gap else t
        assert ratio <= bound * (1 + 1e-12), (c, m, mp, n)
        checked["geom"] += 1

    # equality edge case: a_i = 2^-i, infinite tail, t = 1/8
    m, mp = 3, 6
    window = sum(2.0**-i for i in range(m, mp))
    tail = 2.0 ** -(mp - 1)  # sum_{i >= mp} 2^-i
    t = 2.0 ** -(mp - m)
    assert tail / window == t / (1 - t) == 1 / 7

    # nonincreasing sequences with nonincreasing ratios
    while checked["ratio"] < 1000:
        length = int(rng.integers(6, 60))
        ratios = np.sort(rng.uniform(0.05, 1.0, length - 1))[::-1]
        seq_full = np.concatenate([[1.0], np.cumprod(ratios)])
        m = int(rng.integers(1, length - 2))
        mp = int(rng.integers(m + 1, length))
        t = seq_full[mp - 1] / seq_full[m - 1]
        if not t < 1:
            continue
        ratio = _tail_window_ratio(seq_full[m - 1:], m, mp)
        n = len(seq_full) + 1  # the sequence is a_1 .. a_{n-1}
        bound = t / (1 - t) if (n - mp) > (mp - m) else t
        assert ratio <= bound * (1 + 1e-12)
        checked["ratio"] += 1

    # power-law start switching to geometric decay at index s
    while checked["power"] < 1000:
        m = int(rng.integers(1, 15))
        mp = m + int(rng.integers(1, 10))
        s = mp + int(rng.integers(1, 30))
        p = float(rng.uniform(0.1, min(4.0, 0.9 * 2 * s)))
        n = s + int(rng.integers(5, 300))
        if not 1 - p / (2 * s) > 0:
            continue
        c = ((s - 1) / s) ** (p + 1)
        i = np.arange(m, n)
        seq = np.where(i <= s, 1.0 / np.maximum(i, 1) ** (p + 1),
                       c ** (i - s) / s ** (p + 1))
        t = seq[mp - m] / seq[0]
        if not t < 1:
            continue
        ratio = _tail_window_ratio(seq, m, mp)
        bound = (1 + p / mp - (mp / s) ** p
                 * (1 + p / s - (p / (p + 1)) / (1 - p / (2 * s)))) \
            / (t ** (-p / (p + 1)) - 1)
        assert ratio <= bound * (1 + 1e-12), (m, mp, s, p, n)
        checked["power"] += 1

    report(4, "sequence lemmas over randomized sweeps", True,
           f"{checked} cases plus the 1/7 equality edge")


def test_criterion_5_confidence_interval_coverage():
    op = Laplacian2D(*GRID_90)
    truth = oracles.exact_trace_laplacian(np.log, *GRID_90)
    delta = TABLE_DELTAS_90["log"]
    hits = 0
    for run in range(50):
        est = estimate_trace(op, "log", N=100, delta=delta, alpha=3.0,
                             seed=1000 + run, interval=INTERVAL_90)
        hits += abs(est.mean - truth) <= est.half_width
    report(5, "interval covers the oracle trace", hits >= 48,
           f"{hits}/50 runs covered (need >= 48)")


def test_criterion_6_estimate_sharpness_and_half_widths():
    op = Laplacian2D(*GRID_90)
    sharp = {}
    widths = {}
    for kind, delta in TABLE_DELTAS_90.items():
        f = kind_function(kind)
        est = estimate_trace(op, kind, N=100, delta=delta, alpha=3.0, seed=1,
                             interval=_interval(kind, INTERVAL_90))
        good = 0
        for rec in est.records:
            u = rademacher_vector(op.dim, 1, rec.index)
            true_err = abs(oracles.exact_bilinear_laplacian(f, *GRID_90, u)
                           - rec.value)
            good += true_err <= 3 * rec.error_estimate
        sharp[kind] = good
        widths[kind] = est.half_width
    ok_sharp = all(v >= 95 for v in sharp.values())
    ok_width = all(TABLE_HALF_WIDTHS_90[k] / 2 <= widths[k]
                   <= TABLE_HALF_WIDTHS_90[k] * 2 for k in widths)
    detail = (f"sharpness {sharp} (need >= 95/100); half-widths "
              + ", ".join(f"{k}: {widths[k]:.2f} vs {TABLE_HALF_WIDTHS_90[k]}"
                          for k in widths))
    report(6, "certificates track the true bilinear error", ok_sharp and ok_width,
           detail)


def test_criterion_7_lanczos_step_counts():
    cases = [
        ("exp_neg", 90, 120, 8.31, 30, (4, 8)),
        ("exp_neg", 300, 400, 26.1, 20, (4, 8)),
        ("exp_neg", 900, 1200, 71.0, 8, (4, 8)),
        ("log", 300, 400, 120.0, 20, (12, 26)),
    ]
    outcomes = []
    ok = True
    for kind, n1, n2, delta, N, band in cases:
        op = Laplacian2D(n1, n2)
        iv = oracles.laplacian_extreme_eigenvalues(n1, n2)
        est = estimate_trace(op, kind, N=N, delta=delta, seed=2,
                             interval=_interval(kind, iv))
        avg = float(np.mean([r.retired_step for r in est.records]))
        outcomes.append(f"{kind} {n1}x{n2}: {avg:.2f} in {band}")
        ok = ok and band[0] <= avg <= band[1]
    report(7, "average retired step per grid", ok, "; ".join(outcomes))


def test_criterion_8_matern_end_to_end():
    # coverage at desk scale on the logged site sample
    hits = 0
    for seed in range(20):
        sites = sample_sites(40, 30, 0.1, seed=100 + seed)
        op = build_matern_operator((40, 30), sites, 0.4 * 30, 0.4 * 40,
                                   nu=1.5, tau=1e-5)
        assert op.dim == 120
        truth = oracles.dense_logdet(op.dense_matrix())
        interval = estimate_spectrum_interval(op, lower_hint=1e-5, seed=seed)
        delta = calibrate_delta(op, "log", n_pilot=10, production_n=30,
                                interval=interval, seed=seed)
        est = estimate_trace(op, "log", N=30, delta=delta, seed=seed,
                             interval=interval)
        hits += abs(est.mean - truth) <= est.half_width

    # scaling trend: condition estimate grows roughly with the grid area
    conds = []
    for n1, n2 in [(16, 9), (160, 90)]:
        sites = sample_sites(n1, n2, 0.1, seed=1)
        op = build_matern_operator((n1, n2), sites, 0.4 * n2, 0.4 * n1,
                                   nu=1.5, tau=1e-5)
        a, b = estimate_spectrum_interval(op, lower_hint=1e-5, seed=0)
        conds.append(b / a)
    growth = conds[1] / conds[0]
    ok = hits >= 18 and 20 <= growth <= 500
    report(8, "matern logdet certified at desk scale", ok,
           f"{hits}/20 covered (need >= 18); cond growth x{growth:.0f} "
           f"for x100 grid area (1600x900 run not reproduced)")


def test_criterion_9_reorthogonalization_study():
    # Appendix-style testbed: the covariance operator on the 90x120 grid
    sites = sample_sites(90, 120, 0.1, seed=3)
    op = build_matern_operator((90, 120), sites, 0.4 * 120, 0.4 * 90,
                               nu=1.5, tau=1e-5)
    oracle = oracles.dense_f_oracle(op.dense_matrix(), np.log)
    u = rademacher_vector(op.dim, seed=0)
    truth = oracle.bilinear(u / np.linalg.norm(u))
    checkpoint = 200
    errs = {}
    for mode in ("full", "none"):
        state = LanczosState(op, u[None], reorth_mode=mode, m_max=checkpoint + 1)
        for _ in range(checkpoint):
            lanczos_step(state)
            if state.breakdown[0]:
                break
        q = quadrature_value(state.tridiagonal(), np.log)
        errs[mode] = abs(truth - q)
    stagnation = errs["none"] / errs["full"]
    ok = stagnation >= 100
    report(9, "orthogonality loss stalls convergence by >= 2 orders", ok,
           f"at m={checkpoint}: none {errs['none']:.2e} vs full "
           f"{errs['full']:.2e} (x{stagnation:.0f})")


def test_appendix_laplacian_unaffected_by_orthogonality_loss():
    # companion check: the 2D Laplacian run is barely affected, which is why
    # criterion 9 exercises the covariance testbed
    op = Laplacian2D(*GRID_90)
    u = rademacher_vector(op.dim, seed=0)
    truth = oracles.exact_bilinear_laplacian(np.log, *GRID_90,
                                             u / np.linalg.norm(u))
    errs = {}
    for mode in ("full", "none"):
        state = LanczosState(op, u[None], reorth_mode=mode, m_max=160)
        for _ in range(150):
            lanczos_step(state)
            if state.breakdown[0]:
                break
        errs[mode] = abs(truth - quadrature_value(state.tridiagonal(), np.log))
    assert errs["none"] <= 10 * errs["full"] + 1e-12
