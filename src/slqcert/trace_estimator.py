"""Trace estimation with a confidence interval that absorbs per-sample
numerical bias.

Each Rademacher probe u gives one sample ||u||^2 e1^T f(T) e1 from an
error-monitored Lanczos run stopped at tolerance delta.  The reported
interval half-width

    (alpha / sqrt(N)) (s + delta sqrt(N / (N - 1))) + delta

covers the trace with probability about erf(alpha / sqrt(2)) provided the
per-sample bias stays below delta, which is what the monitor tests.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import rational
from .errors import CalibrationFailedError, ContractViolationError
from .error_estimator import ErrorMonitor, lookback_check
from .lanczos import (DEFAULT_M_MAX, DEFAULT_REORTH, BasisBuffer, lanczos_run,
                      lanczos_steps, quadrature_value, tridiag_eigen)
from .operators import LinearOperator
from .rational import RationalApproximant, kind_function

DEFAULT_ALPHA = 3.0
DEFAULT_N = 100
DEFAULT_T = 0.1


def rademacher_vector(n: int, seed: int, index: int = 0) -> np.ndarray:
    """Deterministic +-1 vector from a counter-based generator keyed by
    (seed, index); identical across runs and platforms."""
    if n < 1:
        raise ContractViolationError("vector length must be >= 1")
    key = np.array([np.uint64(seed), np.uint64(index)], dtype=np.uint64)
    rng = np.random.Generator(np.random.Philox(key=key))
    return 2.0 * rng.integers(0, 2, size=n) - 1.0


def p_alpha(alpha: float) -> float:
    """erf(alpha / sqrt(2)): the coverage of a two-sided alpha-sigma interval."""
    if alpha <= 0:
        raise ContractViolationError("alpha must be positive")
    return math.erf(alpha / math.sqrt(2.0))


def confidence_half_width(s: float, N: int, delta: float, alpha: float) -> float:
    """(alpha/sqrt(N)) (s + delta sqrt(N/(N-1))) + delta."""
    if N < 2:
        raise ContractViolationError("confidence interval needs N >= 2")
    if s < 0 or delta < 0:
        raise ContractViolationError("s and delta must be nonnegative")
    return (alpha / np.sqrt(N)) * (s + delta * np.sqrt(N / (N - 1.0))) + delta


def estimate_spectrum_interval(op: LinearOperator, lower_hint: float | None = None,
                               probe_steps: int = 80, safety: float = 1.005,
                               seed: int = 0, reorth_mode: str = DEFAULT_REORTH):
    """[a, b] from a fixed-budget Lanczos run on a random probe.

    b inflates the largest Ritz value by the safety factor; a is the hint
    when provided (e.g. the nugget), otherwise the smallest positive Ritz
    value deflated by the same factor.
    """
    if not op.spd_hint:
        raise ContractViolationError("spectrum estimation requires an SPD operator")
    u = rademacher_vector(op.dim, seed, index=2**32 - 1)
    state = lanczos_run(op, u, probe_steps, reorth_mode)
    eig = tridiag_eigen(state.tridiagonal())
    b = float(eig.thetas[-1]) * safety
    if lower_hint is not None:
        a = float(lower_hint)
    else:
        positive = eig.thetas[eig.thetas > 0]
        if len(positive) == 0:
            raise ContractViolationError("no positive Ritz values; operator not SPD")
        a = float(positive[0]) / safety
    if not 0 < a < b:
        raise ContractViolationError(f"estimated interval [{a}, {b}] is not usable")
    return a, b


@dataclass
class SampleRecord:
    """One probe's outcome: the bilinear value at the retired step and the
    certificate the monitor produced for it."""

    index: int
    value: float
    steps_run: int
    retired_step: int
    error_estimate: float
    seed: int
    converged: bool
    sign_flips: int = 0
    reorth_passes: int = 0


@dataclass
class TraceEstimate:
    """Sample mean with the bias-aware confidence interval of the run."""

    mean: float
    std_err: float
    N: int
    delta: float
    alpha: float
    half_width: float
    p_alpha: float
    records: list
    kind: str = ""
    K: int = 0
    rational_eps: float = float("nan")
    t: float = DEFAULT_T
    seed: int = 0
    interval: tuple = (0.0, 0.0)
    reorth_mode: str = DEFAULT_REORTH
    certified: bool = True
    time_approx: float = 0.0
    time_error_estimate: float = 0.0

    def to_json_dict(self):
        return {
            "function": self.kind,
            "N": self.N,
            "alpha": self.alpha,
            "delta": self.delta,
            "t": self.t,
            "K": self.K,
            "rational_eps": self.rational_eps,
            "mean": self.mean,
            "std_err": self.std_err,
            "half_width": self.half_width,
            "p_alpha": self.p_alpha,
            "seed": self.seed,
            "interval": list(self.interval),
            "reorth_mode": self.reorth_mode,
            "certified": self.certified,
            "average_steps": float(np.mean([r.steps_run for r in self.records])),
            "average_retired_step": float(np.mean([r.retired_step for r in self.records])),
            "reorth_passes": sum(r.reorth_passes for r in self.records),
            "timings": {
                "approximation_seconds": self.time_approx,
                "error_estimate_seconds": self.time_error_estimate,
            },
            "per_sample": [
                {
                    "index": r.index,
                    "value": r.value,
                    "steps_run": r.steps_run,
                    "retired_step": r.retired_step,
                    "error_estimate": r.error_estimate,
                    "seed": r.seed,
                    "converged": r.converged,
                    "sign_flips": r.sign_flips,
                    "reorth_passes": r.reorth_passes,
                }
                for r in self.records
            ],
        }


def sample_bilinear(op: LinearOperator, f, r: RationalApproximant, u,
                    delta: float, t: float = DEFAULT_T, m_max: int = DEFAULT_M_MAX,
                    reorth_mode: str = DEFAULT_REORTH, index: int = 0, seed: int = 0,
                    buffer: BasisBuffer | None = None):
    """Error-monitored Lanczos run for one probe vector.

    Returns (record, time_split); the record's value is taken at the retired
    step with f itself (not r) on the Ritz values.  Hitting m_max yields a
    flagged, unconverged record instead of an exception.  On breakdown the
    quadrature is exact and the certificate is a zero error estimate.
    ``reorth_mode`` is one of ``lanczos.REORTH_MODES``: the default partial
    mode orthogonalizes only when the estimated loss of orthogonality calls
    for it, ``full`` on every step.  The basis goes into ``buffer`` when one
    is given; the record does not depend on what the buffer held before.
    """
    u = np.asarray(u, dtype=float)
    norm_sq = float(u @ u)
    monitor = ErrorMonitor(r, delta / norm_sq, t)
    t_lanczos = 0.0
    t_monitor = 0.0
    retired = None
    estimate = None
    converged = False
    tic = time.perf_counter()
    for state, alpha, beta in lanczos_steps(op, u, reorth_mode, m_max, buffer):
        toc = time.perf_counter()
        t_lanczos += toc - tic
        monitor.advance(alpha, beta)
        result = lookback_check(monitor)
        tic = time.perf_counter()
        t_monitor += tic - toc
        if state.breakdown:
            # invariant subspace found: the quadrature at T_m is exact
            retired, estimate, converged = state.m, 0.0, True
            break
        if result.converged:
            retired, estimate, converged = result.retired_step, result.estimate, True
            break
    if retired is None:
        retired = state.m
        estimate = monitor.history[-1] if monitor.history else np.inf
    tic = time.perf_counter()
    value = norm_sq * quadrature_value(state.tridiagonal(retired), f)
    t_lanczos += time.perf_counter() - tic
    record = SampleRecord(
        index=index,
        value=float(value),
        steps_run=state.m,
        retired_step=retired,
        error_estimate=float(abs(estimate) * norm_sq),
        seed=seed,
        converged=converged,
        sign_flips=monitor.sign_flips,
        reorth_passes=state.reorth_passes,
    )
    return record, (t_lanczos, t_monitor)


def estimate_trace_with(op: LinearOperator, f, r: RationalApproximant, N: int,
                        delta: float, alpha: float = DEFAULT_ALPHA,
                        t: float = DEFAULT_T, seed: int = 0,
                        m_max: int = DEFAULT_M_MAX, reorth_mode: str = DEFAULT_REORTH,
                        kind: str = "") -> TraceEstimate:
    """N independent error-monitored samples -> mean, standard error, interval.

    Every sample runs with ``reorth_mode``, which the estimate reports.
    Samples use deterministic per-index probe seeds, and the reduction order
    is fixed, so identical inputs reproduce the estimate bit for bit at a
    fixed BLAS thread count; the reductions inside the BLAS calls change
    order with the thread count, which moves the last bits.  All samples
    share one basis buffer, kept at the size of the longest run so far.
    """
    if N < 2:
        raise ContractViolationError("estimate_trace needs N >= 2")
    buffer = BasisBuffer(op.dim)
    records = []
    t_approx = 0.0
    t_err = 0.0
    for i in range(N):
        u = rademacher_vector(op.dim, seed, index=i)
        rec, (ta, te) = sample_bilinear(op, f, r, u, delta, t=t, m_max=m_max,
                                        reorth_mode=reorth_mode, index=i, seed=seed,
                                        buffer=buffer)
        records.append(rec)
        t_approx += ta
        t_err += te
    values = np.array([rec.value for rec in records])
    mean = float(np.sum(values) / N)
    std_err = float(np.sqrt(np.sum((values - mean) ** 2) / (N - 1)))
    half = confidence_half_width(std_err, N, delta, alpha)
    return TraceEstimate(
        mean=mean,
        std_err=std_err,
        N=N,
        delta=delta,
        alpha=alpha,
        half_width=float(half),
        p_alpha=p_alpha(alpha),
        records=records,
        kind=kind or r.kind,
        K=r.K,
        rational_eps=r.eps,
        t=t,
        seed=seed,
        interval=tuple(r.interval),
        reorth_mode=reorth_mode,
        certified=all(rec.converged for rec in records),
        time_approx=t_approx,
        time_error_estimate=t_err,
    )


def estimate_trace(op: LinearOperator, kind: str, N: int, delta: float,
                   alpha: float = DEFAULT_ALPHA, t: float = DEFAULT_T,
                   seed: int = 0, interval=None, K: int | None = None,
                   m_max: int = DEFAULT_M_MAX, reorth_mode: str = DEFAULT_REORTH,
                   lower_hint: float | None = None) -> TraceEstimate:
    """Algorithm driver for the four built-in function kinds.

    The pole count follows the rule that the rational error must stay below
    half the scaled tolerance delta / (2 ||u||^2) with ||u||^2 = n for
    Rademacher probes, unless K is forced explicitly.
    """
    if interval is None:
        interval = estimate_spectrum_interval(op, lower_hint=lower_hint, seed=seed,
                                              reorth_mode=reorth_mode)
    f = kind_function(kind)
    if K is not None:
        r = rational.build(kind, K, interval)
    else:
        r = rational.choose_K(kind, interval, target=delta / (2.0 * op.dim))
    return estimate_trace_with(op, f, r, N, delta, alpha=alpha, t=t, seed=seed,
                               m_max=m_max, reorth_mode=reorth_mode, kind=kind)


def calibrate_delta(op: LinearOperator, kind: str, n_pilot: int = 30,
                    beta: float = 0.1, alpha: float = DEFAULT_ALPHA,
                    production_n: int = DEFAULT_N, seed: int = 0,
                    interval=None, lower_hint: float | None = None,
                    m_max: int = DEFAULT_M_MAX, reorth_mode: str = DEFAULT_REORTH) -> float:
    """Pilot run -> delta = beta alpha s / sqrt(N) for the production run.

    The pilot uses a loose internal tolerance (1e-2 of the rough trace scale
    n f(midpoint)) and no certification; only its sample standard error is
    kept.
    """
    if n_pilot < 2:
        raise ContractViolationError("pilot needs at least 2 samples")
    if interval is None:
        interval = estimate_spectrum_interval(op, lower_hint=lower_hint, seed=seed,
                                              reorth_mode=reorth_mode)
    f = kind_function(kind)
    mid = 0.5 * (interval[0] + interval[1])
    scale = max(abs(float(np.asarray(f(mid)))), 1e-12)
    delta_pilot = 1e-2 * op.dim * scale
    pilot = estimate_trace(op, kind, n_pilot, delta_pilot, alpha=alpha,
                           seed=seed + 1, interval=interval, m_max=m_max,
                           reorth_mode=reorth_mode)
    if pilot.std_err == 0.0:
        raise CalibrationFailedError(
            "pilot standard error is zero; cannot calibrate a tolerance"
        )
    return float(beta * alpha * pilot.std_err / np.sqrt(production_n))

