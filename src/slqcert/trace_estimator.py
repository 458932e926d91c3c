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
from dataclasses import dataclass

import numpy as np

from . import rational
from .errors import (CalibrationFailedError, ContractViolationError,
                     NumericalFailureError, QuadratureDomainError)
from .error_estimator import ErrorMonitor, lookback_check
from .lanczos import (DEFAULT_M_MAX, DEFAULT_REORTH, BasisBuffer, lanczos_run,
                      lanczos_steps, quadrature_value, tridiag_eigen)
from .operators import LinearOperator
from .rational import RationalApproximant, kind_function

DEFAULT_ALPHA = 3.0
DEFAULT_N = 100
DEFAULT_T = 0.1
DEFAULT_BETA = 0.1

# Probes run in blocks of b = min(N, max(1, PROBE_BLOCK_ELEMENTS // n)): the
# four block rows a Lanczos step touches (v_{m-1}, v_m, A v_m and the work
# rows) then take at most 1 MiB, half of a 2 MiB L2, and an operator of
# dimension above 2^15, whose basis alone is tens of MB per probe, runs one
# probe at a time.
PROBE_BLOCK_ELEMENTS = 2**15

# the upper end of an estimated spectrum interval: the largest Ritz value
# after this many Lanczos steps, times this factor
SPECTRUM_PROBE_STEPS = 80
SPECTRUM_SAFETY = 1.005

# the errors that end one probe's run without ending the others'
# (PivotBreakdownError is a NumericalFailureError)
SAMPLE_FAILURES = (QuadratureDomainError, NumericalFailureError)


def rademacher_vector(n: int, seed: int, index: int = 0) -> np.ndarray:
    """Deterministic +-1 vector from a counter-based generator keyed by
    (seed, index); identical across runs and platforms."""
    if n < 1:
        raise ContractViolationError("vector length must be >= 1")
    if not (0 <= seed < 2**64 and 0 <= index < 2**64):
        raise ContractViolationError(
            f"seed and index must lie in [0, 2^64), got {seed} and {index}")
    key = np.array([np.uint64(seed), np.uint64(index)], dtype=np.uint64)
    rng = np.random.Generator(np.random.Philox(key=key))
    return 2.0 * rng.integers(0, 2, size=n) - 1.0


def _require_positive(name: str, value: float):
    if not value > 0:
        raise ContractViolationError(f"{name} must be positive, got {value}")


def _check_run(N: int, delta: float, alpha: float):
    """The arguments of a trace estimate, checked before any probe runs."""
    if N < 2:
        raise ContractViolationError("estimate_trace needs N >= 2")
    _require_positive("tolerance delta", delta)
    _require_positive("alpha", alpha)


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


def probe_block_size(N: int, dim: int) -> int:
    """The number of probes ``estimate_trace_with`` steps together."""
    return min(N, max(1, PROBE_BLOCK_ELEMENTS // dim))


def estimate_spectrum_interval(op: LinearOperator, lower_hint: float, seed: int = 0,
                               reorth_mode: str = DEFAULT_REORTH):
    """[a, b] for an SPD operator whose spectrum is bounded below by
    ``lower_hint``, a bound known in advance (the nugget tau, or 1 for the
    preconditioned Matern operator).

    a is that bound; b is the largest Ritz value of a SPECTRUM_PROBE_STEPS
    Lanczos run on a Rademacher probe, inflated by SPECTRUM_SAFETY.
    """
    if not op.spd_hint:
        raise ContractViolationError("spectrum estimation requires an SPD operator")
    u = rademacher_vector(op.dim, seed, index=2**32 - 1)
    state = lanczos_run(op, u[None], SPECTRUM_PROBE_STEPS, reorth_mode)
    eig = tridiag_eigen(state.tridiagonal())
    a = float(lower_hint)
    b = float(eig.thetas[-1]) * SPECTRUM_SAFETY
    if not 0 < a < b:
        raise ContractViolationError(f"estimated interval [{a}, {b}] is not usable")
    return a, b


@dataclass
class SampleRecord:
    """One probe's outcome: the bilinear value at the last step and the
    certificate the monitor produced at the retired step.  ``failure``
    names the error that ended a failed probe, whose value is NaN."""

    index: int
    value: float
    steps_run: int
    retired_step: int
    error_estimate: float
    seed: int
    converged: bool
    sign_flips: int = 0
    reorth_passes: int = 0
    failure: str | None = None


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
    kind: str
    K: int = 0
    rational_eps: float = float("nan")
    t: float = DEFAULT_T
    seed: int = 0
    interval: tuple = (0.0, 0.0)
    reorth_mode: str = DEFAULT_REORTH
    certified: bool = True
    time_approx: float = 0.0
    time_error_estimate: float = 0.0
    block_size: int = 1

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
            "block_size": self.block_size,
            "certified": self.certified,
            "average_steps": float(np.mean([r.steps_run for r in self.records])),
            "average_retired_step": float(np.mean([r.retired_step for r in self.records])),
            "reorth_passes": sum(r.reorth_passes for r in self.records),
            "timings": {
                "approximation_seconds": self.time_approx,
                "error_estimate_seconds": self.time_error_estimate,
            },
            "per_sample": [_sample_json(r) for r in self.records],
        }


def _sample_json(r: SampleRecord) -> dict:
    sample = {
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
    if r.failure is not None:
        sample["failure"] = r.failure
    return sample


def sample_bilinear(op: LinearOperator, f, r: RationalApproximant, u,
                    delta: float, t: float = DEFAULT_T, m_max: int = DEFAULT_M_MAX,
                    reorth_mode: str = DEFAULT_REORTH, index: int = 0, seed: int = 0,
                    buffer: BasisBuffer | None = None):
    """Error-monitored Lanczos runs for a (b, n) block of probes.

    Returns (records, time_split): row j of ``u`` gets the record with index
    ``index + j``.  The probes share one Lanczos recurrence, each with its
    own ErrorMonitor, and a probe leaves the block when its monitor
    converges, its run breaks down or it reaches m_max.  A record therefore
    equals the probe's own run as a block of one: bit for bit when each row
    of the operator's block apply equals its vector apply (every operator
    here but ``PreconditionedMatern``), to roundoff otherwise.  A record's
    value is taken at the last step J = ``steps_run`` with f itself (not r)
    on the Ritz values; ``retired_step`` m and ``error_estimate`` are the
    step the monitor certified and its estimate there.  For log, sqrt and
    exp(-x), whose even derivatives keep one sign on [a, b], the Gauss
    quadrature error keeps its sign and shrinks as the step grows (Golub &
    Meurant, Matrices, Moments and Quadrature, 2010), so the error at J is
    at most the error at m; for tanh(sqrt(x)) the derivatives change sign
    and the gain is only measured.  Hitting m_max yields a flagged,
    unconverged record instead of an exception.  On breakdown the quadrature
    is exact and the certificate is a zero error estimate.  A probe whose
    pole recurrence, eigensolver or quadrature raises one of SAMPLE_FAILURES
    retires unconverged, with a NaN value and the error in ``failure``; the
    other probes go on.
    ``reorth_mode`` is one of ``lanczos.REORTH_MODES``: the default partial
    mode orthogonalizes only when the estimated loss of orthogonality calls
    for it, ``full`` on every step.  The basis goes into ``buffer`` when one
    is given; the records do not depend on what the buffer held before.
    """
    u = np.asarray(u, dtype=float)
    if u.ndim != 2:
        raise ContractViolationError(f"probe block of shape {u.shape} is not (b, n)")
    norm_sq = [float(row @ row) for row in u]
    monitors = [ErrorMonitor(r, delta / nsq, t) for nsq in norm_sq]
    ends = {}                    # column -> (retired step, estimate, converged, failure)
    t_lanczos = 0.0
    t_monitor = 0.0
    tic = time.perf_counter()
    for state, alpha, beta in lanczos_steps(op, u, reorth_mode, m_max, buffer):
        toc = time.perf_counter()
        t_lanczos += toc - tic
        for j in state.active.nonzero()[0].tolist():
            monitor = monitors[j]
            try:
                monitor.advance(float(alpha[j]), float(beta[j]))
                result = lookback_check(monitor)
            except SAMPLE_FAILURES as exc:
                ends[j] = (state.steps[j], None, False, f"{type(exc).__name__}: {exc}")
            else:
                if state.breakdown[j]:
                    # invariant subspace found: the quadrature at T_m is exact
                    ends[j] = (state.steps[j], 0.0, True, None)
                elif result.converged:
                    ends[j] = (result.retired_step, result.estimate, True, None)
                else:
                    continue
            state.active[j] = False
        tic = time.perf_counter()
        t_monitor += tic - toc
    tic = time.perf_counter()
    records = []
    for j, monitor in enumerate(monitors):
        retired, estimate, converged, failure = ends.get(j, (state.steps[j], None, False,
                                                             None))
        if estimate is None:
            estimate = monitor.history[-1] if monitor.history else np.inf
        value = math.nan
        if failure is None:
            try:
                value = norm_sq[j] * quadrature_value(state.tridiagonal(column=j), f)
            except SAMPLE_FAILURES as exc:
                converged, failure = False, f"{type(exc).__name__}: {exc}"
        records.append(SampleRecord(
            index=index + j,
            value=float(value),
            steps_run=int(state.steps[j]),
            retired_step=int(retired),
            error_estimate=float(abs(estimate) * norm_sq[j]),
            seed=seed,
            converged=converged,
            sign_flips=monitor.sign_flips,
            reorth_passes=int(state.reorth_passes[j]),
            failure=failure,
        ))
    t_lanczos += time.perf_counter() - tic
    return records, (t_lanczos, t_monitor)


def estimate_trace_with(op: LinearOperator, f, r: RationalApproximant, N: int,
                        delta: float, alpha: float = DEFAULT_ALPHA,
                        t: float = DEFAULT_T, seed: int = 0,
                        m_max: int = DEFAULT_M_MAX,
                        reorth_mode: str = DEFAULT_REORTH) -> TraceEstimate:
    """N independent error-monitored samples -> mean, standard error, interval.

    Probe i is ``rademacher_vector(n, seed, i)``.  The probes run through
    ``sample_bilinear`` in blocks of ``probe_block_size(N, n)``, which the
    estimate reports; all blocks share one basis buffer and one probe
    buffer.  Every sample runs with ``reorth_mode``, which the estimate
    reports.  The reduction order is fixed, so identical inputs reproduce
    the estimate bit for bit at a fixed BLAS thread count; the reductions
    inside the BLAS calls change order with the thread count, which moves
    the last bits.  The mean, standard error and half-width are those of
    the samples that did not fail (NaN when fewer than two did); a failed
    sample leaves the run uncertified.
    """
    _check_run(N, delta, alpha)
    b = probe_block_size(N, op.dim)
    buffer = BasisBuffer(op.dim, b)
    probes = np.empty((b, op.dim))
    records = []
    t_approx = 0.0
    t_err = 0.0
    for start in range(0, N, b):
        block = probes[: min(b, N - start)]
        for j, row in enumerate(block):
            row[:] = rademacher_vector(op.dim, seed, index=start + j)
        recs, (ta, te) = sample_bilinear(op, f, r, block, delta, t=t, m_max=m_max,
                                         reorth_mode=reorth_mode, index=start,
                                         seed=seed, buffer=buffer)
        records += recs
        t_approx += ta
        t_err += te
    values = np.array([rec.value for rec in records if rec.failure is None])
    count = len(values)
    mean = std_err = half = math.nan
    if count >= 2:
        mean = float(np.sum(values) / count)
        std_err = float(np.sqrt(np.sum((values - mean) ** 2) / (count - 1)))
        half = confidence_half_width(std_err, count, delta, alpha)
    return TraceEstimate(
        mean=mean,
        std_err=std_err,
        N=N,
        delta=delta,
        alpha=alpha,
        half_width=float(half),
        p_alpha=p_alpha(alpha),
        records=records,
        kind=r.kind,
        K=r.K,
        rational_eps=r.eps,
        t=t,
        seed=seed,
        interval=tuple(r.interval),
        reorth_mode=reorth_mode,
        certified=all(rec.converged for rec in records),
        time_approx=t_approx,
        time_error_estimate=t_err,
        block_size=b,
    )


def rational_target(delta: float, dim: int) -> float:
    """The uniform error allowed to r_K: half the scaled tolerance
    delta / ||u||^2, with ||u||^2 = dim for Rademacher probes."""
    return delta / (2.0 * dim)


def estimate_trace(op: LinearOperator, kind: str, N: int, delta: float, interval,
                   alpha: float = DEFAULT_ALPHA, t: float = DEFAULT_T,
                   seed: int = 0, K: int | None = None, m_max: int = DEFAULT_M_MAX,
                   reorth_mode: str = DEFAULT_REORTH) -> TraceEstimate:
    """Algorithm driver for the four built-in function kinds.

    ``interval`` is the [a, b] the approximant is built on; the certificate
    holds only when it contains the spectrum.  The pole count is the
    smallest whose uniform error is at most ``rational_target(delta, n)``,
    unless K is forced explicitly.
    """
    _check_run(N, delta, alpha)
    f = kind_function(kind)
    if K is not None:
        r = rational.build(kind, K, interval)
    else:
        r = rational.choose_K(kind, interval, target=rational_target(delta, op.dim))
    return estimate_trace_with(op, f, r, N, delta, alpha=alpha, t=t, seed=seed,
                               m_max=m_max, reorth_mode=reorth_mode)


def calibrate_delta(op: LinearOperator, kind: str, interval, n_pilot: int = 30,
                    beta: float = DEFAULT_BETA, alpha: float = DEFAULT_ALPHA,
                    production_n: int = DEFAULT_N, seed: int = 0,
                    m_max: int = DEFAULT_M_MAX, reorth_mode: str = DEFAULT_REORTH) -> float:
    """Pilot run -> delta = beta alpha s / sqrt(N) for the production run.

    The pilot runs on ``interval``, as ``estimate_trace`` does, with a loose
    internal tolerance (1e-2 of the rough trace scale n f(midpoint)) and no
    certification; only its sample standard error is kept.
    """
    if n_pilot < 2:
        raise ContractViolationError("pilot needs at least 2 samples")
    _require_positive("beta", beta)
    _require_positive("alpha", alpha)
    f = kind_function(kind)
    mid = 0.5 * (interval[0] + interval[1])
    scale = max(abs(float(np.asarray(f(mid)))), 1e-12)
    delta_pilot = 1e-2 * op.dim * scale
    pilot = estimate_trace(op, kind, n_pilot, delta_pilot, interval, alpha=alpha,
                           seed=seed + 1, m_max=m_max, reorth_mode=reorth_mode)
    if not pilot.std_err > 0.0:
        raise CalibrationFailedError(
            f"pilot standard error is {pilot.std_err}; cannot calibrate a tolerance"
        )
    return float(beta * alpha * pilot.std_err / np.sqrt(production_n))
