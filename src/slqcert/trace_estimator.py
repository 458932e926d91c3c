"""Trace estimation with a confidence interval that absorbs per-sample
numerical bias.

Each Rademacher probe u gives one sample ||u||^2 e1^T f(T) e1 from an
error-monitored Lanczos run stopped at tolerance delta.  The reported
interval half-width

    (alpha / sqrt(N)) (s + delta sqrt(N / (N - 1))) + delta

covers the trace with probability about erf(alpha / sqrt(2)) provided the
per-sample bias stays below delta, which is what the monitor tests.

Probe i of a run is ``rademacher_vector(n, seed, i)``.  When delta is not
given, a pilot sets it to beta alpha s_pilot / sqrt(N) from the spread of
the first ``n_pilot`` probes, each stopped at a loose tolerance: 1e-2 of
the rough trace scale n max(|f(mid)|, f(a)) on the interval [a, b], where
f(a) keeps exp(-x) on a wide interval from a scale that underflows.  One
walker, ``_watch_probes``, steps the pilot's probes and the estimate's: it
sizes the blocks for the larger of the two probe counts, one monitor per
block, and steps them all in one basis buffer.  It holds the pilot's last
block, and hands it to the estimate, only when that block starts below N,
so holds a probe of the estimate: its pilot monitor watches it until it
has stopped every column, while every column keeps stepping; then a fresh
monitor at delta reads the stored coefficients and the same run steps on,
in the same buffer, until it retires the columns.  A probe of any other
pilot block leaves its run at its pilot stop, and the estimate steps it
again from the start.  Each sample therefore equals the
probe's own run at delta, and its value is the one a run with that delta
given would report.  The bias bound rests on the monitor's estimate at
each probe's retired step, for any delta, one taken from the same probes'
loose values included: a sample counts as within delta of its probe's
exact bilinear form when that estimate is below delta.  The estimate is
not a bound.  When f is flat over the bulk of the spectrum (exp_neg,
tanh_sqrt), the increments can plateau near zero until Lanczos finds a
small cluster of low eigenvalues, and the lookback window then reads an
error near zero for a sample that is far off: three eigenvalues 1 below a
bulk on [5, 2e4] give a certified exp_neg run 68 half-widths from the
truth.  The statistical part of the half-width is the spread of the exact
forms, which no choice of delta moves; s, the spread of the computed
samples, differs from it by at most delta sqrt(N / (N - 1)) when each
sample is within delta, the term the half-width adds.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np
# numpy 2 loads it on first use; importing it here keeps that out of the
# first probe draw
import numpy.random  # noqa: F401

from . import rational
from .errors import (CalibrationFailedError, ContractViolationError,
                     NumericalFailureError, QuadratureDomainError)
from .error_estimator import LOOKBACK_THRESHOLD, ErrorMonitor, lookback_check
from .lanczos import (DEFAULT_M_MAX, DEFAULT_REORTH, PROBE_BLOCK_ELEMENTS, BasisBuffer,
                      gauss_quadrature, lanczos_run, lanczos_steps, tridiag_eigen)
from .operators import LinearOperator
from .rational import RationalApproximant, kind_function

DEFAULT_ALPHA = 3.0
DEFAULT_N = 100
DEFAULT_BETA = 0.1
DEFAULT_PILOT_N = 30

# the upper end of an estimated spectrum interval: the largest Ritz value
# after this many Lanczos steps, times this factor
SPECTRUM_PROBE_STEPS = 80
SPECTRUM_SAFETY = 1.005

# a sample's Ritz values may leave the approximant's interval [a, b] by this
# share of b, the roundoff of the eigensolve, before the sample is flagged
RITZ_SLACK = 1e-12

# the errors of a probe's eigensolve or quadrature that end its sample
# without ending the others'; a pivot breakdown of its pole recurrence the
# monitor records itself (ErrorMonitor._failures)
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
    if not 0 < value < math.inf:
        raise ContractViolationError(f"{name} must be positive and finite, got {value}")


def _check_run(N: int, delta: float | None, alpha: float):
    """The arguments of a trace estimate, checked before any probe runs;
    delta None is one a pilot will set."""
    if N < 2:
        raise ContractViolationError("estimate_trace needs N >= 2")
    if delta is not None:
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
    """The number of probes ``_watch_probes`` steps together in a walk of N
    (see ``lanczos.PROBE_BLOCK_ELEMENTS``)."""
    return min(N, max(1, PROBE_BLOCK_ELEMENTS // dim))


def estimate_spectrum_interval(op: LinearOperator, lower_hint: float, seed: int = 0):
    """[a, b] for an SPD operator whose spectrum is bounded below by
    ``lower_hint``, a bound known in advance (the nugget tau, or 1 for the
    preconditioned Matern operator).

    a is that bound; b is the largest Ritz value of a SPECTRUM_PROBE_STEPS
    Lanczos run on a Rademacher probe, inflated by SPECTRUM_SAFETY.
    """
    if not op.spd_hint:
        raise ContractViolationError("spectrum estimation requires an SPD operator")
    u = rademacher_vector(op.dim, seed, index=2**32 - 1)
    state = lanczos_run(op, u[None], SPECTRUM_PROBE_STEPS)
    eig = tridiag_eigen(state.tridiagonal())
    a = float(lower_hint)
    b = float(eig.thetas[-1]) * SPECTRUM_SAFETY
    if not 0 < a < b:
        raise ContractViolationError(f"estimated interval [{a}, {b}] is not usable")
    return a, b


@dataclass
class SampleRecord:
    """One probe's outcome: the bilinear value at the last step and the
    certificate the monitor produced at the retired step.  ``theta_min`` and
    ``theta_max`` are the extreme Ritz values at the last step;
    ``replayed_steps`` counts the operator applies its run spent rebuilding
    a basis it had not stored (see ``lanczos.LanczosState``).  ``failure``
    names the error that ended a failed probe, whose value is NaN, or the
    premise of the certificate a probe with a value broke: Ritz values
    outside the approximant's interval."""

    index: int
    value: float
    steps_run: int
    retired_step: int
    error_estimate: float
    seed: int
    converged: bool
    sign_flips: int = 0
    reorth_passes: int = 0
    replayed_steps: int = 0
    theta_min: float = math.nan
    theta_max: float = math.nan
    failure: str | None = None


@dataclass
class TraceEstimate:
    """Sample mean with the bias-aware confidence interval of the run, and
    the approximant r it certified against, whose kind, K, uniform error and
    interval the report gives.  ``calibration`` describes the pilot that set
    delta, when one did."""

    mean: float
    std_err: float
    N: int
    delta: float
    alpha: float
    half_width: float
    p_alpha: float
    records: list
    approximant: RationalApproximant
    seed: int = 0
    certified: bool = True
    time_approx: float = 0.0
    time_error_estimate: float = 0.0
    time_calibration: float = 0.0
    block_size: int = 1
    calibration: dict | None = None

    def to_json_dict(self):
        r = self.approximant
        report = {
            "function": r.kind,
            "N": self.N,
            "alpha": self.alpha,
            "delta": self.delta,
            "t": LOOKBACK_THRESHOLD,
            "K": r.K,
            "rational_eps": r.eps,
            "mean": self.mean,
            "std_err": self.std_err,
            "half_width": self.half_width,
            "p_alpha": self.p_alpha,
            "seed": self.seed,
            "interval": list(r.interval),
            "reorth_mode": DEFAULT_REORTH,
            "block_size": self.block_size,
            "certified": self.certified,
            "average_steps": float(np.mean([r.steps_run for r in self.records])),
            "average_retired_step": float(np.mean([r.retired_step for r in self.records])),
            "reorth_passes": sum(r.reorth_passes for r in self.records),
            "replayed_steps": sum(r.replayed_steps for r in self.records),
            "timings": {
                "approximation_seconds": self.time_approx,
                "error_estimate_seconds": self.time_error_estimate,
                "calibration_seconds": self.time_calibration,
            },
            "per_sample": [_sample_json(r) for r in self.records],
        }
        if self.calibration is not None:
            report["calibration"] = self.calibration
        return report


def _sample_json(r: SampleRecord) -> dict:
    """The record's fields in order, without ``failure`` when it is None."""
    sample = dict(vars(r))
    if r.failure is None:
        del sample["failure"]
    return sample


def _ritz_outside(theta_min: float, theta_max: float, interval) -> str | None:
    """Why the extreme Ritz values break the certificate's premise, or None."""
    a, b = interval
    slack = RITZ_SLACK * b
    if a - slack <= theta_min and theta_max <= b + slack:
        return None
    return (f"Ritz values [{theta_min!r}, {theta_max!r}] leave the interval "
            f"[{a!r}, {b!r}] of the approximant")


class ProbeBlock:
    """A (b, n) block of probes on one Lanczos run that outlives the monitors
    watching it: the one loop that steps a Lanczos run under an ErrorMonitor.

    Row j of ``u`` is the probe with index ``index + j``.  A monitor's column
    j is a function of column j's stored Jacobi coefficients alone, so a
    record equals the probe's own run at the watch's delta, whatever watched
    the run before.  A watch of approximant r records the Gauss quadrature of
    f = ``kind_function(r.kind)`` and checks the Ritz values against r's
    interval.  The basis goes into ``buffer`` when one is given (see
    ``lanczos.LanczosState``), whatever it held before.
    """

    def __init__(self, op: LinearOperator, u, m_max: int = DEFAULT_M_MAX,
                 buffer: BasisBuffer | None = None, index: int = 0, seed: int = 0):
        u = np.asarray(u, dtype=float)
        if u.ndim != 2:
            raise ContractViolationError(f"probe block of shape {u.shape} is not (b, n)")
        self.norm_sq = np.array([float(row @ row) for row in u])
        self.index = index
        self.seed = seed
        self.buffer = buffer
        self.state = None
        self.monitor_seconds = 0.0
        self._steps = lanczos_steps(op, u, m_max=m_max, buffer=buffer)
        self._passes = []          # each column's reorth passes after each step

    def follow(self, r: RationalApproximant, delta: float, count: int | None = None,
               hold: bool = False):
        """Step the run under one ErrorMonitor at tolerance delta over the
        first ``count`` columns (all by default) until each has ended; yields
        (monitor, ends) after each catch-up, which feeds every followed
        column, an ended one too, the stored steps the monitor has not seen
        while a column runs, one ``advance`` per step:
        once per step on a fresh block, and first all the stored steps, with
        no operator applied, on a block that has stepped.  ``ends[j]`` is
        None while column j runs, then its (step, retired step, estimate,
        failure); both are updated in place, and ``monitor_seconds`` holds
        this follow's time in the monitor.  A column ends when it
        converges or fails in the monitor, its run breaks down or it reaches
        min(m_max, n).  Without ``hold`` a column leaves the run when it
        ends, and the columns not followed leave it at once; a held follow
        keeps every column, so that a later follow can go on.
        """
        count = len(self.norm_sq) if count is None else count
        monitor = ErrorMonitor(r, delta / self.norm_sq[:count])
        self.monitor_seconds = 0.0
        ends = [None] * count
        running = np.arange(len(self.norm_sq)) < count
        while True:
            if self.state is not None:
                tic = time.perf_counter()
                self._catch_up(monitor, ends, running)
                if not hold:
                    self.state.active &= running
                self.monitor_seconds += time.perf_counter() - tic
                yield monitor, ends
            if not running.any():
                return
            state = next(self._steps, None)
            if state is None:
                return
            self.state = state
            self._passes.append(state.reorth_passes.copy())

    def _catch_up(self, monitor: ErrorMonitor, ends: list, running):
        """Feed the followed columns the run's stored steps, one ``advance``
        and one ``lookback_check`` per step, while a column runs; ended
        columns leave ``running``, those that failed first."""
        state, count = self.state, len(ends)
        while monitor.m < state.m and running.any():
            m = monitor.m + 1
            monitor.advance(state._alphas[:count, m - 1], state._betas[:count, m - 1])
            converged, retired, estimate = lookback_check(monitor)
            if np.count_nonzero(state.breakdown[:count]):
                # invariant subspace found: the quadrature at T_m is exact
                exact = state.breakdown[:count] & (state.steps[:count] == m)
                converged[exact], retired[exact], estimate[exact] = True, m, 0.0
            for j, exc in monitor._failures.items():
                if running[j]:
                    ends[j] = (m, m, None, f"{type(exc).__name__}: {exc}")
                    running[j] = False
            converged &= running[:count]
            if np.count_nonzero(converged):
                for j in np.flatnonzero(converged).tolist():
                    ends[j] = (m, int(retired[j]), float(estimate[j]), None)
                    running[j] = False

    def watch(self, r: RationalApproximant, delta: float, count: int | None = None,
              hold: bool = False) -> list:
        """The records of a ``follow`` run to its end, one per followed column."""
        for monitor, ends in self.follow(r, delta, count, hold):
            pass
        return [self._record(j, r, end, history)
                for j, (end, history) in enumerate(zip(ends, monitor.history))]

    def _record(self, j: int, r: RationalApproximant, end, history) -> SampleRecord:
        """Column j's record from its monitor column's increments, cut at
        the column's end; ``end`` is None for a column the run's cap stopped."""
        state, cap = self.state, None
        if end is None:
            cap = (f"stopped at m_max = {state.m_max}" if state.m_max < state.op.dim
                   else f"stopped at the operator dimension {state.op.dim}")
            cap += " before its monitor converged"
            end = (int(state.steps[j]), int(state.steps[j]), None, None)
        steps, retired, estimate, failure = end
        # d_1 .. d_{steps - 1}, less the 0 a failed pivot's step adds
        history = history[:max(steps - 1 - (failure is not None), 0)]
        converged = cap is None and failure is None
        if estimate is None:        # the latest increment stands in
            estimate = history[-1] if len(history) else np.inf
        value = theta_min = theta_max = math.nan
        if failure is None:
            try:
                eig = tridiag_eigen(state.tridiagonal(steps, column=j))
                theta_min, theta_max = float(eig.thetas[0]), float(eig.thetas[-1])
                value = self.norm_sq[j] * gauss_quadrature(eig, kind_function(r.kind))
            except SAMPLE_FAILURES as exc:
                converged, failure = False, f"{type(exc).__name__}: {exc}"
            else:
                failure = _ritz_outside(theta_min, theta_max, r.interval)
        return SampleRecord(
            index=self.index + j,
            value=float(value),
            steps_run=steps,
            retired_step=retired,
            error_estimate=float(abs(estimate) * self.norm_sq[j]),
            seed=self.seed,
            converged=converged,
            sign_flips=int(np.count_nonzero(history[1:] * history[:-1] < 0)),
            reorth_passes=int(self._passes[steps - 1][j]),
            replayed_steps=int(state.replayed_steps[j]),
            theta_min=theta_min,
            theta_max=theta_max,
            failure="; ".join(filter(None, (cap, failure))) or None,
        )


def sample_bilinear(op: LinearOperator, r: RationalApproximant, u, delta: float,
                    m_max: int = DEFAULT_M_MAX, index: int = 0, seed: int = 0) -> list:
    """Error-monitored Lanczos runs for a (b, n) block of probes.

    Returns the records: row j of ``u`` gets the record with index
    ``index + j``.  The probes share one Lanczos recurrence and one
    ErrorMonitor, and a probe leaves the block when it converges in the
    monitor, its run breaks down or it reaches min(m_max, n).  A record
    therefore equals the probe's own run as a block of one: bit for bit when
    each row of the operator's block apply equals its vector apply (every
    operator here but ``PreconditionedMatern``), to roundoff otherwise.
    This is one watch of a fresh ``ProbeBlock``; a run that goes on under
    another monitor is a ``ProbeBlock`` watched more than once.  A record's
    value is taken at the last step J = ``steps_run`` with the function f of
    r's kind (``kind_function(r.kind)``, not r itself) on the Ritz values;
    ``retired_step`` m and ``error_estimate`` are the step the monitor
    certified and its estimate there.  For log, sqrt and exp(-x), whose even
    derivatives keep one sign on [a, b], the Gauss quadrature error keeps
    its sign and shrinks as the step grows (Golub & Meurant, Matrices,
    Moments and Quadrature, 2010), so the error at J is at most the error at
    m; for tanh(sqrt(x)) the derivatives change sign and the gain is only
    measured.  That argument needs the Ritz values of T_J inside the
    interval [a, b] of r: a record whose extreme Ritz values leave it by
    more than RITZ_SLACK b keeps its value and names the breach in
    ``failure``.  Hitting m_max or n yields an unconverged record that
    says so in ``failure``, instead of an exception.  On breakdown the
    quadrature is exact and the certificate is a zero error estimate.  A
    probe whose pole recurrence breaks down (a PivotBreakdownError the
    monitor records), or whose eigensolver or quadrature raises one of
    SAMPLE_FAILURES, retires unconverged, with a NaN value and the error
    in ``failure``; the other probes go on.
    """
    return ProbeBlock(op, u, m_max, index=index, seed=seed).watch(r, delta)


def _statistics(records):
    """(count, mean, standard error) of the records that have a value."""
    values = np.array([rec.value for rec in records if not math.isnan(rec.value)])
    count = len(values)
    if count < 2:
        return count, math.nan, math.nan
    mean = float(np.sum(values) / count)
    return count, mean, float(np.sqrt(np.sum((values - mean) ** 2) / (count - 1)))


def _watch_probes(op: LinearOperator, r: RationalApproximant, delta: float, count: int,
                  seed: int, m_max: int, live: ProbeBlock | None = None, keep: int = 0):
    """(records in index order, seconds in the monitors, held block) of
    probes 0 .. count - 1 of ``seed`` watched at delta: the one place that
    lays out probe blocks.

    The blocks hold b = ``probe_block_size(max(count, keep), n)`` probes,
    block k probes k b .. (k + 1) b - 1, and all step in one basis buffer:
    that of ``live``, or else one of width b.  ``live`` is a block that
    stepped from a block boundary: its probes below count go on in its run,
    before the fresh blocks overwrite the buffer (and the ring) that run
    lives in.  ``keep`` is the probe count of an estimate that goes on with
    this walk: the last block keeps its columns, and is returned, only when
    it starts below ``keep``; otherwise the held block is None.
    """
    b = probe_block_size(max(count, keep), op.dim)
    buffer = BasisBuffer(op.dim, b) if live is None else live.buffer
    records, seconds, held = [], 0.0, None
    probes = np.empty((b, op.dim))
    taken = range(0)
    if live is not None:
        taken = range(live.index, min(count, live.index + len(live.norm_sq)))
        records = live.watch(r, delta, count=len(taken))
        seconds += live.monitor_seconds
    for start in range(0, count, b):
        stop = min(start + b, count)
        if start in taken:
            start = taken.stop
        if start < stop:
            u = probes[:stop - start]
            for j, row in enumerate(u):
                row[:] = rademacher_vector(op.dim, seed, index=start + j)
            block = ProbeBlock(op, u, m_max, buffer, index=start, seed=seed)
            held = block if stop == count and start < keep else None
            records += block.watch(r, delta, hold=held is not None)
            seconds += block.monitor_seconds
    records.sort(key=lambda rec: rec.index)
    return records, seconds, held


def estimate_trace_with(op: LinearOperator, r: RationalApproximant, N: int, delta: float,
                        alpha: float = DEFAULT_ALPHA, seed: int = 0,
                        m_max: int = DEFAULT_M_MAX,
                        pilot: ProbeBlock | None = None) -> TraceEstimate:
    """N independent error-monitored samples -> mean, standard error, interval.

    Probe i is ``rademacher_vector(n, seed, i)``, and each sample values the
    function of r's kind, ``kind_function(r.kind)``.  The probes run as
    ``ProbeBlock`` watches, each the run ``sample_bilinear`` makes, in the
    blocks of ``probe_block_size(N, n)`` probes that ``_watch_probes`` lays
    out and steps in its one basis buffer; the estimate reports that block
    size.  ``pilot`` is the live last block of a calibration pilot on the
    same probes, starting below N: its columns with an index below N go on
    in its run (see ``calibrate_delta``), the others stop, and the walker
    steps the remaining probes in that block's buffer.  The reduction order
    is fixed, so identical inputs reproduce the estimate bit for bit at a
    fixed BLAS thread count; the reductions inside the BLAS calls change
    order with the thread count, which moves the last bits.  The
    mean, standard error and half-width are those of the samples that have
    a value (NaN when fewer than two do).  ``time_error_estimate`` is the
    time in the monitors, and ``time_approx`` the rest of the call after the
    argument checks: probe draws, Lanczos steps, quadratures and statistics.

    The certificate rests on a bias of at most delta per sample, of which
    r's uniform error may take half: the run is certified only when no
    sample is flagged and ``r.eps <= rational_target(delta, n)`` =
    delta / (2 n).  An r of unknown (NaN) error does not certify.
    """
    _check_run(N, delta, alpha)
    tic = time.perf_counter()
    records, t_err, _ = _watch_probes(op, r, delta, N, seed, m_max, live=pilot)
    count, mean, std_err = _statistics(records)
    half = confidence_half_width(std_err, count, delta, alpha) if count >= 2 else math.nan
    return TraceEstimate(
        mean=mean,
        std_err=std_err,
        N=N,
        delta=delta,
        alpha=alpha,
        half_width=float(half),
        p_alpha=p_alpha(alpha),
        records=records,
        approximant=r,
        seed=seed,
        certified=(r.eps <= rational_target(delta, op.dim)
                   and all(rec.converged and rec.failure is None for rec in records)),
        time_approx=time.perf_counter() - tic - t_err,
        time_error_estimate=t_err,
        block_size=probe_block_size(N, op.dim),
    )


def rational_target(delta: float, dim: int) -> float:
    """The uniform error allowed to r_K: half the scaled tolerance
    delta / ||u||^2, with ||u||^2 = dim for Rademacher probes.

    The budget it sets: a sample valued with f at T_J differs from
    u^T f(A) u by at most the monitor's error at the retired step m, up to
    delta, plus eps ||u||^2 twice, once for f - r on A and once for f - r
    on the Ritz values of T_J, whose weights sum to ||u||^2; with
    eps <= delta / (2 dim) that is up to 2 delta in all, while the
    half-width adds delta.  For log, sqrt and exp(-x) the Gauss error at J
    is at most the error at m (see ``sample_bilinear``).  For
    tanh(sqrt(x)), whose derivatives change sign, only this budget bounds
    a sample's error.
    """
    return delta / (2.0 * dim)


def estimate_trace(op: LinearOperator, kind: str, N: int, delta: float | None, interval,
                   alpha: float = DEFAULT_ALPHA, seed: int = 0, m_max: int = DEFAULT_M_MAX,
                   n_pilot: int = DEFAULT_PILOT_N, beta: float = DEFAULT_BETA) -> TraceEstimate:
    """Algorithm driver for the four built-in function kinds.

    ``interval`` is the [a, b] the approximant is built on; the certificate
    holds only when it contains the spectrum.  The pole count K is the
    smallest in ``rational.K_SCHEDULE`` whose uniform error ``rational_eps``
    is at most ``rational_target(delta, n)`` = delta / (2 n), the share of
    the per-sample bias the certificate allows the approximant
    (``rational.choose_K``, which raises UnreachableAccuracyError when no K
    reaches it).  With delta None, a pilot of ``n_pilot`` probes at ``beta``
    sets it (``calibrate_delta``), and the pilot's last block of probes goes
    on into the estimate; the estimate then reports the pilot in
    ``calibration``.  The call is timed as one span after the argument
    checks: ``time_calibration`` is the pilot, ``time_error_estimate`` the
    estimate's time in its monitors, and ``time_approx`` the rest, so the
    three add up to the span.
    """
    _check_run(N, delta, alpha)
    tic = time.perf_counter()
    pilot = calibration = None
    time_calibration = 0.0
    if delta is None:
        delta, calibration, pilot = _calibrate(op, kind, interval, n_pilot, beta, alpha,
                                               N, N, seed, m_max)
        time_calibration = time.perf_counter() - tic
    r = rational.choose_K(kind, interval, rational_target(delta, op.dim))
    estimate = estimate_trace_with(op, r, N, delta, alpha=alpha, seed=seed, m_max=m_max,
                                   pilot=pilot)
    estimate.calibration = calibration
    estimate.time_calibration = time_calibration
    estimate.time_approx = (time.perf_counter() - tic - time_calibration
                            - estimate.time_error_estimate)
    return estimate


def _calibrate(op: LinearOperator, kind: str, interval, n_pilot: int, beta: float,
               alpha: float, production_n: int, keep: int, seed: int, m_max: int):
    """The pilot phase: (delta, the pilot's report, its live last block, or
    None when that block holds no probe of the estimate).  ``keep`` is the
    probe count of the estimate that goes on with the pilot's probes, 0 when
    none does.  ``_watch_probes`` lays out the pilot's blocks for
    max(n_pilot, keep) probes, so that they match the estimate's, and holds
    the last block only when it starts below ``keep``.

    The pilot tolerance is 1e-2 n max(|f(mid)|, f(a), 1e-12) on the
    interval [a, b] with midpoint mid: f(a) stands in where f(mid)
    underflows while the trace does not (exp_neg on a wide interval), and
    as f(a) is signed it never exceeds |f(mid)| for the increasing kinds."""
    if n_pilot < 2:
        raise ContractViolationError("pilot needs at least 2 samples")
    _require_positive("beta", beta)
    _require_positive("alpha", alpha)
    f = kind_function(kind)
    f_mid = float(np.asarray(f(0.5 * (interval[0] + interval[1]))))
    scale = max(abs(f_mid), float(np.asarray(f(interval[0]))), 1e-12)
    delta_pilot = 1e-2 * op.dim * scale
    r = rational.choose_K(kind, interval, rational_target(delta_pilot, op.dim))
    records, _, block = _watch_probes(op, r, delta_pilot, n_pilot, seed, m_max, keep=keep)
    _, _, std_err = _statistics(records)
    if not std_err > 0.0:
        raise CalibrationFailedError(
            f"pilot standard error is {std_err}; cannot calibrate a tolerance"
        )
    calibration = {
        "pilot_n": n_pilot,
        "beta": beta,
        "pilot_delta": delta_pilot,
        "pilot_K": r.K,
        "pilot_std_err": std_err,
        "pilot_average_steps": float(np.mean([rec.steps_run for rec in records])),
        "reused_probes": min(keep, n_pilot) - block.index if block else 0,
    }
    return float(beta * alpha * std_err / np.sqrt(production_n)), calibration, block


def calibrate_delta(op: LinearOperator, kind: str, interval, n_pilot: int = DEFAULT_PILOT_N,
                    beta: float = DEFAULT_BETA, alpha: float = DEFAULT_ALPHA,
                    production_n: int = DEFAULT_N, seed: int = 0,
                    m_max: int = DEFAULT_M_MAX) -> float:
    """Pilot run -> delta = beta alpha s / sqrt(N) for the production run.

    The pilot is the first phase of ``estimate_trace`` with delta None,
    stopped there: probes 0 .. n_pilot - 1 of ``seed`` run on ``interval``
    at the loose tolerance of the module docstring, with no certification;
    s is the standard error of their values.  ``production_n`` follows
    ``estimate_trace``'s rule, N >= 2, checked before the pilot runs.
    """
    _check_run(production_n, None, alpha)
    return _calibrate(op, kind, interval, n_pilot, beta, alpha, production_n, 0, seed,
                      m_max)[0]
