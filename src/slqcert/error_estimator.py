"""Incremental-error recurrence and lookback convergence test.

For each pole z_k of the rational approximant, one scalar LU pivot u_m and
one resolvent entry eta_m = e_m^T (T_m - z_k I)^{-1} e_1 are continued per
Lanczos step:

    u_m   = alpha_m - z_k - beta_m^2 / u_{m-1}
    eta_m = -beta_m eta_{m-1} / u_m

from which the one-step change of the quadrature value of r_K follows as

    d_{m-1} = -Re sum_k c_k beta_m eta_m^k eta_{m-1}^k

at O(K) cost per step.  Prefix sums over the increments give any window
d_{m, m'} in O(1), and the lookback rule retires the latest step whose
trailing window has both dropped by the threshold ratio and summed below
the tolerance.  ``LOOKBACK_THRESHOLD`` = 0.1 is the estimator's one ratio:
every monitor above this layer uses it, and only ``ErrorMonitor``'s ``t``
takes another.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ContractViolationError, PivotBreakdownError
from .rational import RationalApproximant

PIVOT_GUARD = 1e-300

LOOKBACK_THRESHOLD = 0.1


class PoleState:
    """Per-pole pivot and resolvent-entry state, vectorized over the poles."""

    def __init__(self, poles):
        self.poles = np.asarray(poles, dtype=complex)
        self.u = np.zeros_like(self.poles)
        self.eta = np.zeros_like(self.poles)
        self.eta_prev = np.zeros_like(self.poles)
        self.m = 0

    def update(self, alpha: float, beta: float, m: int):
        if m != self.m + 1:
            raise ContractViolationError(
                f"pivot update for step {m} but state is at step {self.m}"
            )
        if m == 1:
            self.u = alpha - self.poles
            self._guard()
            self.eta_prev = np.zeros_like(self.poles)
            self.eta = 1.0 / self.u
        else:
            self.u = alpha - self.poles - beta**2 / self.u
            self._guard()
            self.eta_prev = self.eta
            self.eta = -beta * self.eta / self.u
        self.m = m
        return self

    def _guard(self):
        tiny = np.abs(self.u) < PIVOT_GUARD
        if np.any(tiny):
            bad = self.poles[tiny][0]
            raise PivotBreakdownError(
                f"pivot underflow at step {self.m + 1} for pole {bad}", pole=bad
            )


@dataclass
class LookbackResult:
    converged: bool
    retired_step: int | None = None
    estimate: float | None = None


@dataclass
class ErrorMonitor:
    """History of incremental errors plus the lookback convergence test.

    ``tol`` is the scaled tolerance delta / ||u||^2 checked against the
    cumulative window; ``t`` is the lookback ratio threshold.
    """

    approximant: RationalApproximant
    tol: float
    t: float = LOOKBACK_THRESHOLD
    pole_state: PoleState = field(init=False)
    history: list = field(default_factory=list)
    prefix_sums: list = field(default_factory=list)
    sign_flips: int = 0

    def __post_init__(self):
        if not 0 < self.t < 1:
            raise ContractViolationError(f"lookback threshold must be in (0,1), got {self.t}")
        self.pole_state = PoleState(self.approximant.poles)

    def advance(self, alpha: float, beta: float) -> float | None:
        """Feed (alpha_m, beta_m) of Lanczos step m; returns d_{m-1} for m >= 2.

        ``beta`` is the off-diagonal *below* the new diagonal entry, i.e. the
        normalization produced by the previous step (0 for m = 1).
        """
        m = self.pole_state.m + 1
        self.pole_state.update(alpha, beta, m)
        if m == 1:
            return None
        return incremental_error(self, beta)


def incremental_error(monitor: ErrorMonitor, beta: float) -> float:
    """d_{m-1} = -Re sum_k c_k beta_m eta_m eta_{m-1}; appended to history."""
    ps = monitor.pole_state
    d = float(-np.sum(monitor.approximant.coeffs * beta * ps.eta * ps.eta_prev).real)
    if monitor.history and monitor.history[-1] * d < 0:
        monitor.sign_flips += 1
    monitor.history.append(d)
    prev = monitor.prefix_sums[-1] if monitor.prefix_sums else 0.0
    monitor.prefix_sums.append(prev + d)
    return d


def cumulative_error(monitor: ErrorMonitor, m: int, m_prime: int) -> float:
    """d_{m, m'} = sum_{i=m}^{m'-1} d_i via prefix sums (1-based indices)."""
    J = len(monitor.history)
    if not 1 <= m < m_prime <= J + 1:
        raise ContractViolationError(
            f"cumulative window [{m}, {m_prime}) invalid with {J} increments recorded"
        )
    upper = monitor.prefix_sums[m_prime - 2]
    lower = monitor.prefix_sums[m - 2] if m >= 2 else 0.0
    return float(upper - lower)


def lookback_check(monitor: ErrorMonitor) -> LookbackResult:
    """Ratio test on the increment history, then the tolerance test.

    With J increments recorded, the candidate retirement step is the largest
    mbar < J whose increment dominates the latest one by the threshold:
    |d_J| <= t |d_mbar|.  (A zero latest increment qualifies against every
    earlier step.)  The step retires when the trailing window
    |d_{mbar, J}| = |sum_{i=mbar}^{J-1} d_i| falls below the tolerance.
    """
    J = len(monitor.history)
    if J < 2:
        return LookbackResult(False)
    d_latest = abs(monitor.history[-1])
    mbar = None
    for cand in range(J - 1, 0, -1):
        if d_latest <= monitor.t * abs(monitor.history[cand - 1]):
            mbar = cand
            break
    if mbar is None:
        return LookbackResult(False)
    estimate = cumulative_error(monitor, mbar, J)
    return LookbackResult(abs(estimate) < monitor.tol, mbar, estimate)
