"""Incremental-error recurrence and lookback convergence test.

An ``ErrorMonitor`` carries, for each pole z_k of the rational approximant,
one scalar LU pivot u_m and one resolvent entry
eta_m = e_m^T (T_m - z_k I)^{-1} e_1, continued per Lanczos step:

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

from dataclasses import dataclass

import numpy as np

from .errors import ContractViolationError, PivotBreakdownError
from .rational import RationalApproximant

PIVOT_GUARD = 1e-300

LOOKBACK_THRESHOLD = 0.1


@dataclass
class LookbackResult:
    converged: bool
    retired_step: int | None = None
    estimate: float | None = None


class ErrorMonitor:
    """The incremental-error recurrence of one Lanczos run, plus its history.

    ``m`` is the last step fed; ``u`` and ``eta`` hold u_m and eta_m for
    every pole of ``approximant``.  ``history`` holds d_1 .. d_{m-1},
    ``prefix_sums`` their running sums and ``sign_flips`` the sign changes
    between neighbours.  ``tol`` is the scaled tolerance delta / ||u||^2
    checked against the cumulative window; ``t`` is the lookback ratio
    threshold.
    """

    def __init__(self, approximant: RationalApproximant, tol: float,
                 t: float = LOOKBACK_THRESHOLD):
        if not 0 < t < 1:
            raise ContractViolationError(f"lookback threshold must be in (0,1), got {t}")
        self.approximant = approximant
        self.tol = tol
        self.t = t
        self.m = 0
        self.u = self.eta = np.zeros(len(approximant.poles), dtype=complex)
        self.history = []
        self.prefix_sums = []
        self.sign_flips = 0

    def advance(self, alpha: float, beta: float) -> float | None:
        """Feed (alpha_m, beta_m) of Lanczos step m; returns d_{m-1} for m >= 2.

        ``beta`` is the off-diagonal *below* the new diagonal entry, i.e. the
        normalization produced by the previous step (0 for m = 1).  A pivot
        below PIVOT_GUARD raises PivotBreakdownError and leaves the monitor
        at step m - 1.
        """
        poles = self.approximant.poles
        u = alpha - poles if self.m == 0 else alpha - poles - beta**2 / self.u
        tiny = np.abs(u) < PIVOT_GUARD
        if np.any(tiny):
            bad = poles[tiny][0]
            raise PivotBreakdownError(
                f"pivot underflow at step {self.m + 1} for pole {bad}", pole=bad
            )
        eta_prev = self.eta
        self.u = u
        self.eta = 1.0 / u if self.m == 0 else -beta * eta_prev / u
        self.m += 1
        if self.m == 1:
            return None
        d = float(-np.sum(self.approximant.coeffs * beta * self.eta * eta_prev).real)
        if self.history and self.history[-1] * d < 0:
            self.sign_flips += 1
        self.history.append(d)
        self.prefix_sums.append((self.prefix_sums[-1] if self.prefix_sums else 0.0) + d)
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
