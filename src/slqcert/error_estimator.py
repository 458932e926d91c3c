"""Incremental-error recurrence and lookback convergence test.

An ``ErrorMonitor`` watches the columns of one block Lanczos run.  It
carries, for each column and each pole z_k of the rational approximant, one
LU pivot u_m and one resolvent entry eta_m = e_m^T (T_m - z_k I)^{-1} e_1,
continued per Lanczos step:

    u_m   = alpha_m - z_k - beta_m^2 / u_{m-1}
    eta_m = -beta_m eta_{m-1} / u_m

from which the one-step change of the quadrature value of r_K follows as

    d_{m-1} = -Re sum_k c_k beta_m eta_m^k eta_{m-1}^k

at O(K) cost per column and step, for all the columns fed at once.  Prefix
sums over the increments give any window d_{m, m'} in O(1), and the
lookback rule retires the latest step whose trailing window has both
dropped by the threshold ratio and summed below the tolerance.
``LOOKBACK_THRESHOLD`` = 0.1 is the estimator's one ratio: every monitor
above this layer uses it, and only ``ErrorMonitor``'s ``t`` takes another.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractViolationError, PivotBreakdownError
from .rational import RationalApproximant

PIVOT_GUARD = 1e-300

LOOKBACK_THRESHOLD = 0.1


class ErrorMonitor:
    """The incremental-error recurrence of the columns of one Lanczos run,
    all fed at every step.

    ``tol[j]`` is column j's scaled tolerance delta / ||u_j||^2, checked
    against its cumulative window (a scalar ``tol`` makes one column); ``t``
    is the lookback ratio threshold.  ``m`` is the last step fed, ``u[j]``
    and ``eta[j]`` column j's u_m and eta_m for every pole of
    ``approximant``, and ``history[j]`` its increments d_1 .. d_{m-1}.
    ``_failures`` maps a column j to the PivotBreakdownError of its first
    pivot below PIVOT_GUARD; from that step on the column's pivots are
    infinite, so its increments are exactly 0.
    """

    def __init__(self, approximant: RationalApproximant, tol,
                 t: float = LOOKBACK_THRESHOLD):
        if not 0 < t < 1:
            raise ContractViolationError(f"lookback threshold must be in (0,1), got {t}")
        self.approximant = approximant
        self.tol = np.atleast_1d(tol).astype(float)
        self.t = t
        b, K = len(self.tol), len(approximant.poles)
        self.m = 0
        self._failures = {}
        self.u, self.eta = np.zeros((2, b, K), dtype=complex)
        self._d = np.zeros((b, 16))          # _d[j, i - 1] = d_i of column j
        # _sums[j, i + 1] = d_1 + ... + d_i; _sums[j, 0] is NaN, the window of step 0
        self._sums = np.hstack([np.full((b, 1), np.nan), np.zeros((b, 17))])

    @property
    def history(self) -> np.ndarray:
        return self._d[:, :max(self.m - 1, 0)]

    def advance(self, alpha, beta):
        """Feed (alpha_m, beta_m) of Lanczos step m to every column, one
        entry each (scalars feed a monitor of one column); returns their
        d_{m-1} for m >= 2, else None.  ``beta`` is the off-diagonal *below*
        the new diagonal entry, i.e. the normalization produced by the
        previous step (0 for m = 1).  A column whose pivot falls below
        PIVOT_GUARD, for the first time, gets its PivotBreakdownError in
        ``_failures`` and infinite pivots; the other columns are unaffected."""
        alpha, beta = np.reshape(alpha, (-1, 1)), np.reshape(beta, (-1, 1))
        poles = self.approximant.poles
        # float_power is C pow, like a float's ** 2; an array's ** 2 is x * x, at times 1 ulp off
        u = (alpha - poles if self.m == 0
             else alpha - poles - np.float_power(beta, 2) / self.u)
        tiny = np.abs(u) < PIVOT_GUARD
        if np.count_nonzero(tiny):
            for j in np.flatnonzero(tiny.any(axis=1)).tolist():
                bad = poles[tiny[j]][0]
                self._failures.setdefault(j, PivotBreakdownError(
                    f"pivot underflow at step {self.m + 1} for pole {bad}", pole=bad, column=j))
                u[j] = np.inf
        if self.m == 0:
            self.u, self.eta, self.m = u, 1.0 / u, 1
            return None
        eta = -beta * self.eta / u
        d = -(self.approximant.coeffs * beta * eta * self.eta).sum(axis=-1).real
        self.u, self.eta = u, eta
        self._append(d, self.m - 1)
        return d

    def _append(self, d, n):
        """Record d as increment n + 1 of every column and count the step."""
        if n == self._d.shape[1]:
            self._d = np.pad(self._d, ((0, 0), (0, n)))
            self._sums = np.pad(self._sums, ((0, 0), (0, n)))
        self._d[:, n] = d
        self._sums[:, n + 2] = self._sums[:, n + 1] + d
        self.m = n + 2


def cumulative_error(monitor: ErrorMonitor, m: int, m_prime: int, column: int = 0) -> float:
    """d_{m, m'} = sum_{i=m}^{m'-1} d_i of the column via prefix sums (1-based)."""
    J = max(monitor.m - 1, 0)
    if not 1 <= m < m_prime <= J + 1:
        raise ContractViolationError(
            f"cumulative window [{m}, {m_prime}) invalid with {J} increments recorded")
    return float(monitor._sums[column, m_prime] - monitor._sums[column, m])


def lookback_check(monitor: ErrorMonitor):
    """Ratio test on the increment histories of every column, then the
    tolerance test: arrays over the columns of (converged, retired step,
    estimate), with 0 and NaN where no step passes the ratio.  A column
    that has failed, or is fed past its end, gets results its caller ignores.

    With J increments recorded, a column's candidate retirement step is the
    largest mbar < J whose increment dominates the latest one by the
    threshold: |d_J| <= t |d_mbar|.  (A zero latest increment qualifies
    against every earlier step.)  The step retires when the trailing window
    |d_{mbar, J}| = |sum_{i=mbar}^{J-1} d_i| falls below its tolerance.
    """
    J = monitor.m - 1
    d = np.abs(monitor._d[:, :max(J, 0)])
    hits = d[:, -1:] <= monitor.t * d[:, :-1]          # hits[:, i - 1]: step i dominates
    mbar = (hits * np.arange(1, J)).max(axis=1, initial=0)
    sums = monitor._sums
    estimate = sums[:, J] - sums[np.arange(len(mbar)), mbar]
    return np.abs(estimate) < monitor.tol, mbar, estimate
