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
    """The incremental-error recurrence of the columns of one Lanczos run.

    ``tol[j]`` is column j's scaled tolerance delta / ||u_j||^2, checked
    against its cumulative window (a scalar ``tol`` makes one column); ``t``
    is the lookback ratio threshold.  ``m[j]`` is the last step fed to
    column j, ``u[j]`` and ``eta[j]`` its u_m and eta_m for every pole of
    ``approximant``, ``history[j]`` its increments d_1 .. d_{m-1} and
    ``sign_flips[j]`` the sign changes between neighbours.
    """

    def __init__(self, approximant: RationalApproximant, tol,
                 t: float = LOOKBACK_THRESHOLD):
        if not 0 < t < 1:
            raise ContractViolationError(f"lookback threshold must be in (0,1), got {t}")
        self.approximant = approximant
        self.tol = np.atleast_1d(tol).astype(float)
        self.t = t
        b, K = len(self.tol), len(approximant.poles)
        self.m = np.zeros(b, dtype=int)
        self.u, self.eta = np.zeros((2, b, K), dtype=complex)
        self._d = np.zeros((b, 16))          # _d[j, i - 1] = d_i of column j
        # _sums[j, i + 1] = d_1 + ... + d_i; _sums[j, 0] is NaN, the window of step 0
        self._sums = np.hstack([np.full((b, 1), np.nan), np.zeros((b, 17))])

    @property
    def history(self) -> list:
        return [self._d[j, :n] for j, n in enumerate(np.maximum(self.m - 1, 0).tolist())]

    @property
    def sign_flips(self) -> np.ndarray:
        return np.array([np.count_nonzero(d[1:] * d[:-1] < 0) for d in self.history], dtype=int)

    def advance(self, alpha, beta, columns=slice(None)):
        """Feed (alpha_m, beta_m) of Lanczos step m to ``columns``, all at
        step m - 1, one entry each (scalars feed a monitor of one column);
        returns their d_{m-1} for m >= 2, else None.  ``beta`` is the
        off-diagonal *below* the new diagonal entry, i.e. the normalization
        produced by the previous step (0 for m = 1).  A pivot below
        PIVOT_GUARD raises PivotBreakdownError, whose ``column`` is the first
        column it broke, and leaves every column at step m - 1."""
        alpha, beta = np.reshape(alpha, (-1, 1)), np.reshape(beta, (-1, 1))
        step = int(self.m[columns][0])
        poles = self.approximant.poles
        # float_power is C pow, like a float's ** 2; an array's ** 2 is x * x, at times 1 ulp off
        u = (alpha - poles if step == 0
             else alpha - poles - np.float_power(beta, 2) / self.u[columns])
        tiny = np.abs(u) < PIVOT_GUARD
        if np.count_nonzero(tiny):
            row = int(np.argmax(tiny.any(axis=1)))
            bad = poles[tiny[row]][0]
            raise PivotBreakdownError(
                f"pivot underflow at step {step + 1} for pole {bad}", pole=bad,
                column=int(np.arange(len(self.m))[columns][row]))
        if step == 0:
            self.u[columns], self.eta[columns], self.m[columns] = u, 1.0 / u, 1
            return None
        eta_prev = self.eta[columns]
        eta = -beta * eta_prev / u
        d = -(self.approximant.coeffs * beta * eta * eta_prev).sum(axis=-1).real
        self.u[columns], self.eta[columns] = u, eta
        self._append(d, columns, step - 1)
        return d

    def _append(self, d, columns, n):
        """Record d as increment n + 1 of ``columns`` and count the step."""
        if n == self._d.shape[1]:
            self._d = np.pad(self._d, ((0, 0), (0, n)))
            self._sums = np.pad(self._sums, ((0, 0), (0, n)))
        self._d[columns, n] = d
        self._sums[columns, n + 2] = self._sums[columns, n + 1] + d
        self.m[columns] = n + 2


def cumulative_error(monitor: ErrorMonitor, m: int, m_prime: int, column: int = 0) -> float:
    """d_{m, m'} = sum_{i=m}^{m'-1} d_i of the column via prefix sums (1-based)."""
    J = max(int(monitor.m[column]) - 1, 0)
    if not 1 <= m < m_prime <= J + 1:
        raise ContractViolationError(
            f"cumulative window [{m}, {m_prime}) invalid with {J} increments recorded")
    return float(monitor._sums[column, m_prime] - monitor._sums[column, m])


def lookback_check(monitor: ErrorMonitor, columns=slice(None)):
    """Ratio test on the increment histories of ``columns``, all at one
    step, then the tolerance test: arrays over the columns of (converged,
    retired step, estimate), with 0 and NaN where no step passes the ratio.

    With J increments recorded, a column's candidate retirement step is the
    largest mbar < J whose increment dominates the latest one by the
    threshold: |d_J| <= t |d_mbar|.  (A zero latest increment qualifies
    against every earlier step.)  The step retires when the trailing window
    |d_{mbar, J}| = |sum_{i=mbar}^{J-1} d_i| falls below its tolerance.
    """
    J = int(monitor.m[columns][0]) - 1
    d = np.abs(monitor._d[columns, :max(J, 0)])
    hits = d[:, -1:] <= monitor.t * d[:, :-1]          # hits[:, i - 1]: step i dominates
    mbar = (hits * np.arange(1, J)).max(axis=1, initial=0)
    sums = monitor._sums[columns]
    estimate = sums[:, J] - sums[np.arange(len(mbar)), mbar]
    return np.abs(estimate) < monitor.tol[columns], mbar, estimate
