"""Three-term Lanczos recurrence with reorthogonalization, plus the Gauss
quadrature evaluation e1^T f(T_m) e1 on the resulting Jacobi matrix.

Reorthogonalization modes (each stores the whole basis):

* ``partial`` -- the default: track the loss-of-orthogonality recurrence
  (Simon, Math. Comp. 1984) and orthogonalize only when the estimated inner
  products exceed sqrt(machine epsilon), and on the step after.
* ``full``    -- orthogonalize every new vector against the whole basis;
  the reference the other modes are checked against.
* ``none``    -- plain recurrence, kept for the loss-of-orthogonality study;
  not for production estimates.

An orthogonalization is one pass, plus a second when the first removes most
of the vector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import (
    ContractViolationError,
    NumericalFailureError,
    QuadratureDomainError,
)
from .operators import LinearOperator

REORTH_MODES = ("none", "full", "partial")
DEFAULT_REORTH = "partial"

BREAKDOWN_REL_TOL = 1e-13

_EPS = np.finfo(float).eps
_SQRT_EPS = math.sqrt(_EPS)


@dataclass
class SymTridiagonal:
    """Jacobi matrix: diagonal alphas (m) and off-diagonal betas (m - 1)."""

    alphas: np.ndarray
    betas: np.ndarray

    def __post_init__(self):
        self.alphas = np.asarray(self.alphas, dtype=float)
        self.betas = np.asarray(self.betas, dtype=float)
        if len(self.betas) != max(len(self.alphas) - 1, 0):
            raise ContractViolationError(
                f"off-diagonal length {len(self.betas)} does not match order "
                f"{len(self.alphas)}"
            )

    @property
    def m(self) -> int:
        return len(self.alphas)

    def to_dense(self) -> np.ndarray:
        T = np.diag(self.alphas)
        if self.m > 1:
            T += np.diag(self.betas, 1) + np.diag(self.betas, -1)
        return T


@dataclass
class TridiagEigen:
    """Eigenvalues (ascending) and first components of orthonormal eigenvectors."""

    thetas: np.ndarray
    first_row: np.ndarray


def tridiag_eigen(T: SymTridiagonal) -> TridiagEigen:
    """All eigenvalues of T and the first row of its eigenvector matrix.

    LAPACK's tridiagonal divide and conquer (``scipy.linalg.eigh_tridiagonal``);
    the squared first row gives the Gauss quadrature weights.  A solver that
    does not converge raises NumericalFailureError.
    """
    if T.m < 1:
        raise ContractViolationError("tridiag_eigen needs order >= 1")
    try:
        thetas, Q = scipy.linalg.eigh_tridiagonal(T.alphas, T.betas)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailureError(f"tridiagonal eigensolver failed: {exc}") from exc
    return TridiagEigen(thetas, Q[0].copy())


def quadrature_value(T: SymTridiagonal, f) -> float:
    """Gauss-quadrature value e1^T f(T) e1 = sum_k S_1k^2 f(theta_k)."""
    eig = tridiag_eigen(T)
    with np.errstate(all="ignore"):
        values = np.asarray(f(eig.thetas), dtype=float)
    bad = ~np.isfinite(values)
    if np.any(bad):
        theta = eig.thetas[bad][0]
        raise QuadratureDomainError(
            f"f undefined at quadrature node theta={theta}", theta=theta
        )
    return float(np.sum(eig.first_row**2 * values))


class LanczosState:
    """State of one Lanczos run: stored basis, Jacobi coefficients, and the
    loss-of-orthogonality recurrence (partial mode)."""

    def __init__(self, op: LinearOperator, u, reorth_mode: str = DEFAULT_REORTH,
                 m_max: int = 2000):
        if reorth_mode not in REORTH_MODES:
            raise ContractViolationError(f"unknown reorth mode {reorth_mode!r}")
        u = np.asarray(u, dtype=float)
        norm = np.linalg.norm(u)
        if norm == 0.0:
            raise ContractViolationError("Lanczos start vector must be nonzero")
        if u.shape != (op.dim,):
            raise ContractViolationError(
                f"start vector shape {u.shape} does not match operator dim {op.dim}"
            )
        self.op = op
        self.norm_sq = float(norm**2)
        self.reorth_mode = reorth_mode
        self.m_max = int(m_max)
        self.m = 0
        self.alphas: list = []
        self.betas: list = []          # betas[j] = beta_{j+2}
        self.breakdown = False
        self._norm_estimate = 0.0
        self._capacity = 16
        self._basis = np.empty((self._capacity, op.dim))
        self._basis[0] = u / norm
        self._nstored = 1
        # partial-mode state: omega rows for the two latest vectors
        self._omega_prev = np.zeros(0)
        self._omega_cur = np.ones(1)
        self._force_reorth = False

    # -- basis bookkeeping -------------------------------------------------

    def basis(self) -> np.ndarray:
        return self._basis[: self._nstored]

    def _append_vector(self, w, beta):
        """Store w / beta as the next basis vector, written in place."""
        if self._nstored == self._capacity:
            self._capacity = min(max(2 * self._capacity, 16), max(self.m_max + 1, 16))
            grown = np.empty((self._capacity, self.op.dim))
            grown[: self._nstored] = self._basis[: self._nstored]
            self._basis = grown
        np.divide(w, beta, out=self._basis[self._nstored])
        self._nstored += 1

    def tridiagonal(self, m: int | None = None) -> SymTridiagonal:
        m = self.m if m is None else m
        if not 1 <= m <= self.m:
            raise ContractViolationError(f"no Jacobi matrix of order {m} available")
        return SymTridiagonal(np.array(self.alphas[:m]), np.array(self.betas[: m - 1]))

    # -- reorthogonalization ----------------------------------------------

    def _orthogonalize(self, w, upto):
        V = self._basis[:upto]
        w -= V.T @ (V @ w)
        return w

    def _omega_advance(self, beta_next):
        """One row of the loss-of-orthogonality recurrence (partial mode)."""
        k = self.m            # just completed step k >= 1, have omega rows k-1, k
        alphas, betas = self.alphas, self.betas
        beta_next = max(beta_next, 1e-300)
        omega_new = np.empty(k + 1)
        omega_new[k] = 1.0
        # local loss eps ||A|| / beta_{k+1}; beta_2 in place of ||A|| misses it
        # when the whole spectrum is narrow
        omega_new[k - 1] = _EPS * self.op.dim * self._norm_estimate / beta_next
        if k >= 2:
            beta_j1 = np.array(betas[:k - 1])        # beta_{j+2} linking j+1,j+2
            omega_down = np.concatenate([[0.0], self._omega_cur[: k - 2]])
            beta_jm = np.concatenate([[0.0], betas[: k - 2]])
            alpha_j = np.array(alphas[: k - 1])
            noise = _EPS * 0.3 * (beta_j1 + beta_next)
            omega_new[: k - 1] = (
                beta_j1 * self._omega_cur[1:k]
                + (alpha_j - alphas[k - 1]) * self._omega_cur[:k - 1]
                + beta_jm * omega_down
                - betas[k - 2] * self._omega_prev[: k - 1]
            ) / beta_next + noise
        self._omega_prev = self._omega_cur
        self._omega_cur = omega_new

    def max_basis_inner_product(self) -> float:
        """max_{j<k} |v_j . v_k| against the newest vector (testing hook)."""
        if self._nstored < 2:
            return 0.0
        V = self._basis[: self._nstored - 1]
        return float(np.max(np.abs(V @ self._basis[self._nstored - 1])))


def lanczos_init(op: LinearOperator, u, reorth_mode: str = DEFAULT_REORTH,
                 m_max: int = 2000) -> LanczosState:
    """Normalize the start vector; record ||u||^2 for the bilinear form."""
    return LanczosState(op, u, reorth_mode=reorth_mode, m_max=m_max)


def lanczos_step(state: LanczosState):
    """One Lanczos step: returns (alpha_m, beta_{m+1}).

    On breakdown (beta below the scale-aware tolerance) the subspace is
    invariant and the quadrature exact: the state is flagged, beta_{m+1} = 0
    is returned, and no further step is allowed.
    """
    if state.breakdown:
        raise ContractViolationError("Lanczos run already terminated by breakdown")
    if state.m >= state.op.dim:
        raise ContractViolationError("cannot exceed the operator dimension")
    if state.m >= state.m_max:
        raise ContractViolationError(f"m_max={state.m_max} steps exhausted")
    k = state.m
    v = state._basis[k]
    w = state.op(v)
    alpha = float(v @ w)
    w -= alpha * v
    if k > 0:
        w -= state.betas[k - 1] * state._basis[k - 1]
    state._norm_estimate = max(state._norm_estimate,
                               abs(alpha) + (state.betas[k - 1] if k > 0 else 0.0))

    beta = float(np.linalg.norm(w))
    state.alphas.append(alpha)
    state.m += 1

    reorth = state.reorth_mode == "full"
    if state.reorth_mode == "partial":
        state._omega_advance(beta)
        reorth = state._force_reorth or np.max(np.abs(state._omega_cur[:-1])) > _SQRT_EPS
        if reorth:
            state._force_reorth = not state._force_reorth
            state._omega_cur[:-1] = _EPS
    if reorth:
        w = state._orthogonalize(w, state.m)
        beta_before, beta = beta, float(np.linalg.norm(w))
        if beta < beta_before / math.sqrt(2.0):
            w = state._orthogonalize(w, state.m)
            beta = float(np.linalg.norm(w))

    if beta <= BREAKDOWN_REL_TOL * max(state._norm_estimate, 1.0):
        state.breakdown = True
        return alpha, 0.0
    state.betas.append(beta)
    state._append_vector(w, beta)
    return alpha, beta


def bilinear_estimate(state: LanczosState, f) -> float:
    """||u||^2 e1^T f(T_m) e1 for the current Jacobi matrix."""
    if state.m < 1:
        raise ContractViolationError("no Lanczos steps taken yet")
    return state.norm_sq * quadrature_value(state.tridiagonal(), f)


def lanczos_steps(op: LinearOperator, u, reorth_mode: str = DEFAULT_REORTH,
                  m_max: int = 2000):
    """The Lanczos loop: yields (state, alpha_m, beta_m) after each step.

    beta_m is the off-diagonal above alpha_m (0 at m = 1), the pair that
    ``ErrorMonitor.advance`` takes.  The loop runs at most min(m_max, op.dim)
    steps and ends after a breakdown step, whose quadrature is exact.
    """
    if m_max < 1:
        raise ContractViolationError(f"m_max must be >= 1, got {m_max}")
    state = lanczos_init(op, u, reorth_mode=reorth_mode, m_max=m_max)
    beta = 0.0
    for _ in range(min(m_max, op.dim)):
        alpha, beta_next = lanczos_step(state)
        yield state, alpha, beta
        if state.breakdown:
            return
        beta = beta_next


def lanczos_run(op: LinearOperator, u, steps: int,
                reorth_mode: str = DEFAULT_REORTH) -> LanczosState:
    """Run up to min(steps, op.dim) Lanczos steps (stops early on breakdown)."""
    for state, _, _ in lanczos_steps(op, u, reorth_mode, steps):
        pass
    return state
