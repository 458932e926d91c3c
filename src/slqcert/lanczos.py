"""Three-term Lanczos recurrence with reorthogonalization, plus the Gauss
quadrature evaluation e1^T f(T_m) e1 on the resulting Jacobi matrix.

Reorthogonalization modes (each reads the whole basis it orthogonalizes
against; see below for when that basis is stored):

* ``partial`` -- the default: track the loss-of-orthogonality recurrence
  (Simon, Math. Comp. 1984) and orthogonalize only when the estimated inner
  products exceed sqrt(machine epsilon), and on the step after.
* ``full``    -- orthogonalize every new vector against the whole basis;
  the reference the other modes are checked against.
* ``none``    -- plain recurrence, kept for the loss-of-orthogonality study;
  not for production estimates.

An orthogonalization is one pass, plus a second when the first removes most
of the vector.  ``DEFAULT_REORTH`` (partial) is the estimator's one policy:
every run above this layer uses it, and only this layer's ``reorth_mode``
arguments reach ``full`` and ``none``.

A run steps a (b, n) block of b start vectors as b columns that share one
recurrence; a single probe is a block of one.  Each step applies the
operator once to the block of the active columns' newest vectors.
Vectorized over the block are the three-term updates, the normalization and
the loss-of-orthogonality recurrence; elementwise, they give each column the
numbers it would get alone.  Kept per column are the alpha inner product,
the beta norm, the reorthogonalization (only for the columns whose estimate
calls for it) and the breakdown test.  A column leaves the block when its
caller clears it from ``LanczosState.active`` or it breaks down; the
operator then sees only the active rows.  So a column's coefficients do
not depend on the block it ran in whenever each row of the operator's
block apply equals its vector apply.  The coefficients of a step come back
as arrays over the columns, and ``LanczosState.tridiagonal(m, column)``
reads one column's Jacobi matrix.

A step allocates no vector of the operator's length while the active
columns are adjacent (a column retired from inside the block makes the
step gather the others): the operator writes A v_m straight into the next
row of the basis, the three-term and orthogonalization updates run in
place through numpy's ``out=`` arguments and the work rows of the buffer,
and the rows are normalized where they lie.  The package runs on numpy
alone, so a run holds one OpenBLAS thread pool, numpy's, which the Matern
preconditioner's SVD uses too; scipy ships a threaded OpenBLAS of its
own, and two pools alternating once per update stall each other by
orders of magnitude when the thread count is not pinned.  The basis lives
in a ``BasisBuffer`` of fixed 16-row chunks that never move: a step past
the last chunk appends one instead of copying the basis, which keeps a
copy off the peak memory.  A caller running many probes on one operator
passes the same buffer to each run, so the later runs reuse memory that
is already allocated and touched.

The basis is stored only when something reads it.  A run of one column on
an operator longer than ``PROBE_BLOCK_ELEMENTS`` (one probe of the 300 x 400
Laplacian keeps 40 MB of basis that its 0 reorthogonalization passes never
read) steps in the buffer's ring: its start row and three working rows, and
no chunk.  The first reorthogonalization or ``basis()`` call rebuilds rows
0 .. m - 1 in the chunks by replaying the recurrence from the start, moves
the newest row m over, and the run keeps every row from then on.  The
replay calls the step's own three-term update, ``_three_term``, with the
stored alphas and betas, and divides by the stored betas as the step
does.  It is exact: no reorthogonalization has run before it, so each row
was made by that update and division, and the replay runs the same code on
the same numbers, which gives the same row bit for bit whenever the apply
is a function of its input alone, as every operator's in ``operators`` is
at a fixed BLAS thread count.  It costs m - 1 applies, which
``replayed_steps`` counts.  Any other run stores its basis from the
start; the choice depends on the input's shape alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ContractViolationError,
    NumericalFailureError,
    QuadratureDomainError,
)
from .operators import LinearOperator

REORTH_MODES = ("none", "full", "partial")
DEFAULT_REORTH = "partial"
DEFAULT_M_MAX = 2000

BREAKDOWN_REL_TOL = 1e-13

_EPS = np.finfo(float).eps
_SQRT_EPS = math.sqrt(_EPS)
_NOISE = _EPS * 0.3          # the rounding noise of one omega update, per unit beta

# The probe budget, in vector elements, of a Lanczos step's block.  The
# trace estimator runs probes in blocks of b = min(N, max(1,
# PROBE_BLOCK_ELEMENTS // n)), so that the four block rows a step touches
# (v_{m-1}, v_m, A v_m and the work rows) take at most 1 MiB, half of a
# 2 MiB L2.  An operator of dimension above it runs one probe at a time,
# and that run keeps its basis, tens of MB per probe, only once
# reorthogonalization or ``basis()`` reads it (see the module docstring).
PROBE_BLOCK_ELEMENTS = 2**15


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
        m = self.m
        T = np.zeros((m, m))
        T.flat[:: m + 1] = self.alphas
        T.flat[1 :: m + 1] = self.betas
        T.flat[m :: m + 1] = self.betas
        return T


@dataclass
class TridiagEigen:
    """Eigenvalues (ascending) and first components of orthonormal eigenvectors."""

    thetas: np.ndarray
    first_row: np.ndarray


def tridiag_eigen(T: SymTridiagonal) -> TridiagEigen:
    """All eigenvalues of T and the first row of its eigenvector matrix.

    LAPACK's symmetric divide and conquer (dsyevd, through ``np.linalg.eigh``)
    on the dense m x m Jacobi matrix; the squared first row gives the Gauss
    quadrature weights.  A non-finite entry of T, or a solver that does not
    converge, raises NumericalFailureError.

    The dense solve is O(m^3) where LAPACK's tridiagonal solvers are
    O(m^2).  It runs once per sample; with one BLAS thread on a 2-core
    x86-64 host it took 0.6 ms at m = 80, 2.1 ms at m = 150 and 24 ms at
    m = 500, against 0.3, 1.0 and 6.1 ms for the tridiagonal solver that
    scipy wraps, and the same time as that solver up to m = 40.
    """
    if T.m < 1:
        raise ContractViolationError("tridiag_eigen needs order >= 1")
    dense = T.to_dense()
    if not np.isfinite(dense).all():
        raise NumericalFailureError("tridiagonal eigensolver got a non-finite entry")
    try:
        thetas, Q = np.linalg.eigh(dense)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailureError(f"tridiagonal eigensolver failed: {exc}") from exc
    return TridiagEigen(thetas, Q[0].copy())


def quadrature_value(T: SymTridiagonal, f) -> float:
    """Gauss-quadrature value e1^T f(T) e1 = sum_k S_1k^2 f(theta_k)."""
    return gauss_quadrature(tridiag_eigen(T), f)


def gauss_quadrature(eig: TridiagEigen, f) -> float:
    """``quadrature_value`` from T's eigensolve ``eig``; f undefined at a
    node raises QuadratureDomainError."""
    with np.errstate(all="ignore"):
        values = np.asarray(f(eig.thetas), dtype=float)
    bad = ~np.isfinite(values)
    if np.any(bad):
        theta = eig.thetas[bad][0]
        raise QuadratureDomainError(
            f"f undefined at quadrature node theta={theta}", theta=theta
        )
    return float(np.sum(eig.first_row**2 * values))


class BasisBuffer:
    """Rows of Lanczos basis vectors for runs on operators of one dimension.

    Row k is a (width, dim) block: the k-th basis vector of each of up to
    ``width`` columns.  It is row ``k % CHUNK_ROWS`` of chunk
    ``k // CHUNK_ROWS``; ``row(k)`` appends chunks until that one exists.
    Chunks never move, so a growth copies nothing, and the buffer keeps
    them, so the next run on it pays no allocation or first touch.  Rows
    past the current run's vectors hold stale vectors of an earlier run;
    nothing reads them.  ``work`` is scratch for one block update.
    ``ring()`` is RING_ROWS rows, allocated on first use, for a run that
    stores no basis (see ``LanczosState``): its start and three working
    rows.
    """

    CHUNK_ROWS = 16
    RING_ROWS = 4

    def __init__(self, dim: int, width: int = 1):
        self.chunks: list = []
        self.work = np.empty((width, dim))
        self._ring = None

    @property
    def dim(self) -> int:
        return self.work.shape[1]

    @property
    def width(self) -> int:
        return self.work.shape[0]

    def row(self, k: int) -> np.ndarray:
        c, i = divmod(k, self.CHUNK_ROWS)
        while len(self.chunks) <= c:
            self.chunks.append(np.empty((self.CHUNK_ROWS, self.width, self.dim)))
        return self.chunks[c][i]

    def ring(self) -> np.ndarray:
        if self._ring is None:
            self._ring = np.empty((self.RING_ROWS, self.width, self.dim))
        return self._ring

    def column(self, j: int, count: int) -> list:
        """Views of rows 0 .. count - 1 of column j, one (rows, dim) view per chunk."""
        return [chunk[: count - c * self.CHUNK_ROWS, j]
                for c, chunk in enumerate(self.chunks) if c * self.CHUNK_ROWS < count]


class LanczosState:
    """State of one Lanczos run of a block of columns: the basis, the
    Jacobi coefficients and the loss-of-orthogonality recurrence (partial
    mode).

    The start is a (b, n) block of b nonzero vectors; a single probe is a
    block of one.  ``steps[j]`` counts the steps of column j and ``m`` the
    steps of the block; ``breakdown`` and ``reorth_passes`` are arrays over
    the columns, and ``tridiagonal(m, column)`` and ``basis(column)`` read
    one column.  ``active`` marks the columns the next step advances; a
    caller clears an entry to retire that column, and ``lanczos_steps``
    clears it after the column's breakdown step.

    The basis lives in ``buffer``, which the state borrows: without one the
    state allocates its own.  A buffer shared by several runs holds only the
    latest run's basis, so ``basis()`` of an earlier state is overwritten
    once the next run on that buffer steps.  A run of one column on an
    operator of dimension above ``PROBE_BLOCK_ELEMENTS`` steps in the
    buffer's ring instead, and stores rows 0 .. m only when
    reorthogonalization or ``basis()`` first needs them, by an exact replay
    (see the module docstring); ``replayed_steps`` counts each column's
    applies of that replay.
    """

    def __init__(self, op: LinearOperator, u, reorth_mode: str = DEFAULT_REORTH,
                 m_max: int = DEFAULT_M_MAX, buffer: BasisBuffer | None = None):
        if reorth_mode not in REORTH_MODES:
            raise ContractViolationError(f"unknown reorth mode {reorth_mode!r}")
        block = np.asarray(u, dtype=float)
        if block.ndim != 2 or block.shape[1] != op.dim or len(block) == 0:
            raise ContractViolationError(
                f"start block of shape {block.shape} is not (b, n) with b >= 1 and "
                f"n = {op.dim}"
            )
        norms = [np.linalg.norm(row) for row in block]
        if min(norms) == 0.0:
            raise ContractViolationError("Lanczos start vector must be nonzero")
        b = len(block)
        if buffer is None:
            buffer = BasisBuffer(op.dim, b)
        elif buffer.dim != op.dim or buffer.width < b:
            raise ContractViolationError(
                f"basis buffer of dim {buffer.dim} and width {buffer.width} does not "
                f"hold {b} columns of dim {op.dim}"
            )
        self.op = op
        self.reorth_mode = reorth_mode
        self.m_max = int(m_max)
        self.m = 0
        self.steps = np.zeros(b, dtype=int)
        self.active = np.ones(b, dtype=bool)
        self.breakdown = np.zeros(b, dtype=bool)
        self.reorth_passes = np.zeros(b, dtype=int)    # passes against the basis
        self.replayed_steps = np.zeros(b, dtype=int)   # applies that rebuilt it
        cap = max(1, min(self.m_max, op.dim))
        self._alphas = np.zeros((b, cap))       # _alphas[:, j] = alpha_{j+1}
        self._betas = np.zeros((b, cap + 1))    # _betas[:, j] = beta_{j+1}; beta_1 = 0
        self._norm_estimate = np.zeros(b)
        self._buffer = buffer
        # ring slot 0 holds the start, slots 1 .. 3 the rows k >= 1 in turn
        self._ring = buffer.ring() if b == 1 and op.dim > PROBE_BLOCK_ELEMENTS else None
        np.divide(block, np.array(norms)[:, None], out=self.row(0)[:b])
        # partial-mode state: omega rows of each column for its two latest
        # vectors, entry j in column j + 1 behind a column of zeros
        self._omega_prev = np.zeros((b, cap + 2))
        self._omega_cur = np.zeros((b, cap + 2))
        self._omega_cur[:, 1] = 1.0
        self._force_reorth = np.zeros(b, dtype=bool)

    # -- basis bookkeeping -------------------------------------------------

    def row(self, k: int) -> np.ndarray:
        """Row k of the basis, (width, dim): in the ring while the run stores
        no basis, else in the buffer's chunks."""
        if self._ring is None:
            return self._buffer.row(k)
        return self._ring[0 if k == 0 else 1 + (k - 1) % 3]

    def _materialize(self) -> np.ndarray:
        """Store the basis from here on; returns row m.

        A run in the ring replays rows 1 .. m - 1 into the chunks from the
        start: each row is ``lanczos_step``'s own three-term update,
        ``_three_term``, with the stored alpha and beta, divided by the
        stored next beta.  The start and the newest row m move there too.
        """
        if self._ring is not None:
            start, newest = self._ring[0, :1], self.row(self.m)[:1]
            self._ring = None
            buffer = self._buffer
            buffer.row(0)[:1] = start
            for k in range(self.m - 1):
                W = buffer.row(k + 1)[:1]
                _three_term(self.op, buffer.row(k)[:1], W,
                            buffer.row(k - 1)[:1] if k > 0 else None,
                            self._betas[:, k], buffer.work[:1], self._alphas[:, k])
                np.divide(W, self._betas[:, k + 1, None], out=W)
            self.replayed_steps[0] += max(self.m - 1, 0)
            buffer.row(self.m)[:1] = newest
        return self.row(self.m)

    def basis(self, column: int = 0) -> np.ndarray:
        """A copy of the column's stored basis vectors, one per row."""
        self._materialize()
        stored = self.steps[column] + (not self.breakdown[column])
        return np.concatenate(self._buffer.column(column, stored))

    def tridiagonal(self, m: int | None = None, column: int = 0) -> SymTridiagonal:
        m = self.steps[column] if m is None else m
        if not 1 <= m <= self.steps[column]:
            raise ContractViolationError(f"no Jacobi matrix of order {m} available")
        return SymTridiagonal(self._alphas[column, :m].copy(),
                              self._betas[column, 1:m].copy())

    # -- reorthogonalization ----------------------------------------------

    def _orthogonalize(self, column: int, w):
        """w -= V^T (V w) in place over the column's first m basis vectors,
        with V taken chunk by chunk."""
        self.reorth_passes[column] += 1
        parts = self._buffer.column(column, self.m)
        coeffs = [V @ w for V in parts]
        work = self._buffer.work[0]
        for V, c in zip(parts, coeffs):
            np.subtract(w, np.matmul(c, V, out=work), out=w)

    def _omega_advance(self, sel, beta_next) -> np.ndarray:
        """One row of the loss-of-orthogonality recurrence (partial mode) for
        the active columns, which ``sel`` selects; returns which of them to
        reorthogonalize."""
        k = self.m            # just completed step k >= 1, have omega rows k-1, k
        beta_next = np.maximum(beta_next, 1e-300)[:, None]
        # the new row replaces row k-1; a gathered set is written back below
        cur = self._omega_cur[sel, : k + 2]
        new = self._omega_prev[sel, : k + 2]
        if k >= 2:
            alphas = self._alphas[sel, :k]
            betas = self._betas[sel, :k]                 # beta_1 = 0, ..., beta_k
            new[:, 1:k] = (
                betas[:, 1:] * cur[:, 2:k + 1]
                + (alphas[:, :-1] - alphas[:, -1:]) * cur[:, 1:k]
                + betas[:, :-1] * cur[:, : k - 1]
                - betas[:, -1:] * new[:, 1:k]
            ) / beta_next + _NOISE * (betas[:, 1:] + beta_next)
        # local loss eps ||A|| / beta_{k+1}; beta_2 in place of ||A|| misses it
        # when the whole spectrum is narrow
        new[:, k] = _EPS * self.op.dim * self._norm_estimate[sel] / beta_next[:, 0]
        new[:, k + 1] = 1.0
        reorth = self._force_reorth[sel] | (np.abs(new[:, 1:k + 1]).max(axis=1) > _SQRT_EPS)
        if np.count_nonzero(reorth):
            self._force_reorth[sel] ^= reorth
            new[reorth, 1:k + 1] = _EPS
        if isinstance(sel, np.ndarray):
            self._omega_prev[sel, : k + 2] = new
        self._omega_prev, self._omega_cur = self._omega_cur, self._omega_prev
        return reorth


def _three_term(op: LinearOperator, V, W, V_prev, beta, work, alpha=None) -> np.ndarray:
    """W = A V - alpha V - beta V_prev, row by row, with ``work`` holding each
    product before its subtraction; V_prev None drops the beta term.  alpha
    None takes each row's v^T A v.  Returns alpha."""
    op.matvec(V, out=W)
    if alpha is None:
        alpha = np.array([v @ w for v, w in zip(V, W)])
    np.subtract(W, np.multiply(V, alpha[:, None], out=work), out=W)
    if V_prev is not None:
        np.subtract(W, np.multiply(V_prev, beta[:, None], out=work), out=W)
    return alpha


def lanczos_step(state: LanczosState):
    """One Lanczos step of every active column: returns (alpha_m, beta_{m+1}),
    arrays over the columns, 0 for the columns that did not step.

    On breakdown (beta below the scale-aware tolerance) the column's
    subspace is invariant and its quadrature exact: the column is flagged,
    its beta_{m+1} is 0, and it takes no further step.
    """
    idx = state.active.nonzero()[0]
    if len(idx) == 0:
        raise ContractViolationError("no active column to step")
    if np.count_nonzero(state.breakdown[idx]):
        raise ContractViolationError("Lanczos run already terminated by breakdown")
    k = state.m
    if k >= state.op.dim:
        raise ContractViolationError("cannot exceed the operator dimension")
    if k >= state.m_max:
        raise ContractViolationError(f"m_max={state.m_max} steps exhausted")
    # a contiguous run of active columns is a view of the rows; any other
    # set is gathered, and its new vectors are scattered back at the end
    contiguous = idx[-1] - idx[0] + 1 == len(idx)
    sel = slice(idx[0], idx[-1] + 1) if contiguous else idx
    V = state.row(k)[sel]
    W = state.row(k + 1)[sel] if contiguous else np.empty_like(V)
    beta_prev = state._betas[sel, k]
    alpha = _three_term(state.op, V, W, state.row(k - 1)[sel] if k > 0 else None,
                        beta_prev, state._buffer.work[: len(idx)])
    norm_estimate = np.maximum(state._norm_estimate[sel], np.abs(alpha) + beta_prev)
    state._norm_estimate[sel] = norm_estimate

    beta = np.array([np.linalg.norm(w) for w in W])
    state._alphas[sel, k] = alpha
    state.m += 1
    state.steps[sel] += 1

    if state.reorth_mode == "partial":
        reorth = state._omega_advance(sel, beta)
    else:
        reorth = np.full(len(idx), state.reorth_mode == "full")
    if state._ring is not None and np.count_nonzero(reorth):
        W = state._materialize()[sel]   # a ring run is one column: W is row k + 1
    for i in np.flatnonzero(reorth):
        state._orthogonalize(idx[i], W[i])
        beta_before, beta[i] = beta[i], np.linalg.norm(W[i])
        if beta[i] < beta_before / math.sqrt(2.0):
            state._orthogonalize(idx[i], W[i])
            beta[i] = np.linalg.norm(W[i])

    broke = beta <= BREAKDOWN_REL_TOL * np.maximum(norm_estimate, 1.0)
    state.breakdown[idx[broke]] = True
    beta[broke] = 0.0
    np.divide(W, np.where(broke, 1.0, beta)[:, None], out=W)
    state._betas[sel, k + 1] = beta
    if not contiguous:
        state._buffer.row(k + 1)[idx] = W
    return state._alphas[:, k].copy(), state._betas[:, k + 1].copy()


def lanczos_steps(op: LinearOperator, u, reorth_mode: str = DEFAULT_REORTH,
                  m_max: int = DEFAULT_M_MAX, buffer: BasisBuffer | None = None):
    """The Lanczos loop: yields the state after each step.

    ``u`` is a (b, n) block of start vectors.  The loop runs at most
    min(m_max, op.dim) steps and retires a column after its breakdown step,
    whose quadrature is exact; the caller may retire a column between steps
    by clearing its ``state.active`` entry.  The loop ends when no column is
    active.  A step's coefficients are read from the state: ``ProbeBlock``
    feeds its monitor the followed columns' entries of ``state._alphas`` and
    ``state._betas``.  The basis goes into ``buffer`` when one is given (see
    ``LanczosState``).
    """
    if m_max < 1:
        raise ContractViolationError(f"m_max must be >= 1, got {m_max}")
    state = LanczosState(op, u, reorth_mode=reorth_mode, m_max=m_max, buffer=buffer)
    for _ in range(min(m_max, op.dim)):
        lanczos_step(state)
        yield state
        state.active &= ~state.breakdown
        if not np.count_nonzero(state.active):
            return


def lanczos_run(op: LinearOperator, u, steps: int,
                reorth_mode: str = DEFAULT_REORTH) -> LanczosState:
    """Run up to min(steps, op.dim) Lanczos steps of the (b, n) block ``u``;
    a column stops early on breakdown."""
    for state in lanczos_steps(op, u, reorth_mode, steps):
        pass
    return state
