"""Matrix-free symmetric operators: the 2D Dirichlet Laplacian, the
Matern covariance operator on scattered grid sites, and that operator with
a pivoted-Cholesky preconditioner applied on both sides.

The preconditioner serves the log-determinant.  With P = L_k L_k^T + tau I,
L_k the rank-k pivoted Cholesky factor of the kernel part of A (A less its
nugget tau),

    log det A = log det P + tr log(P^{-1/2} A P^{-1/2}),

where log det P is exact and the trace is left to the Lanczos estimator.
A - P is the Schur complement of the pivoted block of the kernel matrix,
which is positive semidefinite, so every eigenvalue of B = P^{-1/2} A
P^{-1/2} is at least 1: the lower end a = 1 of the spectrum interval is
certified rather than estimated.

The rank is min(PRECONDITIONER_RANK, n // 3).  A higher rank narrows the
spectrum of B, so each probe takes fewer Lanczos steps, at O(n) more per
apply and a larger O(n k^2) setup; the n // 3 cap keeps B away from the
identity on small site sets, whose probes would all return the same sample.

Operators are immutable after construction.  ``matvec(x, out=None)`` takes
a (b, n) block of b vectors, one per row, and only reads operator state;
with ``out`` it writes A x into that buffer and returns it, so concurrent
calls are safe only on distinct ``out`` buffers.  Calling an operator
applies it to one vector or to a block.
"""

from __future__ import annotations

import numpy as np
# numpy 2 loads these submodules on first use; importing them here keeps
# that out of the first Matern apply and the first site draw
import numpy.fft  # noqa: F401
import numpy.random  # noqa: F401

from .errors import ContractViolationError, UnsupportedParameterError
from .oracles import DENSE_ORACLE_MAX_DIM


class LinearOperator:
    """Matrix-free symmetric operator: a dimension and an apply map.

    ``matvec(x, out=None)`` takes a (b, dim) block whose rows are b
    vectors, and gives A x row by row in a fresh array, or written into
    ``out`` and ``out`` returned.  ``out`` has the shape of ``x``, its rows
    are contiguous, it does not overlap ``x``, and every entry is
    overwritten.  Rows are independent: a row of the result does not depend
    on the other rows of the block.  Calling the operator takes one vector
    of length ``dim`` or a block, checks its shape and returns A x in a
    fresh array of that shape; a vector is applied as a block of one.

    Subclasses implement either ``_apply(x, out)`` for one vector, and
    inherit a ``matvec`` that applies it to each row of a block, or
    ``matvec`` itself.  ``spd_hint`` asserts symmetric
    positive-definiteness; only ``trace_estimator.estimate_spectrum_interval``
    reads it, and refuses an operator without it.
    """

    def __init__(self, dim: int, spd_hint: bool = True):
        if dim < 1:
            raise ContractViolationError(f"operator dimension must be >= 1, got {dim}")
        self.dim = int(dim)
        self.spd_hint = bool(spd_hint)

    def matvec(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        if out is None:
            out = np.empty(x.shape)
        for row, row_out in zip(x, out):
            self._apply(row, row_out)
        return out

    def _apply(self, x: np.ndarray, out: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def __call__(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.ndim not in (1, 2) or x.shape[-1] != self.dim:
            raise ContractViolationError(
                f"operator of dim {self.dim} applied to an array of shape {x.shape}"
            )
        return self.matvec(x) if x.ndim == 2 else self.matvec(x[None])[0]


class DenseOperator(LinearOperator):
    """Wrap an explicit symmetric matrix in the operator contract."""

    def __init__(self, matrix, spd_hint: bool = True):
        matrix = np.asarray(matrix, dtype=float)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise ContractViolationError("DenseOperator needs a square matrix")
        super().__init__(matrix.shape[0], spd_hint)
        self.matrix = matrix

    def _apply(self, x, out):
        return np.matmul(self.matrix, x, out=out)


class Laplacian2D(LinearOperator):
    """Five-point Dirichlet Laplacian on an n1 x n2 grid.

    Lexicographic ordering with the first index fastest: entry (i, j) of the
    grid sits at flat position j * n1 + i, matching the Kronecker sum
    I_{n2} (x) L_{n1} + L_{n2} (x) I_{n1} with L = tridiag(-1, 2, -1).
    The stencil is applied in O(n); no matrix is assembled.
    """

    def __init__(self, n1: int, n2: int):
        if n1 < 1 or n2 < 1:
            raise ContractViolationError("grid sides must be positive")
        super().__init__(n1 * n2, spd_hint=True)
        self.n1 = int(n1)
        self.n2 = int(n2)

    def matvec(self, x, out=None):
        # One subtraction per neighbour over the flat vector: numpy ran these
        # about 4x faster than over the (n2, n1 - 1) views a shift along a
        # grid row needs (300 x 400 grid, one thread).  The flat shift by one
        # also couples the last site of a grid row to the first of the next,
        # so the first and last columns are recomputed after it.  Every entry
        # gets 4 x - left - right - below - above in that order, which is the
        # view form's result bit for bit.  A block runs the same elementwise
        # updates along its last axis, so each row equals its own apply.
        if out is None:
            out = np.empty(x.shape)
        n1, n2 = self.n1, self.n2
        X, Y = x.reshape(-1, n2, n1), out.reshape(-1, n2, n1)
        np.multiply(x, 4.0, out=out)
        out[:, 1:] -= x[:, :-1]
        np.multiply(X[:, 1:, 0], 4.0, out=Y[:, 1:, 0])
        out[:, :-1] -= x[:, 1:]
        np.multiply(X[:, :-1, -1], 4.0, out=Y[:, :-1, -1])
        if n1 > 1:
            Y[:, :-1, -1] -= X[:, :-1, -2]
        out[:, n1:] -= x[:, :-n1]
        out[:, :-n1] -= x[:, n1:]
        return out


_SQRT3 = np.sqrt(3.0)
_SQRT5 = np.sqrt(5.0)

SUPPORTED_NU = (0.5, 1.5, 2.5)

# the rows ``MaternOperator.dense_matrix`` fills per block, so each of the
# kernel's temporaries holds 32 rows rather than n
DENSE_BLOCK_ROWS = 32


def matern_kernel(r, nu: float, tau: float):
    """Matern correlation phi(r) for half-integer nu, plus nugget at r = 0.

    r is the elliptical distance (already scaled by the lengthscales);
    closed forms cover nu in {0.5, 1.5, 2.5}.
    """
    r = np.asarray(r, dtype=float)
    if np.any(r < 0):
        raise ContractViolationError("matern_kernel needs r >= 0")
    if tau < 0:
        raise ContractViolationError("nugget must be nonnegative")
    if nu == 0.5:
        val = np.exp(-r)
    elif nu == 1.5:
        val = (1.0 + _SQRT3 * r) * np.exp(-_SQRT3 * r)
    elif nu == 2.5:
        val = (1.0 + _SQRT5 * r + 5.0 * r**2 / 3.0) * np.exp(-_SQRT5 * r)
    else:
        raise UnsupportedParameterError(
            f"smoothness nu={nu} not supported; use one of {SUPPORTED_NU}"
        )
    val = val + tau * (r == 0)
    return val if val.ndim else float(val)


def sample_sites(n1: int, n2: int, fraction: float, seed: int) -> np.ndarray:
    """Uniform sample without replacement of max(1, round(fraction n1 n2))
    sites of an n1 x n2 grid, n1, n2 >= 1 and 0 < fraction <= 1, as sorted
    flat indices.

    The 64-bit seed fully determines the sample (counter-based generator),
    so site sets are reproducible across runs and platforms.
    """
    if not 0 <= seed < 2**64:
        raise ContractViolationError(f"site seed must lie in [0, 2^64), got {seed}")
    if not 0 < fraction <= 1:
        raise ContractViolationError(f"site fraction must lie in (0, 1], got {fraction}")
    if n1 < 1 or n2 < 1:
        raise ContractViolationError(f"site grid must be at least 1 x 1, got {n1} x {n2}")
    total = n1 * n2
    count = max(1, int(round(fraction * total)))
    rng = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
    sites = rng.choice(total, size=count, replace=False)
    return np.sort(sites)


class MaternOperator(LinearOperator):
    """Matern covariance matrix on scattered sites of a regular grid.

    The full-grid kernel matrix is block Toeplitz; embedding it in a
    (2 n1) x (2 n2) block-circulant array (Dietrich & Newsam, SISC 1997)
    makes the matvec a convolution done by FFTs.  Scattered sites are
    handled by scatter/gather around the grid matvec, which reproduces the
    exact kernel-matrix product up to roundoff.

    The data fill only the first n1 x n2 quarter of the embedding and only
    that quarter of the result is read, so the apply runs four 1-D
    transforms that skip the rest: a real FFT of length 2 n2 on the n1 data
    rows, a complex FFT of length 2 n1 down the columns (whose last n1
    entries are zero), the inverse of that, and an inverse real FFT on the
    first n1 rows only.  The embedded kernel block is even along both axes, so
    its transform ``symbol`` is real and is stored as a real array of shape
    (2 n1, n2 + 1).

    ``ell1`` scales offsets along the second grid axis (length n2) and
    ``ell2`` scales offsets along the first (length n1); the experiments
    use ell1 = 0.4 n2 and ell2 = 0.4 n1.  Both are positive and finite, and
    the nugget tau is finite and nonnegative.
    """

    def __init__(self, grid, sites, ell1: float, ell2: float, nu: float = 1.5,
                 tau: float = 0.0):
        n1, n2 = int(grid[0]), int(grid[1])
        sites = np.asarray(sites, dtype=np.int64)
        if sites.size == 0:
            raise ContractViolationError("site list must not be empty")
        # a sort, not np.unique, which loads numpy.ma on its first call
        ordered = np.sort(sites)
        if np.any(ordered[1:] == ordered[:-1]):
            raise ContractViolationError("sites must be distinct")
        if sites.min() < 0 or sites.max() >= n1 * n2:
            raise ContractViolationError("site index outside the grid")
        if not (0 < ell1 < np.inf and 0 < ell2 < np.inf):
            raise ContractViolationError(
                f"lengthscales must be positive and finite, got {ell1} and {ell2}")
        if not 0 <= tau < np.inf:
            raise ContractViolationError(f"nugget tau must be finite and >= 0, got {tau}")
        super().__init__(len(sites), spd_hint=True)
        self.grid = (n1, n2)
        self.sites = sites
        self.ell = (float(ell1), float(ell2))
        self.nu = float(nu)
        self.tau = float(tau)
        # even reflection of the kernel row onto a (2 n1) x (2 n2) circulant
        d1 = np.minimum(np.arange(2 * n1), 2 * n1 - np.arange(2 * n1))
        d2 = np.minimum(np.arange(2 * n2), 2 * n2 - np.arange(2 * n2))
        r = np.sqrt((d1[:, None] / ell2) ** 2 + (d2[None, :] / ell1) ** 2)
        block = matern_kernel(r, nu, tau)
        self.symbol = np.ascontiguousarray(np.fft.rfft2(block).real)
        # flat positions of the sites in the (n1, 2 n2) inverse transform
        self._gather = (sites // n2) * (2 * n2) + sites % n2
        # grid coordinates of the sites, as floats for the kernel rows
        self._coords = np.stack([sites // n2, sites % n2], axis=1).astype(float)

    def _apply(self, x, out):
        n1, n2 = self.grid
        grid = np.zeros((n1, n2))
        grid.reshape(-1)[self.sites] = x
        # every transform but the last writes into this call's own spectrum,
        # whose rows n1 .. 2 n1 - 1 stay zero as the column transform's
        # padding; fft(n=2 n1) and a fresh array per transform made the
        # FFTs of the 90 x 120 benchmark workload 15-20% slower (one
        # thread of a 2-core x86-64 host)
        spec = np.zeros((2 * n1, n2 + 1), dtype=complex)
        np.fft.rfft(grid, n=2 * n2, axis=1, out=spec[:n1])
        np.fft.fft(spec, axis=0, out=spec)
        spec *= self.symbol
        np.fft.ifft(spec, axis=0, out=spec)
        conv = np.fft.irfft(spec[:n1], n=2 * n2, axis=1)
        # the indices are in range; mode "raise" would buffer a copy of out
        return np.take(conv.reshape(-1), self._gather, out=out, mode="clip")

    def kernel_rows(self, rows, tau: float = 0.0) -> np.ndarray:
        """Rows ``rows`` (an index list or a slice) of the kernel matrix with
        nugget tau, at O(n) per row."""
        coords = self._coords
        d1 = coords[rows, None, 0] - coords[None, :, 0]
        d2 = coords[rows, None, 1] - coords[None, :, 1]
        r = np.sqrt((d1 / self.ell[1]) ** 2 + (d2 / self.ell[0]) ** 2)
        return matern_kernel(r, self.nu, tau)

    def dense_matrix(self) -> np.ndarray:
        """Assemble the kernel matrix on the sites (test oracle; O(n^2)),
        up to the oracles' cap ``DENSE_ORACLE_MAX_DIM``.

        The rows are filled DENSE_BLOCK_ROWS at a time, so the temporaries
        of ``kernel_rows`` stay a few rows long and the result is the only
        n x n array; every entry is the one ``kernel_rows`` gives."""
        if self.dim > DENSE_ORACLE_MAX_DIM:
            raise ContractViolationError(
                f"dense assembly capped at {DENSE_ORACLE_MAX_DIM}, operator has dim "
                f"{self.dim}"
            )
        matrix = np.empty((self.dim, self.dim))
        for start in range(0, self.dim, DENSE_BLOCK_ROWS):
            rows = slice(start, start + DENSE_BLOCK_ROWS)
            matrix[rows] = self.kernel_rows(rows, tau=self.tau)
        return matrix


def build_matern_operator(grid, sites, ell1, ell2, nu=1.5, tau=0.0) -> MaternOperator:
    """Construct the scattered-site Matern operator with a cached FFT symbol."""
    return MaternOperator(grid, sites, ell1, ell2, nu, tau)


# the largest rank of the Matern preconditioner; n // 3 caps it on small sets
PRECONDITIONER_RANK = 512


def pivoted_cholesky(op: MaternOperator, rank: int) -> np.ndarray:
    """Rows of the rank-k pivoted Cholesky factor of the kernel part of op.

    Returns a (k, n) array F with F^T F the greedy low-rank approximation of
    the kernel matrix without the nugget (Harbrecht, Peters & Schneider,
    Appl. Numer. Math. 2012): each step takes the largest residual diagonal
    entry as pivot and one kernel row, O(n) to form and O(n k) to update,
    O(n k^2) in total.  The factor stops short of ``rank`` rows once the
    largest residual pivot is not positive.
    """
    factor = np.zeros((rank, op.dim))
    residual = np.full(op.dim, matern_kernel(0.0, op.nu, 0.0))
    for i in range(rank):
        pivot = int(np.argmax(residual))
        if residual[pivot] <= 0.0:
            return factor[:i]
        row = op.kernel_rows([pivot])[0]
        row -= factor[:i, pivot] @ factor[:i]
        factor[i] = row / np.sqrt(residual[pivot])
        residual -= factor[i] ** 2
        residual[pivot] = 0.0
    return factor


class PreconditionedMatern(LinearOperator):
    """B = P^{-1/2} A P^{-1/2} for a Matern operator A with nugget tau > 0.

    P = L_k L_k^T + tau I with L_k from ``pivoted_cholesky`` at rank
    min(PRECONDITIONER_RANK, n // 3); ``residual_trace`` is tr S for the
    kernel residual S = K - L_k L_k^T, 0 to rounding when the factor stopped
    short of that rank.  A thin SVD L_k = U S V^T gives

        P^{-1/2} x = tau^{-1/2} x + U ((S^2 + tau)^{-1/2} - tau^{-1/2}) U^T x,
        log det P  = sum_i log(s_i^2 + tau) + (n - k) log tau,

    both exact; only U and the k scale factors are kept.  Every eigenvalue
    of B is at least 1 (see the module docstring).  An apply costs one
    Matern apply plus O(n k) per vector; at k = 0, B = A / tau.  On a
    (b, n) block P^{-1/2} is one (b, n) (n, k) and one (b, k) (k, n)
    product, which streams U once per block instead of once per vector;
    the Matern apply stays row by row, since a block FFT along the leading
    axis was slower per vector than one FFT at a time.  A block row agrees
    with that row's apply as a block of one to roundoff, not bit for bit.
    """

    def __init__(self, base: MaternOperator):
        if not base.tau > 0:
            raise ContractViolationError(
                f"the preconditioner needs a positive nugget tau, got {base.tau}")
        super().__init__(base.dim, spd_hint=True)
        self.base = base
        factor = pivoted_cholesky(base, min(PRECONDITIONER_RANK, base.dim // 3))
        self.rank = len(factor)
        self.residual_trace = float(base.dim * matern_kernel(0.0, base.nu, 0.0)
                                    - np.vdot(factor, factor))
        tau = base.tau
        # the thin SVD of L_k = factor.T (n x k); P^{-1/2} reads its left factor
        self._u, s, _ = np.linalg.svd(factor.T, full_matrices=False)
        self._inv_sqrt_tau = 1.0 / np.sqrt(tau)
        self._scale = 1.0 / np.sqrt(s**2 + tau) - self._inv_sqrt_tau
        self.logdet = float(np.sum(np.log(s**2 + tau))
                            + (base.dim - self.rank) * np.log(tau))

    def inv_sqrt(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """P^{-1/2} x for a (b, n) block x in O(n k) per vector, into
        ``out`` when it is given."""
        out = np.multiply(x, self._inv_sqrt_tau, out=out)
        out += (x @ self._u) * self._scale @ self._u.T
        return out

    def matvec(self, x, out=None):
        return self.inv_sqrt(self.base.matvec(self.inv_sqrt(x)), out=out)
