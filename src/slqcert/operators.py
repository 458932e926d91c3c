"""Matrix-free symmetric operators: the 2D Dirichlet Laplacian and the
Matern covariance operator on scattered grid sites.

Operators are immutable after construction; ``matvec`` only reads state and
is safe to call concurrently on distinct input vectors.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractViolationError, UnsupportedParameterError


class LinearOperator:
    """Matrix-free symmetric operator: a dimension and an apply map.

    Subclasses implement ``matvec``.  ``spd_hint`` asserts symmetric
    positive-definiteness; the trace estimator requires it.
    """

    def __init__(self, dim: int, spd_hint: bool = True):
        if dim < 1:
            raise ContractViolationError(f"operator dimension must be >= 1, got {dim}")
        self.dim = int(dim)
        self.spd_hint = bool(spd_hint)

    def matvec(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def __call__(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dim,):
            raise ContractViolationError(
                f"operator of dim {self.dim} applied to vector of shape {x.shape}"
            )
        return self.matvec(x)


class DenseOperator(LinearOperator):
    """Wrap an explicit symmetric matrix in the operator contract."""

    def __init__(self, matrix, spd_hint: bool = True):
        matrix = np.asarray(matrix, dtype=float)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise ContractViolationError("DenseOperator needs a square matrix")
        super().__init__(matrix.shape[0], spd_hint)
        self.matrix = matrix

    def matvec(self, x):
        return self.matrix @ x


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

    def matvec(self, x):
        X = x.reshape(self.n2, self.n1)
        Y = 4.0 * X
        Y[:, 1:] -= X[:, :-1]
        Y[:, :-1] -= X[:, 1:]
        Y[1:, :] -= X[:-1, :]
        Y[:-1, :] -= X[1:, :]
        return Y.reshape(-1)


_SQRT3 = np.sqrt(3.0)
_SQRT5 = np.sqrt(5.0)

SUPPORTED_NU = (0.5, 1.5, 2.5)


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
    """Uniform sample without replacement of grid sites, sorted flat indices.

    The 64-bit seed fully determines the sample (counter-based generator),
    so site sets are reproducible across runs and platforms.
    """
    total = n1 * n2
    count = max(1, int(round(fraction * total)))
    rng = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
    sites = rng.choice(total, size=count, replace=False)
    return np.sort(sites)


class MaternOperator(LinearOperator):
    """Matern covariance matrix on scattered sites of a regular grid.

    The full-grid kernel matrix is block Toeplitz; embedding it in a
    (2 n1) x (2 n2) block-circulant array makes the matvec two FFTs.
    Scattered sites are handled by scatter/gather around the grid matvec,
    which reproduces the exact kernel-matrix product up to roundoff.

    ``ell1`` scales offsets along the second grid axis (length n2) and
    ``ell2`` scales offsets along the first (length n1); the experiments
    use ell1 = 0.4 n2 and ell2 = 0.4 n1.
    """

    def __init__(self, grid, sites, ell1: float, ell2: float, nu: float = 1.5,
                 tau: float = 0.0):
        n1, n2 = int(grid[0]), int(grid[1])
        sites = np.asarray(sites, dtype=np.int64)
        if sites.size == 0:
            raise ContractViolationError("site list must not be empty")
        if len(np.unique(sites)) != len(sites):
            raise ContractViolationError("sites must be distinct")
        if sites.min() < 0 or sites.max() >= n1 * n2:
            raise ContractViolationError("site index outside the grid")
        if ell1 <= 0 or ell2 <= 0:
            raise ContractViolationError("lengthscales must be positive")
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
        self.symbol = np.fft.rfft2(block)

    def matvec(self, x):
        n1, n2 = self.grid
        grid_vec = np.zeros(n1 * n2)
        grid_vec[self.sites] = x
        padded = np.zeros((2 * n1, 2 * n2))
        padded[:n1, :n2] = grid_vec.reshape(n1, n2)
        conv = np.fft.irfft2(np.fft.rfft2(padded) * self.symbol, s=(2 * n1, 2 * n2))
        return conv[:n1, :n2].reshape(-1)[self.sites]

    def site_coordinates(self) -> np.ndarray:
        n2 = self.grid[1]
        return np.stack([self.sites // n2, self.sites % n2], axis=1)

    def dense_matrix(self, max_dim: int = 4000) -> np.ndarray:
        """Assemble the kernel matrix on the sites (test oracle; O(n^2))."""
        if self.dim > max_dim:
            raise ContractViolationError(
                f"dense assembly capped at {max_dim}, operator has dim {self.dim}"
            )
        coords = self.site_coordinates().astype(float)
        d1 = coords[:, None, 0] - coords[None, :, 0]
        d2 = coords[:, None, 1] - coords[None, :, 1]
        r = np.sqrt((d1 / self.ell[1]) ** 2 + (d2 / self.ell[0]) ** 2)
        return matern_kernel(r, self.nu, self.tau)


def build_matern_operator(grid, sites, ell1, ell2, nu=1.5, tau=0.0) -> MaternOperator:
    """Construct the scattered-site Matern operator with a cached FFT symbol."""
    return MaternOperator(grid, sites, ell1, ell2, nu, tau)
