"""Independent ground truth for tests and table reproduction.

The 2D Dirichlet Laplacian has a known spectrum, so traces and bilinear
forms can be computed exactly: traces by summing f over the eigenvalue
grid, bilinear forms through the orthonormal type-I discrete sine
transform (the eigenvector basis), applied along each grid axis as a
product with the symmetric n x n sine matrix.  Small dense problems get
full eigendecomposition or Cholesky references from numpy's LAPACK.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractViolationError, NumericalFailureError

DENSE_ORACLE_MAX_DIM = 4000


def laplacian_eigenvalues_1d(n: int) -> np.ndarray:
    """Spectrum of tridiag(-1, 2, -1) of order n: 4 sin^2(k pi / (2(n+1)))."""
    k = np.arange(1, n + 1)
    return 4.0 * np.sin(k * np.pi / (2.0 * (n + 1))) ** 2


def laplacian_extreme_eigenvalues(n1: int, n2: int):
    """(lambda_min, lambda_max) of the 2D Laplacian on an n1 x n2 grid."""
    lam1 = laplacian_eigenvalues_1d(n1)
    lam2 = laplacian_eigenvalues_1d(n2)
    return float(lam1[0] + lam2[0]), float(lam1[-1] + lam2[-1])


def exact_trace_laplacian(f, n1: int, n2: int) -> float:
    """tr f(A) for the 2D Laplacian by direct sum over the eigenvalue grid."""
    lam1 = laplacian_eigenvalues_1d(n1)
    lam2 = laplacian_eigenvalues_1d(n2)
    return float(np.sum(f(lam1[:, None] + lam2[None, :])))


def _dst1_matrix(n: int) -> np.ndarray:
    """The orthonormal DST-I matrix S_jk = sqrt(2/(n+1)) sin(pi j k/(n+1)),
    j, k = 1 .. n: the eigenvectors of tridiag(-1, 2, -1), symmetric and its
    own inverse.  j k is reduced modulo 2(n + 1), the sine's period, so
    every argument lies in [0, 2 pi)."""
    jk = np.outer(np.arange(1, n + 1), np.arange(1, n + 1)) % (2 * (n + 1))
    return np.sqrt(2.0 / (n + 1)) * np.sin(np.pi / (n + 1) * jk)


def exact_bilinear_laplacian(f, n1: int, n2: int, v) -> float:
    """v^T f(A) v for the 2D Laplacian through the sine transform.

    The orthonormal DST-I diagonalizes A, so the bilinear form is the sum
    of f over the eigenvalue grid weighted by squared transform
    coefficients, S_{n2} V S_{n1} for V the (n2, n1) view of v, at
    O(n1 n2 (n1 + n2)).  Vector layout matches Laplacian2D (first index
    fastest).
    """
    v = np.asarray(v, dtype=float)
    if v.shape != (n1 * n2,):
        raise ContractViolationError(
            f"expected vector of length {n1 * n2}, got shape {v.shape}"
        )
    omega = _dst1_matrix(n2) @ v.reshape(n2, n1) @ _dst1_matrix(n1)
    lam1 = laplacian_eigenvalues_1d(n1)
    lam2 = laplacian_eigenvalues_1d(n2)
    return float(np.sum(omega**2 * f(lam2[:, None] + lam1[None, :])))


class DenseFOracle:
    """Eigendecomposition reference for a small dense symmetric matrix.

    The constructor computes eigenvalues only, which is all ``trace``
    needs; ``bilinear`` runs the full eigendecomposition on each call.  The
    oracle keeps a reference to ``matrix``, which must not be mutated
    afterwards.
    """

    def __init__(self, matrix, f):
        matrix = np.asarray(matrix, dtype=float)
        if matrix.shape[0] != matrix.shape[1]:
            raise ContractViolationError("dense oracle needs a square matrix")
        if matrix.shape[0] > DENSE_ORACLE_MAX_DIM:
            raise ContractViolationError(
                f"dense oracle capped at dim {DENSE_ORACLE_MAX_DIM}"
            )
        self.matrix = matrix
        self.eigenvalues = _dense_eigh(np.linalg.eigvalsh, matrix)
        self.f = f
        self.f_eigenvalues = np.asarray(f(self.eigenvalues), dtype=float)

    def trace(self) -> float:
        return float(np.sum(self.f_eigenvalues))

    def bilinear(self, u) -> float:
        eigenvalues, eigenvectors = _dense_eigh(np.linalg.eigh, self.matrix)
        w = eigenvectors.T @ np.asarray(u, dtype=float)
        return float(np.sum(w**2 * np.asarray(self.f(eigenvalues), dtype=float)))


def _dense_eigh(solver, matrix):
    try:
        return solver(matrix)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailureError(f"dense eigensolver failed: {exc}") from exc


def dense_f_oracle(matrix, f) -> DenseFOracle:
    return DenseFOracle(matrix, f)


def dense_logdet(matrix) -> float:
    """log det of a small dense SPD matrix via Cholesky.

    numpy's LAPACK wrapper factors a copy of ``matrix`` and returns the
    factor in another, so while it runs the oracle holds two n x n arrays
    besides its argument, which it leaves as it was.
    """
    matrix = np.asarray(matrix, dtype=float)
    if matrix.shape[0] > DENSE_ORACLE_MAX_DIM:
        raise ContractViolationError(f"dense logdet capped at dim {DENSE_ORACLE_MAX_DIM}")
    try:
        chol = np.linalg.cholesky(matrix)
    except np.linalg.LinAlgError as exc:
        raise ContractViolationError(f"matrix is not positive definite: {exc}") from exc
    return float(2.0 * np.sum(np.log(np.diag(chol))))
