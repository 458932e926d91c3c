import numpy as np

from slqcert.lanczos import DEFAULT_REORTH, PROBE_BLOCK_ELEMENTS, LanczosState
from slqcert.operators import LinearOperator


def dense_laplacian(n1, n2):
    """Kronecker-sum assembly of the 2D Dirichlet Laplacian (test oracle)."""
    L1 = 2 * np.eye(n1) - np.eye(n1, k=1) - np.eye(n1, k=-1)
    L2 = 2 * np.eye(n2) - np.eye(n2, k=1) - np.eye(n2, k=-1)
    return np.kron(np.eye(n2), L1) + np.kron(L2, np.eye(n1))


FUNCTIONS = {
    "exp_neg": lambda x: np.exp(-x),
    "sqrt": np.sqrt,
    "log": np.log,
    "tanh_sqrt": lambda x: np.tanh(np.sqrt(x)),
}


def random_spd(dim, rng, shift=0.5):
    X = rng.standard_normal((dim, dim))
    return X @ X.T / dim + shift * np.eye(dim)


def max_basis_inner_product(state, column=0):
    """max_{j<k} |v_j . v_k| of the column's stored basis against its newest vector."""
    V = state.basis(column)
    if len(V) < 2:
        return 0.0
    return float(np.max(np.abs(V[:-1] @ V[-1])))


def force_reorth_mode(monkeypatch, mode):
    """Make every LanczosState built from here on run ``mode``, whatever its
    caller passes: the estimator above the Lanczos layer has one policy."""
    init = LanczosState.__init__

    def forced(self, op, u, reorth_mode=DEFAULT_REORTH, *args, **kwargs):
        init(self, op, u, mode, *args, **kwargs)

    monkeypatch.setattr(LanczosState, "__init__", forced)


class DiagonalOperator(LinearOperator):
    """diag(d), applied elementwise."""

    def __init__(self, d):
        super().__init__(len(d))
        self.d = np.asarray(d, dtype=float)

    def matvec(self, x, out=None):
        return np.multiply(self.d, x, out=out)


def large_diagonal():
    """A diagonal operator longer than PROBE_BLOCK_ELEMENTS whose spectrum is
    a bulk on [1, 2] and 20 separated eigenvalues 2.5, 3, ..., 12: those
    converge within a few steps each, so partial reorthogonalization fires
    from about step 9 on."""
    n = PROBE_BLOCK_ELEMENTS + 7232
    return DiagonalOperator(np.concatenate([np.linspace(1.0, 2.0, n - 20),
                                            2.0 + 0.5 * np.arange(1, 21)]))
