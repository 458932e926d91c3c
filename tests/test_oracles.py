import numpy as np
import pytest

from slqcert import oracles
from slqcert.errors import ContractViolationError
from slqcert.operators import Laplacian2D, MaternOperator


from helpers import FUNCTIONS, dense_laplacian


def test_eigenvalues_match_dense():
    for n1, n2 in [(2, 2), (3, 5), (6, 6)]:
        lam1 = oracles.laplacian_eigenvalues_1d(n1)
        lam2 = oracles.laplacian_eigenvalues_1d(n2)
        grid = np.sort((lam1[:, None] + lam2[None, :]).ravel())
        dense = np.linalg.eigvalsh(dense_laplacian(n1, n2))
        np.testing.assert_allclose(grid, dense, atol=1e-12)
        assert grid.min() > 0
        assert len(grid) == n1 * n2


def test_trace_identity_is_4n():
    assert oracles.exact_trace_laplacian(lambda x: x, 7, 11) == pytest.approx(
        4 * 7 * 11, abs=1e-9
    )


def test_trace_exp_2x2_by_hand():
    # eigenvalues of the 2x2-grid Laplacian are {2, 4, 4, 6}
    expected = np.exp(-2) + 2 * np.exp(-4) + np.exp(-6)
    got = oracles.exact_trace_laplacian(lambda x: np.exp(-x), 2, 2)
    assert got == pytest.approx(expected, rel=1e-14)
    assert got == pytest.approx(0.1744453, abs=5e-8)


def test_bilinear_single_mode_2x2():
    # eigenvector of the smallest eigenvalue (2): sin modes (1,1)
    i = np.arange(1, 3)
    mode = np.sin(i * np.pi / 3)
    v = np.outer(mode, mode).reshape(-1)
    v /= np.linalg.norm(v)
    for name, f in FUNCTIONS.items():
        got = oracles.exact_bilinear_laplacian(f, 2, 2, v)
        assert got == pytest.approx(float(f(2.0)), rel=1e-12), name


def test_bilinear_identity_matches_matvec():
    rng = np.random.default_rng(7)
    for n1, n2 in [(3, 4), (5, 2)]:
        op = Laplacian2D(n1, n2)
        v = rng.standard_normal(n1 * n2)
        direct = float(v @ op(v))
        via_dst = oracles.exact_bilinear_laplacian(lambda x: x, n1, n2, v)
        assert via_dst == pytest.approx(direct, abs=1e-12 * max(1, abs(direct)))


def test_bilinear_matches_dense_eigenroute():
    rng = np.random.default_rng(11)
    for n1, n2 in [(4, 3), (6, 6), (8, 8)]:
        A = dense_laplacian(n1, n2)
        lam, Q = np.linalg.eigh(A)
        for _ in range(20):
            v = rng.standard_normal(n1 * n2)
            w = Q.T @ v
            for name, f in FUNCTIONS.items():
                dense_val = float(np.sum(w**2 * f(lam)))
                dst_val = oracles.exact_bilinear_laplacian(f, n1, n2, v)
                assert dst_val == pytest.approx(dense_val, abs=1e-10 * max(1, abs(dense_val))), name


def test_bilinear_rejects_bad_shape():
    with pytest.raises(ContractViolationError):
        oracles.exact_bilinear_laplacian(np.sqrt, 3, 3, np.ones(5))


def _taylor_exp_neg(M):
    # independent series oracle: scaling and squaring with a norm-based cut
    norm = np.linalg.norm(M, 2)
    s = max(0, int(np.ceil(np.log2(max(norm, 1e-300)))) + 1)
    B = -M / 2**s
    term = np.eye(M.shape[0])
    acc = term.copy()
    for k in range(1, 30):
        term = term @ B / k
        acc += term
        if np.linalg.norm(term, 2) < 1e-18:
            break
    for _ in range(s):
        acc = acc @ acc
    return acc


def test_dense_f_oracle_basics():
    assert oracles.dense_f_oracle(np.eye(5), np.log).trace() == pytest.approx(0.0, abs=1e-14)
    assert oracles.dense_f_oracle(np.diag([1.0, 4.0]), np.sqrt).trace() == pytest.approx(3.0)


def test_dense_f_oracle_exp_vs_taylor():
    rng = np.random.default_rng(3)
    X = rng.standard_normal((8, 8))
    M = X @ X.T / 8 + 0.5 * np.eye(8)
    u = rng.standard_normal(8)
    oracle = oracles.dense_f_oracle(M, lambda x: np.exp(-x))
    E = _taylor_exp_neg(M)
    assert oracle.trace() == pytest.approx(np.trace(E), abs=1e-9)
    assert oracle.bilinear(u) == pytest.approx(u @ E @ u, abs=1e-9)


def test_dense_f_oracle_dim_cap():
    with pytest.raises(ContractViolationError):
        oracles.DenseFOracle(np.eye(4001), np.sqrt)


def test_dense_logdet():
    assert oracles.dense_logdet(np.eye(6)) == pytest.approx(0.0, abs=1e-14)
    assert oracles.dense_logdet(np.diag([2.0, 8.0])) == pytest.approx(np.log(16.0))
    with pytest.raises(ContractViolationError):
        oracles.dense_logdet(np.diag([1.0, -1.0]))


def test_dense_logdet_matches_f_oracle_on_matern():
    sites = np.array([0, 3, 7, 12, 20, 33])
    op = MaternOperator((6, 6), sites, 2.4, 2.4, nu=1.5, tau=1e-5)
    M = op.dense_matrix()
    assert oracles.dense_logdet(M) == pytest.approx(
        oracles.dense_f_oracle(M, np.log).trace(), abs=1e-10
    )
