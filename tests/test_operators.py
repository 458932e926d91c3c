import numpy as np
import pytest
from scipy.special import gamma, kv

from slqcert import oracles
from slqcert.errors import ContractViolationError, UnsupportedParameterError
from slqcert.operators import (
    DenseOperator,
    Laplacian2D,
    MaternOperator,
    build_matern_operator,
    matern_kernel,
    sample_sites,
)

from helpers import dense_laplacian


def test_laplacian_2x2_basis_vector():
    op = Laplacian2D(2, 2)
    np.testing.assert_allclose(op(np.array([1.0, 0, 0, 0])),
                               [4.0, -1.0, -1.0, 0.0])


def test_laplacian_2x2_row_sums():
    op = Laplacian2D(2, 2)
    np.testing.assert_allclose(op(np.ones(4)), 2 * np.ones(4))


def test_laplacian_zero_vector():
    op = Laplacian2D(5, 7)
    np.testing.assert_allclose(op(np.zeros(35)), 0.0)


def test_laplacian_dimension_mismatch():
    with pytest.raises(ContractViolationError):
        Laplacian2D(3, 3)(np.ones(8))


@pytest.mark.parametrize("n1,n2", [(2, 3), (3, 5), (4, 4), (1, 6)])
def test_laplacian_matches_dense_kron(n1, n2):
    op = Laplacian2D(n1, n2)
    A = dense_laplacian(n1, n2)
    rng = np.random.default_rng(0)
    for _ in range(5):
        x = rng.standard_normal(n1 * n2)
        np.testing.assert_allclose(op(x), A @ x, atol=1e-13)


def test_laplacian_diagonal_is_four():
    op = Laplacian2D(3, 4)
    for i in range(12):
        e = np.zeros(12)
        e[i] = 1.0
        assert op(e)[i] == 4.0


# the asymptotic error of 4n/pi^2 is ((n1+1)/n1)^2 - 1, under 5% from n1 ~ 38
@pytest.mark.parametrize("n", [40, 64, 100])
def test_square_grid_condition_number(n):
    lo, hi = oracles.laplacian_extreme_eigenvalues(n, n)
    cond = hi / lo
    approx = 4 * n * n / np.pi**2
    assert abs(cond - approx) / cond <= 0.05


def test_matern_kernel_values():
    assert matern_kernel(0.0, 1.5, 1e-5) == pytest.approx(1.00001, abs=1e-12)
    closed = (1 + np.sqrt(3)) * np.exp(-np.sqrt(3))
    assert matern_kernel(1.0, 1.5, 0.0) == pytest.approx(closed, rel=1e-14)
    assert closed == pytest.approx(0.48335, abs=5e-5)


def test_matern_kernel_matches_bessel_form():
    # cross-check the closed form against the Bessel-K expression
    r = np.array([0.3, 1.0, 2.7])
    for nu in (0.5, 1.5, 2.5):
        arg = np.sqrt(2 * nu) * r
        bessel = arg**nu * kv(nu, arg) / (2 ** (nu - 1) * gamma(nu))
        np.testing.assert_allclose(matern_kernel(r, nu, 0.0), bessel, rtol=1e-12)


def test_matern_kernel_monotone_decay():
    r = np.linspace(0.01, 12, 300)
    vals = matern_kernel(r, 1.5, 0.0)
    assert np.all(np.diff(vals) < 0)
    assert vals[-1] < 1e-6


def test_matern_kernel_rejects_unsupported_nu():
    with pytest.raises(UnsupportedParameterError):
        matern_kernel(1.0, 1.7, 0.0)


def test_matern_kernel_rejects_negative():
    with pytest.raises(ContractViolationError):
        matern_kernel(-1.0, 1.5, 0.0)
    with pytest.raises(ContractViolationError):
        matern_kernel(1.0, 1.5, -1e-3)


def test_build_matern_paper_sizing():
    sites = sample_sites(40, 30, 0.1, seed=123)
    op = build_matern_operator((40, 30), sites, 0.4 * 30, 0.4 * 40, nu=1.5, tau=1e-5)
    assert op.dim == 120
    # reproducible site sample for the logged seed
    again = sample_sites(40, 30, 0.1, seed=123)
    np.testing.assert_array_equal(sites, again)


def test_matern_2x2_dense_unit_diagonal():
    op = build_matern_operator((2, 2), [0, 1, 2, 3], 1.0, 1.0, tau=0.0)
    M = op.dense_matrix()
    np.testing.assert_allclose(np.diag(M), 1.0)
    assert M.shape == (4, 4)


def test_matern_fft_matches_dense():
    rng = np.random.default_rng(5)
    sites = sample_sites(8, 8, 0.25, seed=9)
    assert len(sites) == 16
    op = build_matern_operator((8, 8), sites, 3.2, 3.2, nu=1.5, tau=1e-5)
    M = op.dense_matrix()
    for _ in range(10):
        x = rng.standard_normal(op.dim)
        np.testing.assert_allclose(op(x), M @ x, atol=1e-12)


# unequal sides and unequal lengthscales, so that swapped axes or an axis
# pruned or padded wrongly show; a one-wide grid embeds that axis in length 2
@pytest.mark.parametrize("n1,n2", [(1, 7), (7, 1), (13, 17), (37, 41)])
def test_matern_fft_matches_dense_rectangular(n1, n2):
    sites = sample_sites(n1, n2, 0.5, seed=n1 * n2)
    op = build_matern_operator((n1, n2), sites, 0.4 * n2, 0.25 * n1, nu=1.5, tau=1e-5)
    M = op.dense_matrix()
    rng = np.random.default_rng(n1 + n2)
    for _ in range(5):
        x = rng.standard_normal(op.dim)
        ref = M @ x
        assert np.linalg.norm(op(x) - ref) <= 1e-12 * np.linalg.norm(ref)


def test_matern_symbol_is_real():
    op = build_matern_operator((13, 17), sample_sites(13, 17, 1.0, seed=4), 6.8, 3.25)
    # rfft2 of the even (2 n1) x (2 n2) kernel block, stored as its real part
    assert op.symbol.dtype == np.float64
    assert op.symbol.shape == (26, 18)


def test_matern_apply_returns_a_fresh_array():
    # lanczos_step subtracts into the result in place
    op = build_matern_operator((13, 17), sample_sites(13, 17, 1.0, seed=4), 6.8, 3.25)
    x = np.ones(op.dim)
    y = op(x)
    again = op(x)
    assert not np.shares_memory(y, again)
    assert not np.shares_memory(y, x)
    y -= 1.0
    np.testing.assert_array_equal(op(x), again)


def test_matern_single_site():
    op = build_matern_operator((5, 5), [7], 2.0, 2.0, tau=1e-3)
    np.testing.assert_allclose(op(np.array([1.0])), [1.001])


def test_matern_zero_vector():
    sites = sample_sites(6, 6, 0.2, seed=1)
    op = build_matern_operator((6, 6), sites, 2.4, 2.4)
    np.testing.assert_allclose(op(np.zeros(op.dim)), 0.0)


def test_matern_contract_errors():
    with pytest.raises(ContractViolationError):
        build_matern_operator((4, 4), [], 1.0, 1.0)
    with pytest.raises(ContractViolationError):
        build_matern_operator((4, 4), [1, 1], 1.0, 1.0)
    with pytest.raises(ContractViolationError):
        build_matern_operator((4, 4), [99], 1.0, 1.0)
    op = build_matern_operator((4, 4), [0, 5], 1.0, 1.0)
    with pytest.raises(ContractViolationError):
        op(np.ones(3))


def _symmetry_defect(op, pairs, rng):
    worst = 0.0
    scale = 0.0
    for _ in range(pairs):
        x = rng.standard_normal(op.dim)
        y = rng.standard_normal(op.dim)
        ax, ay = op(x), op(y)
        worst = max(worst, abs(x @ ay - y @ ax))
        scale = max(scale, np.linalg.norm(ax) / np.linalg.norm(x))
    return worst, scale


@pytest.mark.parametrize("make", [
    lambda: Laplacian2D(9, 14),
    lambda: build_matern_operator((12, 10), sample_sites(12, 10, 0.3, seed=2),
                                  4.0, 4.8, tau=1e-5),
])
def test_operator_symmetry(make):
    op = make()
    rng = np.random.default_rng(17)
    worst, scale = _symmetry_defect(op, 20, rng)
    assert worst <= 1e-10 * op.dim * max(scale, 1.0)


@pytest.mark.parametrize("make", [
    lambda: Laplacian2D(9, 14),
    lambda: build_matern_operator((12, 10), sample_sites(12, 10, 0.3, seed=2),
                                  4.0, 4.8, tau=1e-5),
])
def test_operator_positive_definite(make):
    op = make()
    rng = np.random.default_rng(23)
    for _ in range(20):
        x = rng.standard_normal(op.dim)
        assert x @ op(x) > 0


def test_dense_operator_wraps_matrix():
    A = np.array([[2.0, 1.0], [1.0, 2.0]])
    op = DenseOperator(A)
    np.testing.assert_allclose(op(np.array([1.0, 0.0])), [2.0, 1.0])
    with pytest.raises(ContractViolationError):
        DenseOperator(np.ones((2, 3)))
