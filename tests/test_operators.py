import tracemalloc

import numpy as np
import pytest
from scipy.special import gamma, kv

from slqcert import oracles
from slqcert.errors import ContractViolationError, UnsupportedParameterError
from slqcert.operators import (
    DENSE_BLOCK_ROWS,
    DenseOperator,
    Laplacian2D,
    PRECONDITIONER_RANK,
    MaternOperator,
    PreconditionedMatern,
    build_matern_operator,
    matern_kernel,
    pivoted_cholesky,
    sample_sites,
)

from helpers import dense_laplacian, random_spd


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


def _grid_view_stencil(x, n1, n2):
    # reference: the neighbours as shifted views of the (n2, n1) grid
    X = x.reshape(n2, n1)
    Y = 4.0 * X
    Y[:, 1:] -= X[:, :-1]
    Y[:, :-1] -= X[:, 1:]
    Y[1:, :] -= X[:-1, :]
    Y[:-1, :] -= X[1:, :]
    return Y.reshape(-1)


@pytest.mark.parametrize("n1,n2", [(2, 3), (3, 5), (4, 4), (1, 6), (6, 1), (1, 1)])
def test_laplacian_matches_dense_kron(n1, n2):
    op = Laplacian2D(n1, n2)
    A = dense_laplacian(n1, n2)
    rng = np.random.default_rng(0)
    for _ in range(5):
        x = rng.standard_normal(n1 * n2)
        np.testing.assert_allclose(op(x), A @ x, atol=1e-13)
        np.testing.assert_array_equal(op(x), _grid_view_stencil(x, n1, n2))


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


def test_site_seed_outside_64_bits_is_rejected():
    for seed in (-1, 2**64):
        with pytest.raises(ContractViolationError, match=r"\[0, 2\^64\)"):
            sample_sites(8, 8, 0.5, seed)


@pytest.mark.parametrize("fraction", [-1.0, 0.0, 1.5, float("nan")])
def test_site_fraction_outside_the_unit_interval_is_rejected(fraction):
    with pytest.raises(ContractViolationError, match=r"fraction must lie in \(0, 1\]"):
        sample_sites(8, 8, fraction, seed=0)


@pytest.mark.parametrize("n1, n2", [(0, 8), (8, 0), (-1, 8)])
def test_an_empty_site_grid_is_rejected(n1, n2):
    with pytest.raises(ContractViolationError, match="at least 1 x 1"):
        sample_sites(n1, n2, 0.5, seed=0)


def test_site_fraction_one_takes_every_site():
    np.testing.assert_array_equal(sample_sites(8, 8, 1.0, seed=0), np.arange(64))


def test_matern_2x2_dense_unit_diagonal():
    op = build_matern_operator((2, 2), [0, 1, 2, 3], 1.0, 1.0, tau=0.0)
    M = op.dense_matrix()
    np.testing.assert_allclose(np.diag(M), 1.0)
    assert M.shape == (4, 4)


# below, at and above one row block, and a count that is not a multiple of it
@pytest.mark.parametrize("count", [DENSE_BLOCK_ROWS - 7, DENSE_BLOCK_ROWS,
                                   3 * DENSE_BLOCK_ROWS + 5])
def test_matern_dense_matrix_is_the_kernel_rows(count):
    sites = sample_sites(20, 30, count / 600, seed=count)
    op = build_matern_operator((20, 30), sites, 12.0, 8.0, nu=2.5, tau=1e-3)
    assert op.dim == count
    assert np.array_equal(op.dense_matrix(), op.kernel_rows(slice(None), tau=op.tau))


def test_matern_dense_matrix_above_the_oracle_cap_is_refused():
    sites = sample_sites(60, 70, 0.98, seed=1)
    op = build_matern_operator((60, 70), sites, 28.0, 24.0, nu=1.5, tau=1e-5)
    assert op.dim > oracles.DENSE_ORACLE_MAX_DIM
    with pytest.raises(ContractViolationError, match="capped"):
        op.dense_matrix()


def test_matern_dense_matrix_holds_one_n_by_n_array():
    # the result and a few rows of temporaries: the kernel of all n rows at
    # once holds six n x n arrays
    sites = sample_sites(90, 120, 0.1, seed=101)
    op = build_matern_operator((90, 120), sites, 48.0, 36.0, nu=1.5, tau=1e-5)
    tracemalloc.start()
    try:
        op.dense_matrix()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * op.dim**2 * 8


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
    # without out, callers own the result and may write into it
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
    with pytest.raises(ContractViolationError, match="distinct"):
        build_matern_operator((4, 4), [3, 0, 3], 1.0, 1.0)
    with pytest.raises(ContractViolationError):
        build_matern_operator((4, 4), [99], 1.0, 1.0)
    op = build_matern_operator((4, 4), [0, 5], 1.0, 1.0)
    with pytest.raises(ContractViolationError):
        op(np.ones(3))


@pytest.mark.parametrize("ell", [0.0, -1.0, np.inf, np.nan])
def test_matern_rejects_a_lengthscale_that_is_not_positive_and_finite(ell):
    for ell1, ell2 in ((ell, 1.0), (1.0, ell)):
        with pytest.raises(ContractViolationError, match="lengthscales"):
            build_matern_operator((4, 4), [0, 5], ell1, ell2)


@pytest.mark.parametrize("tau", [-1e-3, np.inf, np.nan])
def test_matern_rejects_a_nugget_that_is_not_finite_and_nonnegative(tau):
    with pytest.raises(ContractViolationError, match="nugget tau"):
        build_matern_operator((4, 4), [0, 5], 1.0, 1.0, tau=tau)


MAKERS = [
    lambda: Laplacian2D(9, 14),
    lambda: build_matern_operator((12, 10), sample_sites(12, 10, 0.3, seed=2),
                                  4.0, 4.8, tau=1e-5),
    lambda: PreconditionedMatern(build_matern_operator(
        (12, 10), sample_sites(12, 10, 0.3, seed=2), 4.0, 4.8, tau=1e-5)),
]


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


@pytest.mark.parametrize("make", MAKERS)
def test_operator_symmetry(make):
    op = make()
    rng = np.random.default_rng(17)
    worst, scale = _symmetry_defect(op, 20, rng)
    assert worst <= 1e-10 * op.dim * max(scale, 1.0)


@pytest.mark.parametrize("make", MAKERS)
def test_operator_positive_definite(make):
    op = make()
    rng = np.random.default_rng(23)
    for _ in range(20):
        x = rng.standard_normal(op.dim)
        assert x @ op(x) > 0


@pytest.mark.parametrize("make", MAKERS + [
    lambda: DenseOperator(random_spd(7, np.random.default_rng(5)))])
def test_matvec_writes_into_out(make):
    op = make()
    x = np.random.default_rng(29).standard_normal((1, op.dim))
    x_before = x.copy()
    out = np.full((1, op.dim), np.nan)
    assert op.matvec(x, out=out) is out
    np.testing.assert_array_equal(out, op(x))
    np.testing.assert_array_equal(x, x_before)
    # calling the operator on one vector applies it as a block of one
    v = x[0]
    assert op(v).shape == (op.dim,)
    np.testing.assert_array_equal(op(v), op.matvec(v[None])[0])
    np.testing.assert_array_equal(op(v), out[0])
    # a (b, n) block: each row is that row's own apply, bit for bit except for
    # the preconditioned operator, whose block P^{-1/2} is a matrix product
    for b in (1, 3):
        block = np.random.default_rng(31 + b).standard_normal((b, op.dim))
        block_before = block.copy()
        out = np.full((b, op.dim), np.nan)
        assert op.matvec(block, out=out) is out
        rows = np.array([op(row) for row in block])
        if isinstance(op, PreconditionedMatern):
            np.testing.assert_allclose(out, rows, rtol=0,
                                       atol=1e-12 * np.abs(rows).max())
        else:
            np.testing.assert_array_equal(out, rows)
        np.testing.assert_array_equal(block, block_before)
        np.testing.assert_array_equal(op(block), out)


def test_dense_operator_wraps_matrix():
    A = np.array([[2.0, 1.0], [1.0, 2.0]])
    op = DenseOperator(A)
    np.testing.assert_allclose(op(np.array([1.0, 0.0])), [2.0, 1.0])
    with pytest.raises(ContractViolationError):
        DenseOperator(np.ones((2, 3)))


def _dense_pivoted_cholesky(K, rank):
    """Textbook greedy pivoted Cholesky on an assembled matrix (reference)."""
    R = K.copy()
    factor = []
    for _ in range(rank):
        p = int(np.argmax(np.diag(R)))
        if R[p, p] <= 0:
            break
        col = R[:, p] / np.sqrt(R[p, p])
        factor.append(col)
        R = R - np.outer(col, col)
    return np.array(factor).reshape(-1, len(K))


@pytest.mark.parametrize("nu", [0.5, 1.5, 2.5])
def test_pivoted_cholesky_matches_dense_reference(nu):
    sites = sample_sites(13, 17, 0.4, seed=8)
    op = build_matern_operator((13, 17), sites, 0.4 * 17, 0.4 * 13, nu=nu, tau=1e-3)
    kernel = op.dense_matrix() - 1e-3 * np.eye(op.dim)
    factor = pivoted_cholesky(op, 20)
    ref = _dense_pivoted_cholesky(kernel, 20)
    np.testing.assert_allclose(factor.T @ factor, ref.T @ ref, atol=1e-12)
    # the Schur complement left over is positive semidefinite
    assert np.linalg.eigvalsh(kernel - factor.T @ factor)[0] >= -1e-12


def test_pivoted_cholesky_stops_at_an_exhausted_residual():
    # two sites: the second pivot exhausts the kernel, a third has nothing left
    op = build_matern_operator((4, 4), [0, 15], 1.0, 1.0, tau=1e-3)
    factor = pivoted_cholesky(op, 3)
    assert factor.shape == (2, 2)
    np.testing.assert_allclose(factor.T @ factor, op.dense_matrix() - 1e-3 * np.eye(2),
                               atol=1e-15)


def test_preconditioned_matern_rank_rule():
    # n // 3 binds on the benchmark's 1080 sites, 512 on 2160 sites
    sites = sample_sites(90, 120, 0.1, seed=1)
    op = build_matern_operator((90, 120), sites, 48.0, 36.0, tau=1e-5)
    pre = PreconditionedMatern(op)
    assert pre.rank == min(PRECONDITIONER_RANK, op.dim // 3) == 360
    assert 0 < pre.residual_trace < op.dim
    dense = build_matern_operator((90, 120), sample_sites(90, 120, 0.2, seed=1),
                                  48.0, 36.0, tau=1e-5)
    assert PreconditionedMatern(dense).rank == PRECONDITIONER_RANK == 512
    small = build_matern_operator((6, 6), sample_sites(6, 6, 0.3, seed=1), 2.4, 2.4,
                                  tau=1e-5)
    assert PreconditionedMatern(small).rank == small.dim // 3 == 3


def test_preconditioned_matern_rank_zero_is_scaled_matern():
    # two sites: the cap n // 3 is 0
    op = build_matern_operator((5, 5), [3, 20], 2.0, 2.0, tau=1e-2)
    pre = PreconditionedMatern(op)
    assert pre.rank == 0 and pre.residual_trace == 2.0
    x = np.array([1.0, -2.0])
    np.testing.assert_allclose(pre(x), op(x) / 1e-2, rtol=1e-13)
    assert pre.logdet == pytest.approx(2 * np.log(1e-2), rel=1e-15)


def test_preconditioned_matern_needs_a_positive_nugget():
    op = build_matern_operator((4, 4), [0, 5, 9, 12], 1.0, 1.0, tau=0.0)
    with pytest.raises(ContractViolationError, match="tau"):
        PreconditionedMatern(op)
