import numpy as np
import pytest
import scipy.linalg

from slqcert import oracles
from slqcert.errors import ContractViolationError, QuadratureDomainError
from slqcert.lanczos import (
    SymTridiagonal,
    bilinear_estimate,
    lanczos_init,
    lanczos_run,
    lanczos_step,
    lanczos_steps,
    quadrature_value,
    tridiag_eigen,
)
from slqcert.operators import (
    DenseOperator,
    Laplacian2D,
    build_matern_operator,
    sample_sites,
)
from slqcert.trace_estimator import rademacher_vector

from helpers import random_spd


def test_init_normalizes():
    op = DenseOperator(np.eye(3))
    u = np.array([0.0, 2.0, 0.0])
    state = lanczos_init(op, u)
    assert state.norm_sq == pytest.approx(4.0)
    assert np.linalg.norm(state.basis()[0]) == pytest.approx(1.0, abs=1e-12)
    assert state.m == 0


def test_init_rademacher_norm():
    op = DenseOperator(np.eye(64))
    u = np.where(np.arange(64) % 2 == 0, 1.0, -1.0)
    assert lanczos_init(op, u).norm_sq == pytest.approx(64.0)


def test_init_unit_basis_vector():
    op = DenseOperator(np.eye(4))
    e1 = np.array([1.0, 0, 0, 0])
    state = lanczos_init(op, e1)
    np.testing.assert_allclose(state.basis()[0], e1)
    assert state.norm_sq == 1.0


def test_init_rejects_zero():
    with pytest.raises(ContractViolationError):
        lanczos_init(DenseOperator(np.eye(3)), np.zeros(3))


def test_identity_breaks_down_immediately():
    op = DenseOperator(np.eye(5))
    state = lanczos_init(op, np.ones(5))
    alpha, beta = lanczos_step(state)
    assert alpha == pytest.approx(1.0)
    assert beta == 0.0
    assert state.breakdown


def test_steps_yield_the_beta_above_each_alpha():
    op = Laplacian2D(6, 7)
    u = np.random.default_rng(3).standard_normal(42)
    for count, (state, alpha, beta) in enumerate(lanczos_steps(op, u, m_max=12), 1):
        m = state.m
        assert m == count and alpha == state.alphas[m - 1]
        assert beta == (state.betas[m - 2] if m > 1 else 0.0)
    assert count == 12


@pytest.mark.parametrize("m_max,dim,expect", [(5, 12, 5), (20, 12, 12)])
def test_steps_stop_at_min_of_m_max_and_dim(m_max, dim, expect):
    rng = np.random.default_rng(dim)
    op = DenseOperator(random_spd(dim, rng))
    steps = list(lanczos_steps(op, rng.standard_normal(dim), m_max=m_max))
    assert len(steps) == expect and steps[-1][0].m == expect


def test_steps_end_after_breakdown_step():
    steps = list(lanczos_steps(DenseOperator(np.eye(5)), np.ones(5)))
    assert len(steps) == 1
    state, alpha, beta = steps[0]
    assert state.breakdown and state.m == 1
    assert alpha == pytest.approx(1.0) and beta == 0.0


def test_steps_need_one_step():
    with pytest.raises(ContractViolationError):
        next(lanczos_steps(DenseOperator(np.eye(3)), np.ones(3), m_max=0))


def test_two_by_two_hand_run():
    op = DenseOperator(np.diag([1.0, 3.0]))
    state = lanczos_init(op, np.array([1.0, 1.0]) / np.sqrt(2))
    a1, b2 = lanczos_step(state)
    assert a1 == pytest.approx(2.0, abs=1e-14)
    assert b2 == pytest.approx(1.0, abs=1e-14)
    a2, b3 = lanczos_step(state)
    assert a2 == pytest.approx(2.0, abs=1e-13)
    eig = tridiag_eigen(state.tridiagonal())
    np.testing.assert_allclose(eig.thetas, [1.0, 3.0], atol=1e-12)


def test_laplacian_first_alpha_is_diagonal():
    op = Laplacian2D(2, 2)
    state = lanczos_init(op, np.array([1.0, 0, 0, 0]))
    alpha, _ = lanczos_step(state)
    assert alpha == pytest.approx(4.0)


def test_basis_stays_orthonormal_full():
    op = Laplacian2D(10, 12)
    rng = np.random.default_rng(0)
    state = lanczos_init(op, rng.standard_normal(120), reorth_mode="full")
    sqrt_eps = np.sqrt(np.finfo(float).eps)
    for _ in range(60):
        lanczos_step(state)
        if state.breakdown:
            break
        assert np.linalg.norm(state.basis()[-1]) == pytest.approx(1.0, abs=1e-12)
        assert state.max_basis_inner_product() <= sqrt_eps


def test_basis_stays_orthonormal_partial():
    op = Laplacian2D(10, 12)
    rng = np.random.default_rng(1)
    state = lanczos_init(op, rng.standard_normal(120), reorth_mode="partial")
    sqrt_eps = np.sqrt(np.finfo(float).eps)
    for _ in range(80):
        lanczos_step(state)
        if state.breakdown:
            break
    V = state.basis()
    gram = V @ V.T - np.eye(len(V))
    assert np.max(np.abs(gram)) <= 10 * sqrt_eps


def test_partial_quadrature_tracks_full_on_covariance_testbed():
    # the criterion-9 testbed, where the plain recurrence stalls by two orders
    sites = sample_sites(90, 120, 0.1, seed=3)
    op = build_matern_operator((90, 120), sites, 0.4 * 120, 0.4 * 90,
                               nu=1.5, tau=1e-5)
    u = rademacher_vector(op.dim, seed=0)
    truth = oracles.dense_f_oracle(op.dense_matrix(), np.log).bilinear(
        u / np.linalg.norm(u))
    errs = {mode: abs(truth - quadrature_value(
                lanczos_run(op, u, 200, mode).tridiagonal(), np.log))
            for mode in ("full", "partial")}
    assert errs["partial"] <= 10 * errs["full"]


def test_tridiag_eigen_order_one():
    eig = tridiag_eigen(SymTridiagonal([5.0], []))
    np.testing.assert_allclose(eig.thetas, [5.0])
    np.testing.assert_allclose(eig.first_row, [1.0])


def test_tridiag_eigen_hand_2x2():
    eig = tridiag_eigen(SymTridiagonal([2.0, 2.0], [1.0]))
    np.testing.assert_allclose(eig.thetas, [1.0, 3.0], atol=1e-14)
    np.testing.assert_allclose(eig.first_row**2, [0.5, 0.5], atol=1e-14)


def _lanczos_jacobi():
    # 150 steps on the 20x24 Laplacian: the extreme Ritz values have
    # converged to eigenvalues of A, and some weights are near 1e-7
    rng = np.random.default_rng(6)
    return lanczos_run(Laplacian2D(20, 24), rng.standard_normal(480), 150).tridiagonal()


@pytest.mark.parametrize("m", [2, 3, 8, 25, 60, 1000, "lanczos"])
def test_tridiag_eigen_vs_dense(m):
    if m == "lanczos":
        T = _lanczos_jacobi()
    else:
        rng = np.random.default_rng(m)
        T = SymTridiagonal(rng.standard_normal(m), np.abs(rng.standard_normal(m - 1)))
    eig = tridiag_eigen(T)
    lam, Q = np.linalg.eigh(T.to_dense())
    np.testing.assert_allclose(eig.thetas, lam, atol=1e-10 * max(1, np.abs(lam).max()))
    np.testing.assert_allclose(np.abs(eig.first_row), np.abs(Q[0]), atol=1e-10)
    assert np.sum(eig.first_row**2) == pytest.approx(1.0, abs=1e-12)


def test_tridiag_eigen_with_zero_couplings():
    # a zero coupling splits T into two decoupled blocks
    T = SymTridiagonal([1.0, 2.0, 3.0, 4.0], [0.5, 0.0, 0.25])
    eig = tridiag_eigen(T)
    lam = scipy.linalg.eigh_tridiagonal(T.alphas, T.betas, eigvals_only=True)
    np.testing.assert_allclose(eig.thetas, lam, atol=1e-12)
    assert np.sum(eig.first_row**2) == pytest.approx(1.0, abs=1e-12)
    # e1 carries no weight on the second decoupled block
    second_block = eig.thetas > 2.5
    assert np.max(np.abs(eig.first_row[second_block])) < 1e-12


def test_quadrature_order_one():
    assert quadrature_value(SymTridiagonal([0.7], []), np.exp) == pytest.approx(np.exp(0.7))


def test_quadrature_identity_and_square():
    T = SymTridiagonal([2.0, 2.0], [1.0])
    assert quadrature_value(T, lambda x: x) == pytest.approx(2.0, abs=1e-13)
    assert quadrature_value(T, lambda x: x**2) == pytest.approx(5.0, abs=1e-12)


def test_quadrature_domain_error_names_theta():
    T = SymTridiagonal([-1.0], [])
    with pytest.raises(QuadratureDomainError) as err:
        quadrature_value(T, np.log)
    assert err.value.theta == pytest.approx(-1.0)


def test_bilinear_trivial_exp_zero():
    op = DenseOperator(np.zeros((3, 3)), spd_hint=False)
    state = lanczos_init(op, np.array([2.0, 0.0, 0.0]))
    lanczos_step(state)
    assert state.norm_sq == 4.0
    assert bilinear_estimate(state, lambda x: np.exp(-x)) == pytest.approx(4.0)


def test_bilinear_identity_exact_after_one_step():
    n = 17
    op = DenseOperator(np.eye(n))
    u = np.where(np.arange(n) % 3 == 0, 1.0, -1.0)
    state = lanczos_init(op, u)
    lanczos_step(state)
    f = lambda x: np.exp(-x)
    assert bilinear_estimate(state, f) == pytest.approx(n * f(1.0), rel=1e-13)


def test_exactness_at_distinct_eigenvalue_count():
    # q distinct eigenvalues in the start vector -> breakdown by step q
    rng = np.random.default_rng(4)
    eigs = np.array([0.5, 1.5, 2.0, 4.0])
    diag = np.concatenate([eigs, eigs, eigs])
    op = DenseOperator(np.diag(diag))
    u = rng.standard_normal(len(diag))
    for state, _, _ in lanczos_steps(op, u):
        pass
    assert state.breakdown and state.m <= len(eigs)
    f = lambda x: np.exp(-x)
    exact = float(np.sum(f(diag) * (u**2)))
    assert bilinear_estimate(state, f) == pytest.approx(exact, rel=1e-10)


@pytest.mark.parametrize("degree,steps", [(1, 1), (3, 2), (5, 3), (9, 5)])
def test_gauss_quadrature_degree(degree, steps):
    # degree <= 2m-1 polynomials are integrated exactly after m steps
    rng = np.random.default_rng(degree)
    A = random_spd(11, rng)
    coeffs = rng.standard_normal(degree + 1)
    f = lambda x: np.polyval(coeffs, x)
    u = rng.standard_normal(11)
    state = lanczos_run(DenseOperator(A), u, steps)
    lam, Q = np.linalg.eigh(A)
    w = Q.T @ u
    exact = float(np.sum(w**2 * f(lam)))
    assert bilinear_estimate(state, f) == pytest.approx(exact, rel=1e-10)


def test_ritz_values_interlace_along_run():
    op = Laplacian2D(8, 9)
    rng = np.random.default_rng(2)
    state = lanczos_init(op, rng.standard_normal(72))
    prev_max, prev_min = -np.inf, np.inf
    for _ in range(40):
        lanczos_step(state)
        if state.breakdown:
            break
        eig = tridiag_eigen(state.tridiagonal())
        assert eig.thetas[-1] >= prev_max - 1e-12
        assert eig.thetas[0] <= prev_min + 1e-12
        prev_max, prev_min = eig.thetas[-1], eig.thetas[0]
        lo, hi = 0.0, 8.0
        assert np.all(eig.thetas >= lo - 1e-10) and np.all(eig.thetas <= hi + 1e-10)


def test_quadrature_monotone_for_exp_neg():
    # all even derivatives of exp(-x) are positive, so the Gauss value increases
    op = Laplacian2D(12, 15)
    rng = np.random.default_rng(3)
    state = lanczos_init(op, rng.standard_normal(180))
    f = lambda x: np.exp(-x)
    values = []
    for _ in range(25):
        lanczos_step(state)
        if state.breakdown:
            break
        values.append(quadrature_value(state.tridiagonal(), f))
    diffs = np.diff(values)
    assert np.all(diffs > -1e-15)


def test_step_guards():
    op = DenseOperator(np.eye(2))
    state = lanczos_init(op, np.ones(2))
    lanczos_step(state)
    with pytest.raises(ContractViolationError):
        lanczos_step(state)  # already broken down
    state2 = lanczos_init(op, np.array([1.0, 0.1]), m_max=1)
    lanczos_step(state2)
    with pytest.raises(ContractViolationError):
        lanczos_step(state2)  # m_max exhausted
