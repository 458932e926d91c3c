import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from slqcert import lanczos, oracles
from slqcert.errors import (ContractViolationError, NumericalFailureError,
                            QuadratureDomainError)
from slqcert.lanczos import (
    BasisBuffer,
    LanczosState,
    SymTridiagonal,
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
from slqcert.rational import build
from slqcert.trace_estimator import rademacher_vector, sample_bilinear

from helpers import large_diagonal, max_basis_inner_product, random_spd


def bilinear(state, u, f):
    """||u||^2 e1^T f(T_m) e1 for column 0 of the state's current Jacobi matrix."""
    return float(u @ u) * quadrature_value(state.tridiagonal(), f)


def test_init_normalizes():
    op = DenseOperator(np.eye(3))
    u = np.array([0.0, 2.0, 0.0])
    state = LanczosState(op, u[None])
    np.testing.assert_allclose(state.basis()[0], u / 2.0)
    assert np.linalg.norm(state.basis()[0]) == pytest.approx(1.0, abs=1e-12)
    assert state.m == 0


def test_init_rademacher_norm():
    op = DenseOperator(np.eye(64))
    u = np.where(np.arange(64) % 2 == 0, 1.0, -1.0)
    np.testing.assert_array_equal(LanczosState(op, u[None]).basis()[0], u / 8.0)


def test_init_unit_basis_vector():
    op = DenseOperator(np.eye(4))
    e1 = np.array([1.0, 0, 0, 0])
    state = LanczosState(op, e1[None])
    np.testing.assert_allclose(state.basis()[0], e1)


def test_init_rejects_zero():
    with pytest.raises(ContractViolationError):
        LanczosState(DenseOperator(np.eye(3)), np.zeros((1, 3)))


@pytest.mark.parametrize("start", [
    lambda op, u: LanczosState(op, u),
    lambda op, u: next(lanczos_steps(op, u)),
    lambda op, u: sample_bilinear(op, build("log", 4, (1.0, 2.0)), u, 1e-3),
], ids=["LanczosState", "lanczos_steps", "sample_bilinear"])
def test_one_dimensional_start_is_rejected(start):
    # a single probe is a block of one, u[None]; a bare vector names the shape
    op = DenseOperator(np.diag([1.0, 1.5, 2.0]))
    with pytest.raises(ContractViolationError, match=r"\(b, n\)"):
        start(op, np.ones(3))


def test_identity_breaks_down_immediately():
    op = DenseOperator(np.eye(5))
    state = LanczosState(op, np.ones((1, 5)))
    (alpha,), (beta,) = lanczos_step(state)
    assert alpha == pytest.approx(1.0)
    assert beta == 0.0
    assert state.breakdown[0]


@pytest.mark.parametrize("m_max,dim,expect", [(5, 12, 5), (20, 12, 12)])
def test_steps_stop_at_min_of_m_max_and_dim(m_max, dim, expect):
    rng = np.random.default_rng(dim)
    op = DenseOperator(random_spd(dim, rng))
    steps = list(lanczos_steps(op, rng.standard_normal((1, dim)), m_max=m_max))
    assert len(steps) == expect and steps[-1].m == expect


def test_steps_end_after_breakdown_step():
    steps = list(lanczos_steps(DenseOperator(np.eye(5)), np.ones((1, 5))))
    (state,) = steps
    assert state.breakdown[0] and state.m == 1
    assert state.tridiagonal().alphas[0] == pytest.approx(1.0)


def test_steps_need_one_step():
    with pytest.raises(ContractViolationError):
        next(lanczos_steps(DenseOperator(np.eye(3)), np.ones((1, 3)), m_max=0))


def test_two_by_two_hand_run():
    op = DenseOperator(np.diag([1.0, 3.0]))
    state = LanczosState(op, np.array([[1.0, 1.0]]) / np.sqrt(2))
    (a1,), (b2,) = lanczos_step(state)
    assert a1 == pytest.approx(2.0, abs=1e-14)
    assert b2 == pytest.approx(1.0, abs=1e-14)
    (a2,), _ = lanczos_step(state)
    assert a2 == pytest.approx(2.0, abs=1e-13)
    eig = tridiag_eigen(state.tridiagonal())
    np.testing.assert_allclose(eig.thetas, [1.0, 3.0], atol=1e-12)


def test_laplacian_first_alpha_is_diagonal():
    op = Laplacian2D(2, 2)
    state = LanczosState(op, np.array([[1.0, 0, 0, 0]]))
    (alpha,), _ = lanczos_step(state)
    assert alpha == pytest.approx(4.0)


def test_basis_stays_orthonormal_full():
    op = Laplacian2D(10, 12)
    rng = np.random.default_rng(0)
    state = LanczosState(op, rng.standard_normal((1, 120)), reorth_mode="full")
    sqrt_eps = np.sqrt(np.finfo(float).eps)
    for _ in range(60):
        lanczos_step(state)
        if state.breakdown[0]:
            break
        assert np.linalg.norm(state.basis()[-1]) == pytest.approx(1.0, abs=1e-12)
        assert max_basis_inner_product(state) <= sqrt_eps


def test_basis_stays_orthonormal_partial():
    op = Laplacian2D(10, 12)
    rng = np.random.default_rng(1)
    state = LanczosState(op, rng.standard_normal((1, 120)), reorth_mode="partial")
    sqrt_eps = np.sqrt(np.finfo(float).eps)
    for _ in range(80):
        lanczos_step(state)
        if state.breakdown[0]:
            break
    V = state.basis()
    gram = V @ V.T - np.eye(len(V))
    assert np.max(np.abs(gram)) <= 10 * sqrt_eps


def test_reorth_passes_count_orthogonalizations():
    op = Laplacian2D(10, 12)
    u = np.random.default_rng(2).standard_normal((1, 120))
    passes = {mode: lanczos_run(op, u, 40, mode).reorth_passes[0]
              for mode in ("none", "partial", "full")}
    # full mode makes one pass per step, plus a second when the first removes
    # most of the vector; partial mode only when the omega estimate calls for it
    assert passes["none"] == 0
    assert 40 <= passes["full"] <= 80
    assert 0 <= passes["partial"] < passes["full"]


def test_partial_quadrature_tracks_full_on_covariance_testbed():
    # the criterion-9 testbed, where the plain recurrence stalls by two orders
    sites = sample_sites(90, 120, 0.1, seed=3)
    op = build_matern_operator((90, 120), sites, 0.4 * 120, 0.4 * 90,
                               nu=1.5, tau=1e-5)
    u = rademacher_vector(op.dim, seed=0)
    truth = oracles.dense_f_oracle(op.dense_matrix(), np.log).bilinear(
        u / np.linalg.norm(u))
    errs = {mode: abs(truth - quadrature_value(
                lanczos_run(op, u[None], 200, mode).tridiagonal(), np.log))
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
    return lanczos_run(Laplacian2D(20, 24), rng.standard_normal((1, 480)),
                       150).tridiagonal()


@pytest.mark.parametrize("m", [2, 3, 8, 25, 60, 1000, "lanczos"])
def test_tridiag_eigen_vs_dense(m):
    if m == "lanczos":
        T = _lanczos_jacobi()
    else:
        rng = np.random.default_rng(m)
        T = SymTridiagonal(rng.standard_normal(m), np.abs(rng.standard_normal(m - 1)))
    eig = tridiag_eigen(T)
    # the reference is LAPACK's tridiagonal solver, as scipy wraps it
    lam, Q = scipy.linalg.eigh_tridiagonal(T.alphas, T.betas)
    np.testing.assert_allclose(eig.thetas, lam, atol=1e-10 * max(1, np.abs(lam).max()))
    np.testing.assert_allclose(np.abs(eig.first_row), np.abs(Q[0]), atol=1e-10)
    assert np.sum(eig.first_row**2) == pytest.approx(1.0, abs=1e-12)


def test_tridiag_eigen_solver_failure_is_a_numerical_failure(monkeypatch):
    def fail(matrix):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", fail)
    with pytest.raises(NumericalFailureError, match="did not converge"):
        tridiag_eigen(SymTridiagonal([2.0, 2.0], [1.0]))


@pytest.mark.parametrize("alphas,betas", [([np.nan, 2.0], [1.0]), ([2.0, 2.0], [np.inf])])
def test_tridiag_eigen_rejects_a_non_finite_entry(alphas, betas):
    with pytest.raises(NumericalFailureError, match="non-finite"):
        tridiag_eigen(SymTridiagonal(alphas, betas))


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
    u = np.array([2.0, 0.0, 0.0])
    state = LanczosState(op, u[None])
    lanczos_step(state)
    assert bilinear(state, u, lambda x: np.exp(-x)) == pytest.approx(4.0)


def test_bilinear_identity_exact_after_one_step():
    n = 17
    op = DenseOperator(np.eye(n))
    u = np.where(np.arange(n) % 3 == 0, 1.0, -1.0)
    state = LanczosState(op, u[None])
    lanczos_step(state)
    f = lambda x: np.exp(-x)
    assert bilinear(state, u, f) == pytest.approx(n * f(1.0), rel=1e-13)


def test_exactness_at_distinct_eigenvalue_count():
    # q distinct eigenvalues in the start vector -> breakdown by step q
    rng = np.random.default_rng(4)
    eigs = np.array([0.5, 1.5, 2.0, 4.0])
    diag = np.concatenate([eigs, eigs, eigs])
    op = DenseOperator(np.diag(diag))
    u = rng.standard_normal(len(diag))
    for state in lanczos_steps(op, u[None]):
        pass
    assert state.breakdown[0] and state.m <= len(eigs)
    f = lambda x: np.exp(-x)
    exact = float(np.sum(f(diag) * (u**2)))
    assert bilinear(state, u, f) == pytest.approx(exact, rel=1e-10)


@pytest.mark.parametrize("degree,steps", [(1, 1), (3, 2), (5, 3), (9, 5)])
def test_gauss_quadrature_degree(degree, steps):
    # degree <= 2m-1 polynomials are integrated exactly after m steps
    rng = np.random.default_rng(degree)
    A = random_spd(11, rng)
    coeffs = rng.standard_normal(degree + 1)
    f = lambda x: np.polyval(coeffs, x)
    u = rng.standard_normal(11)
    state = lanczos_run(DenseOperator(A), u[None], steps)
    lam, Q = np.linalg.eigh(A)
    w = Q.T @ u
    exact = float(np.sum(w**2 * f(lam)))
    assert bilinear(state, u, f) == pytest.approx(exact, rel=1e-10)


def test_ritz_values_interlace_along_run():
    op = Laplacian2D(8, 9)
    rng = np.random.default_rng(2)
    state = LanczosState(op, rng.standard_normal((1, 72)))
    prev_max, prev_min = -np.inf, np.inf
    for _ in range(40):
        lanczos_step(state)
        if state.breakdown[0]:
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
    state = LanczosState(op, rng.standard_normal((1, 180)))
    f = lambda x: np.exp(-x)
    values = []
    for _ in range(25):
        lanczos_step(state)
        if state.breakdown[0]:
            break
        values.append(quadrature_value(state.tridiagonal(), f))
    diffs = np.diff(values)
    assert np.all(diffs > -1e-15)


def test_step_guards():
    op = DenseOperator(np.eye(2))
    state = LanczosState(op, np.ones((1, 2)))
    lanczos_step(state)
    with pytest.raises(ContractViolationError):
        lanczos_step(state)  # already broken down
    state2 = LanczosState(op, np.array([[1.0, 0.1]]), m_max=1)
    lanczos_step(state2)
    with pytest.raises(ContractViolationError):
        lanczos_step(state2)  # m_max exhausted


def _warm_step_allocation(state, steps):
    tracemalloc.start()
    try:
        start, _ = tracemalloc.get_traced_memory()
        for _ in range(steps):
            lanczos_step(state)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak - start


@pytest.mark.parametrize("mode", ["partial", "full"])
def test_warm_steps_allocate_no_vector(mode):
    # the operator writes into the next basis row and the updates run in
    # place, so a step within the buffer's capacity allocates only O(m)
    op = Laplacian2D(300, 400)
    state = LanczosState(op, rademacher_vector(op.dim, seed=4)[None], reorth_mode=mode)
    for _ in range(2):
        lanczos_step(state)
    assert _warm_step_allocation(state, 8) < op.dim * 8
    assert state.m == 10 and not state.breakdown[0]
    # a block of probes steps in the same rows: less than one (b, n) block
    op = Laplacian2D(100, 120)
    probes = np.array([rademacher_vector(op.dim, seed=4, index=i) for i in range(4)])
    state = LanczosState(op, probes, reorth_mode=mode)
    for _ in range(2):
        lanczos_step(state)
    assert _warm_step_allocation(state, 8) < probes.nbytes
    assert state.m == 10 and not state.breakdown.any()


def test_block_columns_replay_single_runs():
    # each column of a block of three, retired at its own step, has the
    # Jacobi matrix, basis and reorthogonalization count of its own run as a
    # block of one, bit for bit
    op = Laplacian2D(9, 11)
    rng = np.random.default_rng(8)
    U = rng.standard_normal((3, op.dim))
    stops = {0: 5, 2: 9}
    for state in lanczos_steps(op, U, m_max=14):
        for j, stop in stops.items():
            if state.steps[j] == stop:
                state.active[j] = False
    assert list(state.steps) == [5, 14, 9]
    for j, u in enumerate(U):
        single = lanczos_run(op, u[None], state.steps[j])
        assert single.m == state.steps[j]
        for part in ("alphas", "betas"):
            np.testing.assert_array_equal(getattr(single.tridiagonal(), part),
                                          getattr(state.tridiagonal(column=j), part))
        np.testing.assert_array_equal(single.basis(), state.basis(j))
        assert single.reorth_passes[0] == state.reorth_passes[j]


def test_buffer_growth_keeps_earlier_rows_in_place():
    # a growth appends a chunk: rows written before it keep their memory
    op = Laplacian2D(6, 7)
    buffer = BasisBuffer(op.dim, width=2)
    state = LanczosState(op, np.ones((2, op.dim)) + np.eye(2, op.dim), m_max=40,
                         buffer=buffer)
    first = buffer.chunks[0]
    pointer = first.__array_interface__["data"][0]
    for _ in range(40):
        lanczos_step(state)
    # the 41 rows of 40 steps take three chunks of 16
    assert [len(chunk) for chunk in buffer.chunks] == [16, 16, 16]
    assert buffer.chunks[0] is first
    assert first.__array_interface__["data"][0] == pointer
    assert buffer.row(3).__array_interface__["data"][0] == pointer + 3 * 2 * op.dim * 8
    np.testing.assert_array_equal(state.basis(1)[:16], first[:, 1])
    # the rows past the first chunk continue the basis, which stays orthonormal
    V = state.basis(1)
    assert np.max(np.abs(V @ V.T - np.eye(len(V)))) < 1e-6


@pytest.mark.parametrize("mode", ["partial", "full"])
def test_gathered_columns_step_into_a_new_chunk(mode):
    # the interior column retires before row 16, so the outer two reach it
    # on the gathered path, whose scatter appends the chunk (full mode then
    # orthogonalizes across both chunks); each column still has its own
    # run's coefficients and basis, bit for bit
    op = Laplacian2D(9, 11)
    U = np.random.default_rng(3).standard_normal((3, op.dim))
    buffer = BasisBuffer(op.dim, width=3)
    for state in lanczos_steps(op, U, reorth_mode=mode, m_max=24, buffer=buffer):
        if state.m == 4:
            state.active[1] = False
        if state.m == 15:
            assert len(buffer.chunks) == 1
    assert list(state.steps) == [24, 4, 24] and len(buffer.chunks) == 2
    for j, u in enumerate(U):
        single = lanczos_run(op, u[None], state.steps[j], reorth_mode=mode)
        for part in ("alphas", "betas"):
            np.testing.assert_array_equal(getattr(single.tridiagonal(), part),
                                          getattr(state.tridiagonal(column=j), part))
        np.testing.assert_array_equal(single.basis(), state.basis(j))
        assert single.reorth_passes[0] == state.reorth_passes[j]


def test_buffer_reuse_appends_only_the_chunks_a_longer_run_needs():
    op = Laplacian2D(6, 7)
    U = np.random.default_rng(5).standard_normal((2, op.dim))
    buffer = BasisBuffer(op.dim, width=2)

    def run(steps):
        state = LanczosState(op, U, m_max=steps, buffer=buffer)
        for _ in range(steps):
            lanczos_step(state)
        fresh = lanczos_run(op, U, steps)
        for j in range(2):
            np.testing.assert_array_equal(state.basis(j), fresh.basis(j))
        return [chunk.__array_interface__["data"][0] for chunk in buffer.chunks]

    first = run(20)
    assert len(first) == 2
    # a shorter run reuses the chunks it reaches and appends none
    assert run(10) == first
    # a longer one appends a chunk behind the first ones, which stay in place
    longer = run(40)
    assert len(longer) == 3 and longer[:2] == first


@pytest.mark.parametrize("case", ["reorthogonalizing", "no reorth", "breakdown"])
def test_ring_run_rebuilds_the_kept_basis_bit_for_bit(monkeypatch, case):
    # a one-probe run longer than PROBE_BLOCK_ELEMENTS stores no basis until
    # reorthogonalization or basis() reads it, then replays it from the
    # start: its coefficients, passes and basis are those of the same run
    # with the basis kept from the start, bit for bit
    if case == "no reorth":
        op, steps = Laplacian2D(200, 200), 40
        u = rademacher_vector(op.dim, seed=5)[None]
    else:
        # partial reorthogonalization fires at step 9 and again after the
        # replay; an eigenvector start breaks down at step 1
        op, steps = large_diagonal(), 60
        u = (rademacher_vector(op.dim, seed=5) if case == "reorthogonalizing"
             else np.eye(1, op.dim, op.dim - 1).ravel())[None]
    assert op.dim > lanczos.PROBE_BLOCK_ELEMENTS
    buffer = BasisBuffer(op.dim)
    for ring in lanczos_steps(op, u, m_max=steps, buffer=buffer):
        pass
    if case == "no reorth":
        assert ring.reorth_passes[0] == 0 and buffer.chunks == []
    elif case == "reorthogonalizing":
        # the replay's step and the one after make at most 4 passes
        assert 0 < ring.replayed_steps[0] < 20 and ring.reorth_passes[0] > 4
    else:
        assert ring.breakdown[0] and ring.m == 1
    replayed = ring.replayed_steps[0]
    basis = ring.basis()
    assert ring.replayed_steps[0] == (steps - 1 if case == "no reorth" else replayed)
    if case == "breakdown":
        np.testing.assert_array_equal(basis, u)
    monkeypatch.setattr(lanczos, "PROBE_BLOCK_ELEMENTS", 2**62)
    kept = lanczos_run(op, u, steps)
    assert kept.replayed_steps[0] == 0
    np.testing.assert_array_equal(ring._alphas, kept._alphas)
    np.testing.assert_array_equal(ring._betas, kept._betas)
    np.testing.assert_array_equal(ring.reorth_passes, kept.reorth_passes)
    np.testing.assert_array_equal(basis, kept.basis())
