import numpy as np
import pytest

from slqcert.error_estimator import ErrorMonitor, cumulative_error, lookback_check
from slqcert.errors import ContractViolationError, PivotBreakdownError
from slqcert.lanczos import SymTridiagonal, tridiag_eigen
from slqcert.operators import DenseOperator, Laplacian2D
from slqcert.rational import RationalApproximant, build, evaluate
from slqcert.trace_estimator import ProbeBlock

from helpers import random_spd, with_history


def single_pole_monitor(pole=1j, coeff=1.0, tol=1e-8, t=0.1):
    r = RationalApproximant("log", (0.1, 1.0), np.array([pole], dtype=complex),
                            np.array([coeff], dtype=complex), 0.0, 1)
    return ErrorMonitor(r, tol=tol, t=t)


def test_pivot_first_step():
    monitor = single_pole_monitor()
    monitor.advance(2.0, 0.0)
    assert monitor.m == 1
    assert monitor.u[0, 0] == pytest.approx(2.0 - 1j)
    assert monitor.eta[0, 0] == pytest.approx((2.0 + 1j) / 5.0)


def test_pivot_second_step_hand_values():
    monitor = single_pole_monitor()
    monitor.advance(1.0, 0.0)
    monitor.advance(2.0, 1.0)
    assert monitor.u[0, 0] == pytest.approx((3.0 - 3.0j) / 2.0)
    assert monitor.eta[0, 0] == pytest.approx(-1j / 3.0)
    # direct solve cross-check: (T2 - iI) x = e1, eta = x[-1]
    T = np.array([[1.0, 1.0], [1.0, 2.0]], dtype=complex) - 1j * np.eye(2)
    x = np.linalg.solve(T, np.array([1.0, 0.0], dtype=complex))
    assert monitor.eta[0, 0] == pytest.approx(x[-1])


def test_pivot_guard_records_the_failure():
    monitor = single_pole_monitor(pole=0.0)  # pole on the real axis
    monitor.advance(0.0, 0.0)
    (err,) = monitor._failures.values()
    assert isinstance(err, PivotBreakdownError)
    assert err.pole == 0.0 and err.column == 0 and monitor._failures.keys() == {0}
    assert str(err) == "pivot underflow at step 1 for pole 0j"
    assert monitor.m == 1 and monitor.u[0, 0] == np.inf and monitor.eta[0, 0] == 0.0


def test_a_failed_column_takes_exact_zeros_and_leaves_the_others_alone():
    # u_2 = alpha_2 - 0 - beta^2 / u_1 = 1 - 1 / 1 = 0 on the real pole 0 in
    # column 0, which keeps that first failure when its u_3 = 0 - 0 - 0 is 0
    # again; column 1 takes other coefficients and runs as if alone
    monitor = single_pole_monitor(pole=0.0, tol=[1e-8, 1e-8])
    alone = single_pole_monitor(pole=0.0)
    feed = [((1.0, 2.0), (0.0, 0.0)), ((1.0, 3.0), (1.0, 0.5)),
            ((0.0, 1.5), (0.3, 0.2)), ((0.5, 2.5), (0.7, 0.1))]
    for alphas, betas in feed:
        monitor.advance(np.array(alphas), np.array(betas))
        alone.advance(alphas[1], betas[1])
    assert monitor._failures.keys() == {0}
    assert str(monitor._failures[0]) == "pivot underflow at step 2 for pole 0j"
    assert monitor.m == 4 and monitor.history[0].tolist() == [0.0, 0.0, 0.0]
    np.testing.assert_array_equal(monitor.history[1], alone.history[0])
    np.testing.assert_array_equal(monitor.eta[1], alone.eta[0])
    assert lookback_check(monitor)[1][1] == lookback_check(alone)[1][0]


@pytest.mark.parametrize("pole", [1j, 2.0 + 0.5j, -3.0 + 0j, 0.3 + 2j])
def test_eta_matches_dense_resolvent_along_run(pole):
    rng = np.random.default_rng(42)
    m_total = 30
    alphas = rng.uniform(1.0, 3.0, m_total)
    betas = rng.uniform(0.2, 1.0, m_total - 1)
    monitor = single_pole_monitor(pole=pole)
    for m in range(1, m_total + 1):
        monitor.advance(alphas[m - 1], betas[m - 2] if m >= 2 else 0.0)
        T = SymTridiagonal(alphas[:m], betas[: m - 1]).to_dense().astype(complex)
        T -= pole * np.eye(m)
        x = np.linalg.solve(T, np.eye(m)[0])
        assert monitor.eta[0, 0] == pytest.approx(x[-1], rel=1e-10)


def test_incremental_error_hand_value():
    monitor = single_pole_monitor()
    monitor.advance(1.0, 0.0)
    (d1,) = monitor.advance(2.0, 1.0)
    assert d1 == pytest.approx(-1.0 / 6.0, abs=1e-15)
    # equals Re{e1 (T2 - iI)^-1 e1 - e1 (T1 - iI)^-1 e1} = Re{(-1+i)/6}
    assert monitor.history[0].tolist() == [d1]


def test_incremental_error_zero_after_breakdown():
    monitor = single_pole_monitor()
    monitor.advance(1.0, 0.0)
    d = monitor.advance(5.0, 0.0)  # beta = 0: decoupled block
    assert d.tolist() == [0.0]


def test_increments_match_eigen_route_differences():
    # the load-bearing equivalence: recurrence vs quadrature of r at every step
    rng = np.random.default_rng(7)
    A = random_spd(40, rng, shift=1.0)
    lam = np.linalg.eigvalsh(A)
    r = build("log", 10, (lam[0] * 0.99, lam[-1] * 1.01))
    block = ProbeBlock(DenseOperator(A), rng.standard_normal((1, 40)), m_max=30)
    quad = []
    for monitor, ends in block.follow(r, 0.0):
        eig = tridiag_eigen(block.state.tridiagonal())
        quad.append(float(np.sum(eig.first_row**2 * evaluate(r, eig.thetas))))
    assert block.state.m == 30 and ends == [None]
    direct = np.diff(quad)
    np.testing.assert_allclose(monitor.history[0], direct, atol=1e-12)


def test_prefix_sums_invariant():
    monitor = single_pole_monitor()
    rng = np.random.default_rng(0)
    monitor.advance(rng.uniform(1, 2), 0.0)
    for _ in range(30):
        monitor.advance(rng.uniform(1, 2), rng.uniform(0.1, 0.5))
    direct = np.cumsum(monitor.history[0])
    prefix_sums = [cumulative_error(monitor, 1, m) for m in range(2, len(direct) + 2)]
    np.testing.assert_allclose(prefix_sums, direct, rtol=1e-15)


def _monitor_with_history(values, tol=1e-8, t=0.1):
    return with_history(single_pole_monitor(tol=tol, t=t), values)


def _lookback(monitor):
    """(converged, retired step or None, estimate or None) of the one column."""
    (converged,), (retired,), (estimate,) = lookback_check(monitor)
    return (bool(converged), int(retired) if retired else None,
            float(estimate) if retired else None)


def test_lookback_direct_rule():
    monitor = _monitor_with_history([1.0, 0.5, 0.09], tol=np.inf)
    assert _lookback(monitor) == (True, 1, pytest.approx(1.5))


def test_lookback_pending_when_no_ratio():
    monitor = _monitor_with_history([1.0, 0.5, 0.2])
    assert _lookback(monitor) == (False, None, None)


def test_lookback_needs_two_entries():
    monitor = _monitor_with_history([1.0])
    assert _lookback(monitor) == (False, None, None)


def test_lookback_geometric_first_trigger():
    # d_i = 2^{-i}: the ratio test first fires at J = 5 with retired step 1
    d = [2.0**-i for i in range(1, 6)]
    for J in range(2, 5):
        monitor = _monitor_with_history(d[:J], tol=np.inf)
        assert _lookback(monitor)[1] is None
    monitor = _monitor_with_history(d, tol=np.inf)
    assert _lookback(monitor)[1] == 1
    # infinite tail vs window: ratio equals t/(1-t) at t = 2^{-(J-1)} ... bounded by 1/9 at t=0.1
    window = sum(d[:4])
    tail = 2.0 ** -4  # sum_{i>=5} 2^{-i}
    assert tail / window <= 0.1 / 0.9


def test_lookback_pending_when_window_above_tol():
    monitor = _monitor_with_history([1.0, 0.5, 0.09], tol=1e-3)
    assert _lookback(monitor) == (False, 1, pytest.approx(1.5))


def test_lookback_zero_increment_qualifies():
    monitor = _monitor_with_history([0.4, 0.2, 0.0], tol=0.25)
    assert _lookback(monitor) == (True, 2, pytest.approx(0.2))


def test_cumulative_error_windows():
    monitor = _monitor_with_history([0.5, 0.25, 0.125, 0.0625])
    assert cumulative_error(monitor, 2, 3) == pytest.approx(0.25)
    assert cumulative_error(monitor, 1, 5) == pytest.approx(0.9375)
    with pytest.raises(ContractViolationError):
        cumulative_error(monitor, 3, 3)
    with pytest.raises(ContractViolationError):
        cumulative_error(monitor, 0, 2)
    with pytest.raises(ContractViolationError):
        cumulative_error(monitor, 1, 7)


def test_cumulative_telescopes_to_eigen_route():
    rng = np.random.default_rng(3)
    op = Laplacian2D(6, 7)
    lam_max = 8.0
    r = build("exp_neg", 4, (0.0, lam_max))
    f = lambda x: np.exp(-x)
    block = ProbeBlock(op, rng.standard_normal((1, 42)), m_max=20)
    quad_r = []
    for monitor, ends in block.follow(r, 0.0):
        eig = tridiag_eigen(block.state.tridiagonal())
        quad_r.append(float(np.sum(eig.first_row**2 * evaluate(r, eig.thetas))))
    assert block.state.m == 20 and ends == [None]
    total = cumulative_error(monitor, 1, len(monitor.history[0]) + 1)
    assert total == pytest.approx(quad_r[-1] - quad_r[0], abs=1e-12)


def test_sign_flip_counter():
    # one real pole z = 0 with c = 1: d_{m-1} = beta^2 eta_{m-1}^2 / u_m, so the
    # increments take the sign of the pivot u_m ~ alpha_m (small beta)
    feed = [(1.0, 0.0), (1.0, 0.1), (-1.0, 0.1), (1.0, 0.1), (1.0, 0.1)]
    monitor = single_pole_monitor(pole=0.0)
    for alpha, beta in feed:
        monitor.advance(alpha, beta)
    assert np.sign(monitor.history[0]).tolist() == [1.0, -1.0, 1.0, 1.0]
    # Lanczos from e1 on that Jacobi matrix takes the same steps, and the
    # record of its one probe counts the two flips
    alphas, betas = zip(*feed)
    T = np.diag(alphas) + np.diag(betas[1:], 1) + np.diag(betas[1:], -1)
    r = RationalApproximant("log", (0.5, 2.0), np.array([0.0j]), np.array([1.0 + 0j]), 0.0, 1)
    (rec,) = ProbeBlock(DenseOperator(T), np.eye(5)[:1]).watch(r, 1e-8)
    assert rec.steps_run == 5 and rec.sign_flips == 2


def test_constant_sign_on_laplacian_runs():
    from slqcert.oracles import laplacian_extreme_eigenvalues

    rng = np.random.default_rng(11)
    op = Laplacian2D(10, 11)
    interval = laplacian_extreme_eigenvalues(10, 11)
    for kind in ("exp_neg", "sqrt", "log", "tanh_sqrt"):
        iv = (0.0, interval[1]) if kind == "exp_neg" else interval
        r = build(kind, 10, iv)
        block = ProbeBlock(op, rng.standard_normal((1, 110)), m_max=30)
        for monitor, ends in block.follow(r, 0.0):
            pass
        assert ends == [None]
        d = monitor.history[0]
        big = d[np.abs(d) > 10 * r.eps]
        assert len(big) > 3
        assert np.all(big > 0) or np.all(big < 0), kind
